"""Failure models, traces, correlated domains, job queue.

Independent per-job failures come from the Fig 3 models in
:mod:`.models`/:mod:`.traces`; the fleet scheduler
(:class:`repro.fleet.FleetScheduler`, ``failure_model=``) injects them
into live jobs, one of them or many. Correlated rack/power failures
(the restore-storm trigger) are planned by :mod:`.domains`;
:mod:`.scheduler` simulates fleet *occupancy* at whole-job granularity.
"""

from .domains import (
    DOMAIN_POWER,
    DOMAIN_RACK,
    FailureDomain,
    StormPlan,
    assign_domains,
    plan_storm,
)
from .models import (
    HOUR_S,
    ExponentialFailures,
    FailureModel,
    ScheduledFailures,
    WeibullFailures,
    paper_failure_model,
)
from .scheduler import Job, JobQueueReport, JobQueueSim, make_job_batch
from .traces import CdfPoint, FailureTrace

__all__ = [
    "DOMAIN_POWER",
    "DOMAIN_RACK",
    "HOUR_S",
    "CdfPoint",
    "ExponentialFailures",
    "FailureDomain",
    "FailureModel",
    "FailureTrace",
    "Job",
    "JobQueueReport",
    "JobQueueSim",
    "ScheduledFailures",
    "StormPlan",
    "WeibullFailures",
    "assign_domains",
    "make_job_batch",
    "paper_failure_model",
    "plan_storm",
]
