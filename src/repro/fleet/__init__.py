"""Fleet-scale multi-job checkpointing against one shared object store.

The paper's headline numbers (Figs 15-17) are aggregates over thousands
of concurrent training jobs writing to one replicated blob store. This
package reproduces that regime in miniature: a :class:`FleetScheduler`
co-simulates N heterogeneous jobs — each a full Check-N-Run stack with
its own clock — against a single :class:`~repro.storage.ObjectStore`,
interleaving their chunk transfers under a tier-aware fair-share
bandwidth arbiter, injecting independent failures from the Fig 3 CDF
plus optional correlated rack/power failures (restore storms), and
enforcing per-job namespaces and capacity quotas.

Jobs split into paper-style priority classes: ``prod`` streams hold
strict link priority and may preempt (abort-and-requeue) experimental
staged writes; :func:`summarize_tiers` / :func:`format_storm_report`
roll a run up into the per-tier restore-latency and goodput table the
``repro fleet --priority-mix/--storm`` CLI emits.
"""

from ..storage.bandwidth import TIER_EXPERIMENTAL, TIER_PROD
from .arbitration import busy_span, interleave_score, part_split_score
from .experiment import (
    FleetJobResult,
    FleetReductionResult,
    FleetRunReport,
    TierSummary,
    build_fleet,
    fleet_reduction_experiment,
    format_fleet_report,
    format_storm_report,
    one_job_fleet,
    run_fleet,
    summarize_fleet,
    summarize_tiers,
)
from .jobs import (
    FleetJob,
    FleetJobSpec,
    RestoreSample,
    build_fleet_job,
    sample_fleet_specs,
    sample_priority_tiers,
    spec_experiment_config,
)
from .namespace import ScopedStore
from .planner import (
    PlanPoint,
    ProvisioningCurve,
    plan_point,
    run_plan,
    storm_time_to_recover,
)
from .scheduler import FleetEvent, FleetScheduler

__all__ = [
    "TIER_EXPERIMENTAL",
    "TIER_PROD",
    "FleetEvent",
    "FleetJob",
    "FleetJobResult",
    "FleetJobSpec",
    "FleetReductionResult",
    "FleetRunReport",
    "FleetScheduler",
    "PlanPoint",
    "ProvisioningCurve",
    "RestoreSample",
    "ScopedStore",
    "TierSummary",
    "build_fleet",
    "build_fleet_job",
    "busy_span",
    "fleet_reduction_experiment",
    "format_fleet_report",
    "format_storm_report",
    "interleave_score",
    "one_job_fleet",
    "part_split_score",
    "plan_point",
    "run_fleet",
    "run_plan",
    "storm_time_to_recover",
    "sample_fleet_specs",
    "sample_priority_tiers",
    "spec_experiment_config",
    "summarize_fleet",
    "summarize_tiers",
]
