"""A Bistro/PBS-like job-queue simulation (paper section 2.2).

"Training jobs are submitted to this infrastructure through an
internally developed job scheduling interface. Schedulers like Bistro
and PBS handle job and user priorities, and manage the job queue."

This module simulates a fleet of training clusters running a queue of
long jobs under a failure process, with checkpoint-interval-driven
recovery: when a job fails, the work since its last checkpoint is lost
and the job re-queues with the rest of its progress intact. It operates
at job granularity (no per-batch training) so fleet-month experiments —
Fig 3 traces, wasted-work versus checkpoint-interval sweeps — run in
milliseconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import SimulationError
from .models import FailureModel


@dataclass(order=True)
class Job:
    """One queued training job (priority: lower number runs first)."""

    priority: int
    job_id: str = field(compare=False)
    required_hours: float = field(compare=False)
    completed_hours: float = field(default=0.0, compare=False)
    failures: int = field(default=0, compare=False)
    wasted_hours: float = field(default=0.0, compare=False)
    submitted_at_h: float = field(default=0.0, compare=False)
    finished_at_h: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.required_hours <= 0:
            raise SimulationError("job must require positive hours")

    @property
    def remaining_hours(self) -> float:
        return max(0.0, self.required_hours - self.completed_hours)


@dataclass(frozen=True)
class JobQueueReport:
    """Aggregate outcome of a job-queue simulation."""

    jobs_completed: int
    total_failures: int
    total_wasted_hours: float
    total_useful_hours: float
    makespan_hours: float
    failure_runtimes_h: tuple[float, ...]  # per-failure job runtime (Fig 3)

    @property
    def waste_fraction(self) -> float:
        total = self.total_wasted_hours + self.total_useful_hours
        return self.total_wasted_hours / total if total else 0.0


class JobQueueSim:
    """Runs a job queue over ``num_clusters`` failure-prone clusters.

    ``checkpoint_interval_hours`` bounds the work lost per failure: a
    job that fails re-queues having lost only the progress since its
    last checkpoint boundary (plus nothing else — restore time is
    negligible at this granularity).
    """

    def __init__(
        self,
        num_clusters: int,
        failure_model: FailureModel,
        checkpoint_interval_hours: float = 0.5,
        seed: int = 0,
    ) -> None:
        if num_clusters < 1:
            raise SimulationError("need at least one cluster")
        if checkpoint_interval_hours <= 0:
            raise SimulationError("checkpoint interval must be positive")
        self.num_clusters = num_clusters
        self.failure_model = failure_model
        self.checkpoint_interval_hours = checkpoint_interval_hours
        self.rng = np.random.default_rng(seed)

    def run(self, jobs: list[Job]) -> JobQueueReport:
        """Simulate until every job completes."""
        if not jobs:
            raise SimulationError("need at least one job")
        queue = list(jobs)
        heapq.heapify(queue)
        # (free_at_hours, cluster_id) min-heap of cluster availability.
        clusters = [(0.0, c) for c in range(self.num_clusters)]
        heapq.heapify(clusters)

        completed: list[Job] = []
        failure_runtimes: list[float] = []
        total_failures = 0
        total_wasted = 0.0
        makespan = 0.0

        while queue:
            job = heapq.heappop(queue)
            free_at, cluster_id = heapq.heappop(clusters)
            start = max(free_at, job.submitted_at_h)
            time_to_failure_h = (
                float(self.failure_model.sample(self.rng)) / 3600.0
            )
            if time_to_failure_h >= job.remaining_hours:
                # Runs to completion this attempt.
                end = start + job.remaining_hours
                job.completed_hours = job.required_hours
                job.finished_at_h = end
                completed.append(job)
            else:
                # Fails mid-run; loses progress since the last interval.
                end = start + time_to_failure_h
                progress = job.completed_hours + time_to_failure_h
                checkpointed = (
                    progress
                    // self.checkpoint_interval_hours
                    * self.checkpoint_interval_hours
                )
                wasted = progress - checkpointed
                job.completed_hours = checkpointed
                job.failures += 1
                job.wasted_hours += wasted
                total_wasted += wasted
                total_failures += 1
                failure_runtimes.append(time_to_failure_h)
                heapq.heappush(queue, job)
            heapq.heappush(clusters, (end, cluster_id))
            makespan = max(makespan, end)

        useful = sum(j.required_hours for j in completed)
        return JobQueueReport(
            jobs_completed=len(completed),
            total_failures=total_failures,
            total_wasted_hours=total_wasted,
            total_useful_hours=useful,
            makespan_hours=makespan,
            failure_runtimes_h=tuple(failure_runtimes),
        )


def make_job_batch(
    count: int,
    mean_required_hours: float = 72.0,
    seed: int = 0,
) -> list[Job]:
    """A batch of jobs with log-normally spread durations."""
    if count < 1:
        raise SimulationError("need at least one job")
    rng = np.random.default_rng(seed)
    durations = rng.lognormal(
        np.log(mean_required_hours), 0.5, size=count
    )
    return [
        Job(
            priority=int(rng.integers(0, 3)),
            job_id=f"job-{i:05d}",
            required_hours=float(max(1.0, d)),
        )
        for i, d in enumerate(durations)
    ]
