"""Failure injection into live training runs.

Drives a :class:`~repro.core.controller.CheckNRun` job batch by batch,
crashing it whenever the simulated clock crosses the next sampled
failure time. A crash discards the live state (as a real process death
would), restores from the newest valid checkpoint — or reinitialises
from scratch if none exists — and continues. The report quantifies the
wasted (re-trained) work, which is exactly what checkpoint frequency
trades against (paper section 1, criterion 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.controller import CheckNRun
from ..errors import CheckpointNotFoundError, SimulationError
from .models import FailureModel


@dataclass
class FailureEvent:
    """One injected crash and its recovery."""

    at_time_s: float
    interval_index: int
    restored_from: str | None  # checkpoint id, or None for scratch
    wasted_batches: int


@dataclass
class FailureRunReport:
    """Outcome of a failure-injected training run."""

    target_intervals: int
    completed_intervals: int
    failures: int
    total_batches_trained: int  # includes re-trained work
    effective_batches: int  # unique dataset progress
    wasted_batches: int
    total_time_s: float
    events: list[FailureEvent] = field(default_factory=list)

    @property
    def goodput(self) -> float:
        """Fraction of trained batches that were not wasted."""
        if self.total_batches_trained == 0:
            return 1.0
        return self.effective_batches / self.total_batches_trained


class FailureInjector:
    """Runs a controller-managed job under a failure process."""

    def __init__(
        self,
        controller: CheckNRun,
        failure_model: FailureModel,
        seed: int = 0,
        max_failures: int = 1000,
    ) -> None:
        if max_failures < 0:
            raise SimulationError("max_failures must be >= 0")
        self.controller = controller
        self.failure_model = failure_model
        self.rng = np.random.default_rng(seed)
        self.max_failures = max_failures

    def _crash_and_recover(self) -> FailureEvent:
        """Simulate a crash: live state is lost; recover or restart.

        The crash kills the background write pipeline, so a write still
        in flight never becomes valid (section 4.4): it is discarded
        before recovery picks a checkpoint.
        """
        controller = self.controller
        before = controller.trainer.model.batches_trained
        controller.discard_unlanded_write()
        try:
            report = controller.restore_latest()
            restored_from = report.checkpoint_id
            after = controller.trainer.model.batches_trained
        except CheckpointNotFoundError:
            controller.reset_for_scratch_restart()
            restored_from = None
            after = 0
        return FailureEvent(
            at_time_s=controller.clock.now,
            interval_index=controller.interval_index,
            restored_from=restored_from,
            wasted_batches=max(0, before - after),
        )

    def run(self, target_intervals: int) -> FailureRunReport:
        """Train until ``target_intervals`` checkpoint intervals complete."""
        if target_intervals < 1:
            raise SimulationError("need at least one target interval")
        controller = self.controller
        clock = controller.clock
        batches = controller.config.interval_batches

        next_failure = clock.now + float(
            self.failure_model.sample(self.rng)
        )
        total_trained = 0
        events: list[FailureEvent] = []

        while controller.interval_index < target_intervals:
            controller.coordinator.grant_interval(batches)
            crashed = False
            for _ in range(batches):
                controller.trainer.train_one_batch()
                total_trained += 1
                if (
                    clock.now >= next_failure
                    and len(events) < self.max_failures
                ):
                    events.append(self._crash_and_recover())
                    next_failure = clock.now + float(
                        self.failure_model.sample(self.rng)
                    )
                    crashed = True
                    break
            if not crashed:
                controller.checkpoint()

        effective = controller.trainer.model.batches_trained
        return FailureRunReport(
            target_intervals=target_intervals,
            completed_intervals=controller.interval_index,
            failures=len(events),
            total_batches_trained=total_trained,
            effective_batches=effective,
            wasted_batches=sum(e.wasted_batches for e in events),
            total_time_s=clock.now,
            events=events,
        )
