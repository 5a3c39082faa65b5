"""Pre-PR-20 lockstep dispatch scan, kept verbatim as the test oracle.

This is the body ``FleetScheduler._next_event`` shipped in
``src/repro/fleet/scheduler.py`` while ``dispatch="lockstep"`` was an
option: every job's pending write and training candidates re-derived
from job state on each pick, O(jobs) per event. It reads no
event-queue lane, so it cannot share a lane-maintenance bug with the
indexed pick it is compared against — which is what it is for
(``tests/test_fleet_eventqueue.py``,
``tests/test_replication_differential.py`` and the ``lockstep`` column
of ``tests/test_golden_event_loops.py``). It must not be edited to
follow the shipped code.
"""

from __future__ import annotations

from types import MethodType

from repro.fleet import build_fleet
from repro.fleet.eventqueue import pick_link_op, tie_threshold
from repro.fleet.experiment import summarize_fleet
from repro.fleet.jobs import FleetJob
from repro.storage.bandwidth import TIER_PROD


def next_event_lockstep(self) -> tuple[float, str, FleetJob] | None:
    """The globally earliest pending event.

    A staged chunk cannot start before ``max(ready, link free)``;
    using that as the event time lets every chunk that would queue
    behind the link compete, and the arbiter's fair-queueing tag
    picks the winner. Writes beat training at equal times so a
    ready chunk claims its link slot before more training runs.
    """
    link_free = self.store.timeline.free_at
    prod_active = self._tier_write_active(TIER_PROD)
    write_ops: list[tuple[float, str, bool, FleetJob]] = []
    train_candidates: list[tuple[float, FleetJob]] = []
    for job in self.jobs:
        if job.pending is not None and job.pending.next_step is not None:
            ready = job.pending.next_step.ready_s
            write_ops.append(
                (max(ready, link_free), job.job_id, False, job)
            )
        elif job.pending is not None:
            # Generator exhausted but bookkeeping outstanding.
            write_ops.append((job.clock.now, job.job_id, False, job))
        if not job.training_done():
            train_candidates.append((job.clock.now, job))
        elif (
            job.requeue_write
            and job.pending is None
            and not prod_active
        ):
            # A training-done job whose final write was preempted
            # still owes its re-stage; once prod traffic drains it
            # gets one more (train-slot) event to submit it.
            train_candidates.append((job.clock.now, job))

    best_write = min((op[0] for op in write_ops), default=None)
    best_train = min(train_candidates, key=lambda e: e[0], default=None)
    if best_write is None and best_train is None:
        return None
    if best_write is not None and (
        best_train is None or best_write <= best_train[0]
    ):
        _, job = pick_link_op(write_ops, self.store.arbiter)
        return (best_write, "write", job)
    assert best_train is not None
    # Deterministic tie-break on equal clocks: lowest job id.
    t_min = best_train[0]
    job = min(
        (
            j
            for t, j in train_candidates
            if t <= tie_threshold(t_min)
        ),
        key=lambda j: j.job_id,
    )
    return (t_min, "train", job)


def run_fleet_lockstep(config, specs=None, on_event=None):
    """``repro.fleet.run_fleet`` with every pick made by the scan."""
    scheduler, store = build_fleet(config, specs)
    scheduler.on_event = on_event
    scheduler._next_event = MethodType(next_event_lockstep, scheduler)
    scheduler.run()
    return scheduler, summarize_fleet(scheduler, store)
