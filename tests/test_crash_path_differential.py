"""The one-job fleet against the synchronous crash loop it replaced.

A second loop used to crash and recover a single job: it trained
batch by batch, drained each checkpoint write at its trigger
(``CheckNRun.checkpoint()``) and restored with ``restore_latest``.
``SYNCHRONOUS`` is what it measured on the shapes its tests ran,
recorded before it was deleted; ``STAGED`` is what the one-job fleet
measures on the same shapes and failure models.

The two differ in one modelling choice (docs/fleet.md, "Failures"):
the fleet submits a staged write's parts between the job's training
batches, each no earlier than the job's clock, so a write spans the
batches it overlaps — where the synchronous loop put the whole write
on the link at the trigger. Longer writes mean more triggers skipped
while one is in flight, fewer snapshots taken, and crashes that find an
older checkpoint (or none) valid. Draining every staged write at its
trigger turns the one-job fleet back into the synchronous loop,
number for number: failure sampling, the crash check, the
unlanded-write discard, the restore (staged, but back to back when one
job recovers), the scratch restart and the wasted-batch accounting are
the same.
"""

from __future__ import annotations

import pytest

from repro.config import FailureConfig, StorageConfig
from repro.experiments import small_config
from repro.failures import ExponentialFailures, ScheduledFailures
from repro.fleet import FleetScheduler, one_job_fleet

#: name -> (config overrides, failure model, failure seed, intervals,
#: max failures)
SHAPES = {
    "exponential_1.5": (
        dict(interval_batches=5, rows_per_table=512),
        lambda: ExponentialFailures(1.5),
        5,
        6,
        1000,
    ),
    "failure_free": (
        dict(interval_batches=3, rows_per_table=256),
        lambda: ExponentialFailures(1e12),
        6,
        3,
        1000,
    ),
    "scratch_restart": (
        dict(interval_batches=50, rows_per_table=256),
        lambda: ExponentialFailures(2.0),
        7,
        1,
        1,
    ),
    "repeated_8bit": (
        dict(
            interval_batches=5,
            rows_per_table=512,
            quantizer="asymmetric",
            bit_width=8,
        ),
        lambda: ExponentialFailures(2.0),
        21,
        8,
        1000,
    ),
    "interval_2": (
        dict(interval_batches=2, rows_per_table=512),
        lambda: ExponentialFailures(3.0),
        7,
        20,
        1000,
    ),
    "interval_10": (
        dict(interval_batches=10, rows_per_table=512),
        lambda: ExponentialFailures(3.0),
        7,
        4,
        1000,
    ),
    "scheduled_1.0_1.2": (
        dict(interval_batches=4, rows_per_table=256),
        lambda: ScheduledFailures([1.0, 1.2]),
        1,
        6,
        1000,
    ),
    "scheduled_0.9": (
        dict(interval_batches=4, rows_per_table=512),
        lambda: ScheduledFailures([0.9]),
        3,
        4,
        1000,
    ),
    "slow_link_in_flight": (
        dict(
            interval_batches=4,
            rows_per_table=512,
            storage=StorageConfig(write_bandwidth=2e4),
        ),
        lambda: ScheduledFailures([1.0]),
        0,
        3,
        1000,
    ),
}

#: (end time, failures, wasted batches, batches trained, restored ids)
SYNCHRONOUS = {
    "exponential_1.5": (
        5.942242, 2, 7, 37, ("ckpt-000002", "ckpt-000003")
    ),
    "failure_free": (1.830542, 0, 0, 9, ()),
    "scratch_restart": (7.693723, 1, 12, 62, (None,)),
    "repeated_8bit": (7.52278, 2, 6, 46, (None, "ckpt-000002")),
    "interval_2": (
        11.003034,
        5,
        10,
        50,
        (
            "ckpt-000003",
            "ckpt-000009",
            "ckpt-000012",
            "ckpt-000017",
            "ckpt-000018",
        ),
    ),
    "interval_10": (
        6.762898, 2, 8, 48, ("ckpt-000000", "ckpt-000002")
    ),
    "scheduled_1.0_1.2": (
        5.221864, 2, 7, 31, ("ckpt-000000", "ckpt-000001")
    ),
    "scheduled_0.9": (3.161086, 1, 2, 18, ("ckpt-000000",)),
    "slow_link_in_flight": (2.781143, 1, 7, 19, (None,)),
}

STAGED = {
    "exponential_1.5": (
        13.215036,
        10,
        53,
        83,
        ("ckpt-000001",) * 2 + ("ckpt-000004",) * 7 + ("ckpt-000009",),
    ),
    "failure_free": (1.580541, 0, 0, 9, ()),
    "scratch_restart": (7.693723, 1, 12, 62, (None,)),
    "repeated_8bit": (8.373082, 2, 11, 51, (None, "ckpt-000001")),
    "interval_2": (
        9.823686,
        3,
        21,
        61,
        ("ckpt-000001", "ckpt-000004", "ckpt-000005"),
    ),
    "interval_10": (
        10.02429,
        3,
        31,
        71,
        ("ckpt-000000", "ckpt-000001", "ckpt-000001"),
    ),
    "scheduled_1.0_1.2": (5.932344, 2, 15, 39, (None, None)),
    "scheduled_0.9": (3.391326, 1, 6, 22, (None,)),
    "slow_link_in_flight": (2.781143, 1, 7, 19, (None,)),
}


def measure(name: str) -> tuple:
    overrides, failure_model, seed, intervals, max_failures = SHAPES[name]
    overrides = dict(overrides)
    storage = overrides.pop("storage", None)
    config = small_config(num_tables=2, batch_size=32, **overrides)
    config = config.with_overrides(
        failures=FailureConfig(seed=seed),
        **({"storage": storage} if storage else {}),
    )
    scheduler, _ = one_job_fleet(
        config,
        intervals,
        failure_model=failure_model(),
        max_failures=max_failures,
    )
    scheduler.run()
    job = scheduler.jobs[0]
    assert job.training_done()
    return (
        round(job.clock.now, 6),
        job.failures,
        job.wasted_batches,
        job.batches_trained,
        tuple(
            e.payload["restored_from"]
            for e in scheduler.events
            if e.kind == "crash"
        ),
    )


def drain_at_trigger(stage_write):
    """``FleetScheduler._stage_write`` that submits the whole write at
    the trigger, as the synchronous loop did."""

    def staged(self, job, restage=False):
        began = stage_write(self, job, restage)
        if began:
            while job.pending.next_step is not None:
                job.pending.advance()
        return began

    return staged


@pytest.mark.parametrize("name", SHAPES)
def test_one_job_fleet_differs_only_in_write_submission(name, monkeypatch):
    assert measure(name) == STAGED[name]
    monkeypatch.setattr(
        FleetScheduler,
        "_stage_write",
        drain_at_trigger(FleetScheduler._stage_write),
    )
    assert measure(name) == SYNCHRONOUS[name]


def test_failure_free_gap_is_one_skipped_snapshot():
    """Without failures the only difference is a trigger the fleet
    skips while its first write is still in flight: one snapshot stall
    fewer."""
    config = small_config(
        interval_batches=3, num_tables=2, rows_per_table=256, batch_size=32
    )
    scheduler, exp = one_job_fleet(config, 3)
    scheduler.run()
    assert exp.controller.stats.checkpoints_skipped == 1
    assert exp.controller.stats.checkpoints_written == 2
    stall = exp.controller.snapshot_manager.stall_time_s()
    gap = SYNCHRONOUS["failure_free"][0] - STAGED["failure_free"][0]
    assert gap == pytest.approx(stall, abs=1e-5)
