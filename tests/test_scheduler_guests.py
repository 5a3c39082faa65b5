"""Guests on the fleet scheduler: the serving plane's merge point.

The serving co-simulation runs its publishes, flips, lookups and
request dispatch on :class:`~repro.fleet.scheduler.FleetScheduler` as
guest reads (``add_read``) and timers (``add_timer``). The golden event
logs only sample the ordering rules where those meet the training job,
so each rule is pinned here with stub handles on a one-job scheduler —
every assertion is what ``ServingFleet`` decided when it still ran an
event loop of its own:

* a link operation (guest read or checkpoint part) runs before a
  compute event (training, request dispatch) at an equal time;
* training runs before a dispatch timer at exactly the same time;
* dispatch timers at exactly the same time fire in slot-index order;
* a background read (a flip's warm read) yields to a foreground read
  or checkpoint part it ties with, and runs when every tied link
  operation is background.

It also pins the convergence bound: the serving guests' share grows
with the run's shape, and a guest that never finishes raises
:class:`~repro.errors.FleetError` instead of spinning.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import FleetConfig
from repro.errors import FleetError
from repro.experiments import small_config
from repro.fleet import build_fleet
from repro.serving import ServingConfig, ServingFleet
from repro.storage.bandwidth import TIER_SERVING
from repro.storage.engine import StagedHandle, TransferStep


def _scheduler():
    scheduler, _ = build_fleet(
        FleetConfig(num_jobs=1, intervals_per_job=1, inject_failures=False)
    )
    for stream in ("serve0", "serve1"):
        scheduler.store.arbiter.register(stream, tier=TIER_SERVING)
    return scheduler


def _read(name: str, *ready_s: float) -> StagedHandle:
    """A stub staged read: one announced part per ready time."""

    def steps():
        for ready in ready_s:
            yield TransferStep(name, ready)
        return name

    return StagedHandle(steps())


def _add_read(scheduler, key, *ready_s, background=False, done=None):
    """Add a stub read as ``key``, booked to the stream before ``/``."""
    scheduler.add_read(
        key,
        _read(key, *ready_s),
        key.split("/")[0],
        done.append if done is not None else lambda handle: None,
        background=background,
    )


def _next(scheduler) -> tuple[str, object]:
    """Step the earliest event; returns its ``(kind, actor)``."""
    event = scheduler.next_event()
    scheduler.step(event)
    _, kind, actor = event
    return kind, actor


class TestGuestOrdering:
    def test_link_guest_beats_compute_at_an_equal_time(self):
        scheduler = _scheduler()
        now = scheduler.jobs[0].clock.now
        done, fired = [], []
        scheduler.add_timer(0, now, fired.append)
        _add_read(scheduler, "serve0/lookup", now, done=done)
        assert _next(scheduler) == ("read", "serve0/lookup")
        assert [handle.result for handle in done] == ["serve0/lookup"]
        assert fired == []
        # Training and the timer are still due at the same instant.
        assert scheduler.next_event()[0] == now

    def test_training_beats_a_timer_at_exactly_the_same_time(self):
        scheduler = _scheduler()
        now = scheduler.jobs[0].clock.now
        fired = []
        scheduler.add_timer(0, now, fired.append)
        kind, job = _next(scheduler)
        assert (kind, job.job_id) == ("train", scheduler.jobs[0].job_id)
        assert fired == []

    def test_an_earlier_timer_beats_training(self):
        scheduler = _scheduler()
        now = scheduler.jobs[0].clock.now
        fired = []
        scheduler.add_timer(0, now - 1e-9, fired.append)
        assert _next(scheduler) == ("timer", 0)
        assert fired == [now - 1e-9]

    def test_tied_timers_fire_in_slot_index_order(self):
        scheduler = _scheduler()
        at = scheduler.jobs[0].clock.now - 1.0
        fired = []
        slots = [5, 10, 2, 11, 0, 7, 1, 9, 3, 8, 6, 4]
        for index in slots:
            scheduler.add_timer(
                index, at, lambda _, index=index: fired.append(index)
            )
        while len(fired) < len(slots):
            assert _next(scheduler)[0] == "timer"
        assert fired == list(range(12))
        # Stream names would not do: "serve10" sorts before "serve2".
        assert sorted(f"serve{i}" for i in range(12))[2] == "serve10"

    def test_background_read_yields_to_a_tied_foreground_read(self):
        scheduler = _scheduler()
        at = scheduler.jobs[0].clock.now
        _add_read(scheduler, "serve0/flip", at, background=True)
        _add_read(scheduler, "serve1/lookup", at)
        assert _next(scheduler) == ("read", "serve1/lookup")
        assert _next(scheduler) == ("read", "serve0/flip")

    def _with_staged_part(self):
        """A scheduler whose job has a checkpoint part announced."""
        scheduler = _scheduler()
        job = scheduler.jobs[0]
        while job.pending is None or job.pending.next_step is None:
            _next(scheduler)
        part_s = max(
            job.pending.next_step.ready_s, scheduler.store.timeline.free_at
        )
        return scheduler, job, part_s

    def test_background_read_yields_to_a_tied_checkpoint_part(self):
        scheduler, job, part_s = self._with_staged_part()
        _add_read(scheduler, "serve0/flip", part_s, background=True)
        assert _next(scheduler) == ("write", job)

    def test_foreground_read_outranks_a_tied_checkpoint_part(self):
        """The contrast: serving tier beats prod once nothing yields."""
        scheduler, _, part_s = self._with_staged_part()
        _add_read(scheduler, "serve0/lookup", part_s)
        assert _next(scheduler) == ("read", "serve0/lookup")

    def test_background_reads_run_when_every_tied_op_is_background(self):
        scheduler = _scheduler()
        now = scheduler.jobs[0].clock.now
        scheduler.add_timer(0, now, lambda at: None)
        _add_read(scheduler, "serve0/flip", now, background=True)
        _add_read(scheduler, "serve1/flip", now, background=True)
        kinds = [_next(scheduler) for _ in range(2)]
        assert sorted(actor for _, actor in kinds) == [
            "serve0/flip",
            "serve1/flip",
        ]
        assert {kind for kind, _ in kinds} == {"read"}

    def test_a_finished_handle_completes_at_once(self):
        scheduler = _scheduler()
        done = []
        _add_read(scheduler, "publish", done=done)
        assert [handle.result for handle in done] == ["publish"]
        assert _next(scheduler)[0] == "train"


def _serving_config():
    config = small_config(
        policy="consecutive",
        interval_batches=25,
        num_tables=2,
        rows_per_table=2048,
        batch_size=64,
    )
    return dataclasses.replace(
        config,
        checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=256),
    )


def _serving(**overrides) -> ServingConfig:
    shape = dict(
        num_servers=2,
        cache_rows=64,
        qps=16.0,
        num_queries=60,
        train_intervals=3,
        hot_rows_per_table=48,
    )
    shape.update(overrides)
    return ServingConfig(**shape)


class TestConvergenceBound:
    def test_bound_grows_with_num_queries(self):
        config = _serving_config()
        bounds = [
            ServingFleet(config, _serving(num_queries=n)).training.max_events
            for n in (0, 100, 1000)
        ]
        assert bounds[0] < bounds[1] < bounds[2]
        # Every query costs at least its dispatch and one read a table.
        tables = config.model.num_tables
        assert bounds[2] - bounds[1] >= 900 * (1 + tables)

    def test_guest_share_covers_a_real_run(self):
        config = _serving_config()
        fleet = ServingFleet(config, _serving())
        guest_events = 0
        step = fleet.training.step

        def counting_step(event):
            nonlocal guest_events
            guest_events += event[1] in ("read", "timer")
            step(event)

        fleet.training.step = counting_step
        report = fleet.run()
        assert report.requests == 60 and report.version_flips >= 3
        assert 0 < guest_events <= fleet._event_budget(config)

    def test_a_guest_that_never_finishes_raises(self):
        fleet = ServingFleet(_serving_config(), _serving(num_queries=0))
        parts = 0

        def endless_poll():
            nonlocal parts
            while True:
                parts += 1
                yield TransferStep("endless", float(parts))

        fleet.publisher.poll_steps = endless_poll
        with pytest.raises(FleetError, match="did not converge"):
            fleet.run()
        assert parts <= fleet.training.max_events + 1
