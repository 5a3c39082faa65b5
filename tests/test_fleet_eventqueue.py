"""Event-heap dispatch: heap invariants + heap/lockstep bit-identity.

Two layers of proof that the indexed event heap is a pure perf change:

* unit invariants on :class:`LaneHeap` / :class:`FleetEventQueue` —
  lazy invalidation, re-keying, the pop-time link floor, relative tie
  thresholds, and tie-set enumeration leaving the heap intact;
* a differential matrix: the same seeded fleets run on the heap and
  with every pick made by the lockstep scan kept in
  ``tests/reference_lockstep.py`` must produce *bit-identical* runs —
  equal :class:`FleetRunReport`s and equal event logs (kind, job, time
  and payload of every event) — across seeds, priority mixes, a
  correlated storm, quotas + dynamic admission, and the tiered cache
  backend.
"""

from __future__ import annotations

import random

import pytest

from repro.config import BackendConfig, FleetConfig, StorageConfig
from repro.fleet import build_fleet, run_fleet
from repro.fleet.eventqueue import (
    TIME_EPS,
    FleetEventQueue,
    LaneHeap,
    pick_link_op,
    tie_threshold,
)
from repro.fleet.scheduler import MIN_EVENT_BUDGET
from repro.storage.bandwidth import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    TIER_SERVING,
    BandwidthArbiter,
)

from reference_lockstep import run_fleet_lockstep


class TestTieThreshold:
    def test_matches_absolute_epsilon_at_small_times(self):
        assert tie_threshold(0.5) == 0.5 + 1e-12
        assert tie_threshold(0.0) == 1e-12
        assert tie_threshold(1.0) == 1.0 + 1e-12

    def test_scales_relatively_at_large_times(self):
        """At 10k-job clock magnitudes an absolute 1e-12 would vanish
        beneath float spacing; the relative form keeps ties real."""
        big = 1.0e6
        assert tie_threshold(big) - big == pytest.approx(
            TIME_EPS * big, rel=1e-3
        )
        # The threshold is representable: it differs from `big`.
        assert tie_threshold(big) > big


class _RecordingArbiter(BandwidthArbiter):
    def __init__(self) -> None:
        super().__init__()
        self.asked: list[list[str]] = []

    def pick(self, candidates):
        self.asked.append(list(candidates))
        return super().pick(candidates)


def _spec_pick(ops, arbiter):
    """The link rule, spelled out step by step."""
    best = min(time_s for time_s, _, _, _ in ops)
    tied = [op for op in ops if op[0] <= tie_threshold(best)]
    foreground = [op for op in tied if not op[2]]
    if foreground:
        tied = foreground
    streams = sorted({stream for _, stream, _, _ in tied})
    chosen = streams[0]
    if len(streams) > 1:
        chosen = BandwidthArbiter.pick(arbiter, streams)
    return best, next(op[3] for op in tied if op[1] == chosen)


def _random_link_ops(rng: random.Random):
    """A contended link: mixed tiers, used SFQ tags, near-ties."""
    arbiter = _RecordingArbiter()
    streams = [f"s{i}" for i in range(rng.randint(1, 6))]
    for stream in streams:
        arbiter.register(
            stream,
            tier=rng.choice((TIER_SERVING, TIER_PROD, TIER_EXPERIMENTAL)),
        )
        for _ in range(rng.randint(0, 3)):
            arbiter.on_transfer(stream, rng.randint(1, 4096), "put")
    base = rng.choice((0.0, 0.75, 1.0e6))
    ops = []
    for item in range(rng.randint(1, 10)):
        time_s = base + rng.choice(
            (
                0.0,
                0.0,
                0.4 * TIME_EPS * max(1.0, base),  # ties
                3.0 * TIME_EPS * max(1.0, base),  # does not
                rng.random(),
            )
        )
        ops.append(
            (time_s, rng.choice(streams), rng.random() < 0.3, item)
        )
    return ops, arbiter


def _shuffled_keeping_stream_order(ops, rng: random.Random):
    """Reorder across streams; each stream keeps its listing order."""
    slots = [op[1] for op in ops]
    rng.shuffle(slots)
    queues = {
        stream: [op for op in ops if op[1] == stream]
        for stream in set(slots)
    }
    return [queues[stream].pop(0) for stream in slots]


SPEC_SEEDS = range(300)


class TestPickLinkOp:
    def test_matches_the_spelled_out_rule(self):
        for seed in SPEC_SEEDS:
            rng = random.Random(seed)
            ops, arbiter = _random_link_ops(rng)
            expected = _spec_pick(ops, arbiter)
            assert pick_link_op(ops, arbiter) == expected, seed
            # Only a real tie between streams consults the arbiter.
            assert all(len(set(a)) >= 2 for a in arbiter.asked), seed
            # Listing order matters within a stream only.
            for _ in range(3):
                reordered = _shuffled_keeping_stream_order(ops, rng)
                assert pick_link_op(reordered, arbiter) == expected, seed

    def test_matrix_reaches_every_step(self):
        """Guard the generator: ties, background yields and arbiter
        calls all occur in the seeds above."""
        arbiter_calls = background_yields = single = 0
        for seed in SPEC_SEEDS:
            ops, arbiter = _random_link_ops(random.Random(seed))
            best, item = pick_link_op(ops, arbiter)
            arbiter_calls += bool(arbiter.asked)
            tied = [op for op in ops if op[0] <= tie_threshold(best)]
            single += len(tied) == 1
            background_yields += any(op[2] for op in tied) and not ops[
                item
            ][2]
        assert arbiter_calls > 20 and background_yields > 20 and single > 20

    def test_background_runs_when_nothing_foreground_ties(self):
        arbiter = _RecordingArbiter()
        arbiter.register("a", tier=TIER_SERVING)
        arbiter.register("b", tier=TIER_SERVING)
        ops = [(1.0, "a", True, "flip"), (2.0, "b", False, "lookup")]
        assert pick_link_op(ops, arbiter) == (1.0, "flip")
        assert arbiter.asked == []

    def test_first_listed_op_of_the_chosen_stream_goes(self):
        arbiter = _RecordingArbiter()
        arbiter.register("a", tier=TIER_PROD)
        arbiter.register("b", tier=TIER_SERVING)
        ops = [
            (1.0, "a", False, "write"),
            (1.0, "b", False, "first"),
            (1.0, "b", False, "second"),
        ]
        assert pick_link_op(ops, arbiter) == (1.0, "first")
        assert arbiter.asked == [["a", "b"]]


class TestLaneHeap:
    def test_set_and_best(self):
        lane = LaneHeap()
        assert lane.best() is None
        lane.set("b", 5.0)
        lane.set("a", 3.0)
        assert lane.best() == 3.0
        assert len(lane) == 2
        assert "a" in lane and "c" not in lane
        assert lane.key("b") == 5.0

    def test_rekey_lazily_invalidates_old_entry(self):
        lane = LaneHeap()
        lane.set("a", 3.0)
        lane.set("a", 7.0)  # stale (3.0, "a") stays in the heap
        assert lane.best() == 7.0
        assert len(lane) == 1
        lane.set("a", 1.0)
        assert lane.best() == 1.0

    def test_set_same_key_is_a_noop(self):
        lane = LaneHeap()
        lane.set("a", 2.0)
        lane.set("a", 2.0)
        assert len(lane._heap) == 1  # no duplicate entry pushed

    def test_remove_invalidates_in_place(self):
        lane = LaneHeap()
        lane.set("a", 1.0)
        lane.set("b", 2.0)
        lane.remove("a")
        assert lane.best() == 2.0
        lane.remove("b")
        assert lane.best() is None
        assert len(lane) == 0

    def test_best_applies_floor_at_pop_time(self):
        """min_i max(ready_i, L) == max(min_i ready_i, L)."""
        lane = LaneHeap()
        lane.set("a", 3.0)
        lane.set("b", 8.0)
        assert lane.best(floor=5.0) == 5.0  # floored minimum
        assert lane.best(floor=1.0) == 3.0  # floor below: raw min
        assert lane.best() == 3.0

    def test_tied_enumerates_exact_and_epsilon_ties(self):
        lane = LaneHeap()
        lane.set("a", 1.0)
        lane.set("b", 1.0)
        lane.set("c", 1.0 + 0.5e-12)  # within the relative epsilon
        lane.set("d", 2.0)
        assert sorted(lane.tied(1.0)) == ["a", "b", "c"]

    def test_tied_skips_stale_entries(self):
        lane = LaneHeap()
        lane.set("a", 1.0)
        lane.set("b", 1.0)
        lane.set("a", 9.0)  # stale (1.0, "a") still buried in heap
        assert lane.tied(1.0) == ["b"]

    def test_tied_restores_the_heap(self):
        """Valid entries popped during enumeration are re-pushed."""
        lane = LaneHeap()
        for job, t in (("a", 1.0), ("b", 1.0), ("c", 1.5)):
            lane.set(job, t)
        assert sorted(lane.tied(1.0)) == ["a", "b"]
        # A second identical query sees the same heap.
        assert sorted(lane.tied(1.0)) == ["a", "b"]
        assert lane.best() == 1.0
        lane.remove("a")
        lane.remove("b")
        assert lane.best() == 1.5

    def test_tied_with_floor_above_bound_is_empty(self):
        """When the link floor exceeds the tie bound, no floored entry
        can tie: all effective times equal the floor > bound."""
        lane = LaneHeap()
        lane.set("a", 1.0)
        assert lane.tied(1.0, floor=2.0) == []
        # The heap was not disturbed by the early return.
        assert lane.best() == 1.0

    def test_tied_with_floor_below_bound_uses_raw_keys(self):
        lane = LaneHeap()
        lane.set("a", 3.0)
        lane.set("b", 3.0)
        # floor <= bound: flooring maps all of [floor, bound] onto
        # themselves, so raw-key ties are effective-time ties.
        assert sorted(lane.tied(3.0, floor=1.0)) == ["a", "b"]


class TestFleetEventQueue:
    def test_best_write_merges_floored_and_unfloored_lanes(self):
        queue = FleetEventQueue()
        queue.write.set("w", 3.0)
        queue.book.set("k", 4.0)
        # Link free at 5.0: the write part is floored to 5.0, the
        # bookkeeping candidate is not — book wins.
        assert queue.best_write(link_free=5.0) == 4.0
        # Link free at 0: raw write key wins.
        assert queue.best_write(link_free=0.0) == 3.0

    def test_best_write_with_single_lane(self):
        queue = FleetEventQueue()
        assert queue.best_write(link_free=0.0) is None
        queue.write.set("w", 2.0)
        assert queue.best_write(link_free=0.0) == 2.0
        queue.clear_write_lanes("w")
        assert queue.best_write(link_free=0.0) is None
        queue.book.set("k", 6.0)
        assert queue.best_write(link_free=0.0) == 6.0

    def test_tied_writes_spans_both_lanes(self):
        queue = FleetEventQueue()
        queue.write.set("w1", 2.0)
        queue.write.set("w2", 2.0)
        queue.book.set("k", 2.0)
        assert sorted(queue.tied_writes(2.0, link_free=0.0)) == [
            "k",
            "w1",
            "w2",
        ]
        # A saturating floor silences the write lane but not book.
        assert queue.tied_writes(2.0, link_free=9.0) == ["k"]

    def test_clear_write_lanes_drops_both(self):
        queue = FleetEventQueue()
        queue.write.set("j", 1.0)
        queue.book.set("j", 1.0)
        queue.clear_write_lanes("j")
        assert "j" not in queue.write
        assert "j" not in queue.book


# ----------------------------------------------------------------------
# Differential matrix: heap vs lockstep bit-identity
# ----------------------------------------------------------------------


def _cache_storage() -> StorageConfig:
    return StorageConfig(
        backend=BackendConfig(
            cache_bytes=256 * 1024, cache_policy="write_back"
        )
    )


#: (id, FleetConfig) — every named regime the heap and the reference
#: scan must agree on, across three seeds, storms, quotas and the cache
#: tier.
IDENTITY_MATRIX = [
    (
        "base-seed11",
        FleetConfig(num_jobs=5, intervals_per_job=2, seed=11),
    ),
    (
        "priority-seed23",
        FleetConfig(
            num_jobs=5,
            intervals_per_job=2,
            seed=23,
            priority_mix=0.5,
        ),
    ),
    (
        "storm-seed47",
        FleetConfig(
            num_jobs=6,
            intervals_per_job=2,
            seed=47,
            priority_mix=0.5,
            storm_domain="rack",
            rack_size=2,
        ),
    ),
    (
        "quota-admission-seed11",
        FleetConfig(
            num_jobs=5,
            intervals_per_job=2,
            seed=11,
            per_job_quota_bytes=262_144,
            admission_mode="dynamic",
        ),
    ),
    (
        "cache-tier-seed23",
        FleetConfig(
            num_jobs=5,
            intervals_per_job=2,
            seed=23,
            storage=_cache_storage(),
        ),
    ),
    (
        "hot-first-storm-seed47",
        FleetConfig(
            num_jobs=6,
            intervals_per_job=2,
            seed=47,
            priority_mix=0.5,
            storm_domain="rack",
            rack_size=2,
            restore_order="hot_first",
        ),
    ),
]


class TestDispatchBitIdentity:
    @pytest.mark.parametrize(
        "config",
        [cfg for _, cfg in IDENTITY_MATRIX],
        ids=[name for name, _ in IDENTITY_MATRIX],
    )
    def test_heap_matches_lockstep(self, config):
        heap_sched, heap_report = run_fleet(config)
        lock_sched, lock_report = run_fleet_lockstep(config)
        # Full-report equality: every counter, every per-job result,
        # every bandwidth window, the storm tuple. (Wall-clock pool
        # timings are compare=False by design.)
        assert heap_report == lock_report
        # Event-log equality, payloads included: the engines emitted
        # the same events in the same order at the same sim times.
        heap_log = [
            (e.kind, e.job_id, e.time_s, e.payload)
            for e in heap_sched.events
        ]
        lock_log = [
            (e.kind, e.job_id, e.time_s, e.payload)
            for e in lock_sched.events
        ]
        assert heap_log == lock_log

    def test_storm_config_actually_fired(self):
        """Guard the matrix's storm row against silent no-ops."""
        config = dict(IDENTITY_MATRIX)["storm-seed47"]
        _, report = run_fleet(config)
        assert report.storm is not None
        assert len(report.storm[3]) >= 2  # affected jobs

    def test_quota_config_actually_rejected(self):
        config = dict(IDENTITY_MATRIX)["quota-admission-seed11"]
        _, report = run_fleet(config)
        assert sum(j.quota_rejections for j in report.jobs) > 0

    def test_cache_config_actually_cached(self):
        config = dict(IDENTITY_MATRIX)["cache-tier-seed23"]
        _, report = run_fleet(config)
        assert report.cache_capacity_bytes > 0


class TestDispatchPlumbing:
    def test_event_budget_is_derived_and_sufficient(self):
        """The convergence bound scales with the fleet but never
        drops below the legacy floor, and real runs fit inside it."""
        config = FleetConfig(
            num_jobs=4, intervals_per_job=2, seed=11
        )
        scheduler, _ = build_fleet(config)
        assert scheduler.max_events >= MIN_EVENT_BUDGET
        scheduler.run()
        assert len(scheduler.events) < scheduler.max_events

    def test_budget_grows_with_fleet_size(self):
        small, _ = build_fleet(
            FleetConfig(num_jobs=2, intervals_per_job=1)
        )
        big, _ = build_fleet(
            FleetConfig(num_jobs=64, intervals_per_job=8)
        )
        assert big.max_events > small.max_events


class TestHotFirstStormDrain:
    """CPR-style priority restore wired into the fleet storm drain."""

    @staticmethod
    def drain_config(order: str) -> FleetConfig:
        return FleetConfig(
            num_jobs=6,
            intervals_per_job=2,
            seed=47,
            priority_mix=0.5,
            storm_domain="rack",
            rack_size=2,
            restore_order=order,
        )

    def test_hot_first_improves_time_to_first_batch(self):
        """Same storm, same restores — dense-first streaming pulls
        the fleet's time-to-first-batch below the manifest order's."""
        _, manifest_report = run_fleet(self.drain_config("manifest"))
        _, hot_report = run_fleet(self.drain_config("hot_first"))
        assert manifest_report.storm is not None
        assert hot_report.storm is not None

        def storm_ttfb(report):
            return [
                s.time_to_first_batch_s
                for job in report.jobs
                for s in job.restore_samples
                if s.cause == "storm"
            ]

        manifest_ttfb = storm_ttfb(manifest_report)
        hot_ttfb = storm_ttfb(hot_report)
        assert manifest_ttfb and len(manifest_ttfb) == len(hot_ttfb)
        # Fleet-wide improvement: better on average and never worse
        # for any individual storm victim.
        assert sum(hot_ttfb) / len(hot_ttfb) < sum(
            manifest_ttfb
        ) / len(manifest_ttfb)
        for hot, manifest in zip(
            sorted(hot_ttfb), sorted(manifest_ttfb)
        ):
            assert hot <= manifest

    def test_first_batch_never_after_the_full_restore(self):
        _, report = run_fleet(self.drain_config("hot_first"))
        for job in report.jobs:
            for sample in job.restore_samples:
                assert sample.time_to_first_batch_s <= (
                    sample.latency_s + 1e-9
                )

    def test_restored_state_is_order_independent(self):
        """The read order is a latency optimisation only: both orders
        land byte-identical training outcomes."""
        _, manifest_report = run_fleet(self.drain_config("manifest"))
        _, hot_report = run_fleet(self.drain_config("hot_first"))
        for a, b in zip(manifest_report.jobs, hot_report.jobs):
            assert a.job_id == b.job_id
            assert a.batches_trained == b.batches_trained
            assert a.restores == b.restores
            assert a.wasted_batches == b.wasted_batches
