"""Property-style tests for the shared-store bandwidth arbiter.

The fleet refactor lets many streams (jobs) share one store. Three
properties must hold no matter the workload:

* the link is a physical resource — windowed aggregate throughput can
  never exceed the configured store bandwidth;
* start-time fair queueing converges: backlogged streams split the
  link's bytes evenly;
* per-stream capacity quotas are enforced for the offending stream
  *only* — a quota-blown PUT raises before spending link time, and
  other streams keep writing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MiB, StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import CapacityExceededError, StorageError
from repro.storage.bandwidth import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    TIER_RANK,
    TIER_SERVING,
    BandwidthArbiter,
)
from repro.storage.engine import drain
from repro.storage.object_store import ObjectStore


def put(store, key, data, **tags):
    """A stream-tagged PUT drained back to back: the path a job's
    writes take."""
    return drain(store.stage_put(key, data, **tags))


def make_store(
    write_bandwidth: float = 4.0 * MiB,
    replication: int = 1,
    latency_s: float = 0.001,
) -> ObjectStore:
    return ObjectStore(
        StorageConfig(
            write_bandwidth=write_bandwidth,
            read_bandwidth=2 * write_bandwidth,
            replication_factor=replication,
            latency_s=latency_s,
        ),
        SimClock(),
        arbiter=BandwidthArbiter(),
    )


class TestAggregateThroughputCap:
    def test_windowed_bandwidth_never_exceeds_link(self):
        """Random interleaved traffic, random windows: bw <= configured."""
        store = make_store(write_bandwidth=2.0 * MiB, replication=2)
        for stream in ("jobA", "jobB", "jobC"):
            store.arbiter.register(stream)
        rng = np.random.default_rng(7)
        clock_offset = 0.0
        for i in range(60):
            stream = ("jobA", "jobB", "jobC")[int(rng.integers(3))]
            size = int(rng.integers(1, 64 * 1024))
            clock_offset += float(rng.uniform(0.0, 0.05))
            put(store, 
                f"{stream}/obj{i:03d}",
                bytes(size),
                earliest=clock_offset,
                stream=stream,
            )
        transfers = store.log.transfers("put")
        span_start = min(t.start_s for t in transfers)
        span_end = max(t.end_s for t in transfers)
        # Physical bytes move through the link; the cap is physical.
        cap = store.config.write_bandwidth * (1 + 1e-9)
        for _ in range(200):
            a = float(rng.uniform(span_start, span_end))
            b = float(rng.uniform(span_start, span_end))
            lo, hi = min(a, b), max(a, b)
            if hi - lo < 1e-6:
                continue
            assert store.log.average_bandwidth(lo, hi, "put") <= cap

    def test_serial_link_transfers_never_overlap(self):
        store = make_store()
        store.arbiter.register("jobA")
        store.arbiter.register("jobB")
        for i in range(20):
            stream = "jobA" if i % 2 == 0 else "jobB"
            put(store, f"{stream}/k{i}", bytes(10_000), stream=stream)
        transfers = sorted(
            store.log.transfers("put"), key=lambda t: t.start_s
        )
        for earlier, later in zip(transfers, transfers[1:]):
            assert later.start_s >= earlier.end_s - 1e-9


class TestFairShareConvergence:
    def _drive(
        self,
        store: ObjectStore,
        streams: list[str],
        rounds: int,
        chunk: int = 16 * 1024,
    ) -> None:
        """Backlogged streams: the arbiter picks who submits each chunk."""
        counters = dict.fromkeys(streams, 0)
        for _ in range(rounds):
            stream = store.arbiter.pick(streams)
            counters[stream] += 1
            put(store, 
                f"{stream}/chunk{counters[stream]:05d}",
                bytes(chunk),
                stream=stream,
            )

    def test_equal_streams_converge_to_equal_shares(self):
        store = make_store()
        store.arbiter.register("jobA")
        store.arbiter.register("jobB")
        self._drive(store, ["jobA", "jobB"], rounds=50)
        shares = store.log.stream_shares("put")
        assert shares["jobA"] == pytest.approx(0.5, abs=0.05)
        assert shares["jobB"] == pytest.approx(0.5, abs=0.05)
        assert store.arbiter.fairness_index("put") > 0.99

    def test_three_equal_streams_with_uneven_chunk_sizes(self):
        """Fairness is in *bytes*, not chunk counts."""
        store = make_store()
        sizes = {"jobA": 8 * 1024, "jobB": 16 * 1024, "jobC": 32 * 1024}
        for stream in sizes:
            store.arbiter.register(stream)
        counters = dict.fromkeys(sizes, 0)
        for _ in range(120):
            stream = store.arbiter.pick(list(sizes))
            counters[stream] += 1
            put(store, 
                f"{stream}/c{counters[stream]:05d}",
                bytes(sizes[stream]),
                stream=stream,
            )
        shares = store.log.stream_shares("put")
        for stream in sizes:
            assert shares[stream] == pytest.approx(1 / 3, abs=0.08)

    def test_idle_stream_reenters_at_current_virtual_time(self):
        """A long-idle stream must not burst on accumulated credit."""
        store = make_store()
        store.arbiter.register("busy")
        store.arbiter.register("idler")
        for i in range(30):
            put(store, f"busy/b{i:03d}", bytes(16 * 1024), stream="busy")
        # idler wakes: from here on it should get ~half, not a burst
        # of 30 chunks to "catch up".
        first_after_wake = [
            store.arbiter.pick(["busy", "idler"]) for _ in range(1)
        ]
        assert first_after_wake == ["idler"]  # it is behind, goes first
        taken = {"busy": 0, "idler": 0}
        for _ in range(20):
            stream = store.arbiter.pick(["busy", "idler"])
            taken[stream] += 1
            put(store, 
                f"{stream}/w{taken[stream]:03d}",
                bytes(16 * 1024),
                stream=stream,
            )
        # Strict alternation modulo one chunk: no catch-up burst.
        assert abs(taken["busy"] - taken["idler"]) <= 1


class TestQuotaEnforcement:
    def test_quota_blocks_offending_stream_only(self):
        store = make_store(replication=2)
        store.arbiter.register("greedy", quota_bytes=100_000)
        store.arbiter.register("modest", quota_bytes=10 * MiB)
        put(store, "greedy/a", bytes(20_000), stream="greedy")  # 40k phys
        with pytest.raises(CapacityExceededError) as err:
            put(store, "greedy/b", bytes(40_000), stream="greedy")
        assert "greedy" in str(err.value)
        # The failed PUT spent no link time and stored nothing.
        assert not store.exists("greedy/b")
        assert store.log.total_bytes("put", "greedy") == 40_000
        # Other streams are unaffected.
        put(store, "modest/a", bytes(40_000), stream="modest")
        assert store.exists("modest/a")

    def test_quota_charge_is_net_of_deletes(self):
        store = make_store(replication=1)
        store.arbiter.register("job", quota_bytes=100_000)
        put(store, "job/a", bytes(60_000), stream="job")
        with pytest.raises(CapacityExceededError):
            put(store, "job/b", bytes(60_000), stream="job")
        store.delete_prefix("job/a", stream="job")
        assert store.arbiter.stream("job").charged_bytes == 0
        put(store, "job/b", bytes(60_000), stream="job")  # fits now
        assert store.arbiter.stream("job").charged_bytes == 60_000

    def test_failed_put_does_not_charge(self):
        store = make_store(replication=1)
        store.arbiter.register("job", quota_bytes=50_000)
        with pytest.raises(CapacityExceededError):
            put(store, "job/huge", bytes(60_000), stream="job")
        assert store.arbiter.stream("job").charged_bytes == 0
        assert store.arbiter.stream("job").quota_rejections == 1

    def test_backend_write_failure_refunds_the_quota_charge(self):
        from repro.storage.backends import CrashingBackend, InMemoryBackend

        crashing = CrashingBackend(InMemoryBackend())
        store = ObjectStore(
            StorageConfig(replication_factor=1),
            SimClock(),
            backend=crashing,
            arbiter=BandwidthArbiter(),
        )
        store.arbiter.register("job", quota_bytes=50_000)
        crashing.arm(1)
        with pytest.raises(StorageError):
            put(store, "job/x", bytes(30_000), stream="job")
        assert store.arbiter.stream("job").charged_bytes == 0
        # The full quota is still available afterwards.
        put(store, "job/y", bytes(45_000), stream="job")
        assert store.arbiter.stream("job").charged_bytes == 45_000


class TestArbiterRegistry:
    def test_duplicate_and_invalid_registrations_rejected(self):
        arbiter = BandwidthArbiter()
        arbiter.register("job")
        with pytest.raises(StorageError):
            arbiter.register("job")
        with pytest.raises(StorageError):
            arbiter.register("")
        with pytest.raises(StorageError):
            arbiter.register("bad-quota", quota_bytes=0)
        with pytest.raises(StorageError):
            arbiter.stream("unknown")
        with pytest.raises(StorageError):
            arbiter.pick([])

    def test_untagged_transfers_bypass_arbiter(self):
        """Single-job stores keep working with no stream plumbing."""
        store = make_store()
        store.put("solo/obj", bytes(1000))
        assert store.log.transfers("put")[0].stream == ""
        assert store.arbiter.streams() == []

    def test_streams_view_tracks_late_registrations(self):
        """The cached sorted view must refresh when streams register."""
        arbiter = BandwidthArbiter()
        arbiter.register("jobB")
        assert [s.stream_id for s in arbiter.streams()] == ["jobB"]
        arbiter.register("jobA")
        assert [s.stream_id for s in arbiter.streams()] == [
            "jobA",
            "jobB",
        ]


class TestPickOrderParity:
    def test_single_pass_pick_matches_sorted_scan_reference(self):
        """The O(k) pick reproduces the historical sorted-scan order.

        The original implementation sorted the candidates and kept the
        first strictly-smaller tag within the best tier — i.e. the
        minimum under (tier rank, SFQ tag, stream id). Replay random
        contention histories and assert the linear-scan pick agrees
        with that reference on every call, regardless of candidate
        order.
        """
        rng = np.random.default_rng(123)
        arbiter = BandwidthArbiter()
        tiers = (TIER_SERVING, TIER_PROD, TIER_EXPERIMENTAL)
        ids = [f"s{i:02d}" for i in range(12)]
        for i, stream_id in enumerate(ids):
            arbiter.register(stream_id, tier=tiers[i % 3])

        def reference_pick(candidates: list[str]) -> str:
            best_rank = min(
                TIER_RANK[arbiter.stream(s).tier] for s in candidates
            )
            best = None
            best_tag = 0.0
            for stream_id in sorted(candidates):
                state = arbiter.stream(stream_id)
                if TIER_RANK[state.tier] != best_rank:
                    continue
                tag = max(
                    state.virtual_finish, arbiter._virtual_time
                )
                if best is None or tag < best_tag:
                    best, best_tag = stream_id, tag
            assert best is not None
            return best

        for _ in range(300):
            k = int(rng.integers(2, len(ids) + 1))
            candidates = [
                str(s) for s in rng.permutation(ids)[:k]
            ]
            assert arbiter.pick(candidates) == reference_pick(
                candidates
            )
            served = candidates[int(rng.integers(len(candidates)))]
            arbiter.on_transfer(
                served, int(rng.integers(1, 50_000)), "put"
            )
