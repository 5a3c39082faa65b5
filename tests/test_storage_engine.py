"""The part-granular transfer engine: staging, retries, admission.

Covers the :class:`~repro.storage.engine.TransferEngine` surface the
write path migrated onto:

* staged PUTs submit individual multipart parts, timing-identical to
  the immediate-drain ``put()`` when uninterrupted;
* aborting a staged write mid-part leaves no visible object, no
  orphaned parts, and credits the stream's quota back;
* the retry/backoff loop re-issues seeded transient failures, charges
  the wasted latency in simulated time, and populates
  ``OpReceipt.retries`` — deterministically under the failure seed;
* the worker pool accounts measured busy/blocked time so wall-time
  overlap is observable;
* the admission controller's three modes (none / static cap /
  backlog-driven dynamic) and the projected-queue-delay signal.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.config import BackendConfig, StorageConfig
from repro.core.writer import CheckpointWriter
from repro.distributed.clock import SimClock
from repro.errors import (
    ObjectExistsError,
    RetriesExhaustedError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    AdmissionController,
    BandwidthArbiter,
    ObjectStore,
    RemoteObjectBackend,
    projected_queue_delay_s,
    s3like_costs,
)
from repro.storage.bandwidth import TIER_EXPERIMENTAL, TIER_PROD
from repro.storage.engine import drain

import backend_ops as ops


def remote_store(
    part_size=1000,
    fanout=2,
    failure_probs=None,
    failure_seed=7,
    arbiter=None,
    max_retries=5,
    replication=1,
    range_get=None,
    jitter_s=0.0,
    tail_prob=0.0,
):
    """1000 B/s writes, 2000 B/s reads, 0.1 s PUT / 0.05 s GET latency."""
    config = StorageConfig(
        write_bandwidth=1000.0,
        read_bandwidth=2000.0,
        replication_factor=replication,
        latency_s=0.0,
        max_retries=max_retries,
        retry_backoff_s=0.02,
    )
    backend = RemoteObjectBackend(
        s3like_costs(
            1000.0,
            2000.0,
            put_latency_s=0.1,
            get_latency_s=0.05,
            list_latency_s=0.02,
            delete_latency_s=0.01,
            head_latency_s=0.005,
            jitter_s=jitter_s,
            tail_prob=tail_prob,
        ),
        part_size_bytes=part_size,
        fanout=fanout,
        range_get_bytes=range_get,
        failure_probs=failure_probs,
        failure_seed=failure_seed,
    )
    return ObjectStore(config, SimClock(), backend=backend, arbiter=arbiter)


class TestStagedPut:
    def test_single_shot_staging_matches_put(self):
        """A staged single-shot write drains to the exact receipt an
        immediate put() produces on an identical store."""
        direct = remote_store(part_size=None).put("k", bytes(500))
        store = remote_store(part_size=None)
        staged = store.stage_put("k", bytes(500))
        assert staged.num_parts == 1
        receipt = staged.submit_next()
        assert receipt is not None and staged.done
        assert receipt == direct
        deferred = remote_store(part_size=None).stage_put(
            "k", bytes(500), earliest=2.0
        )
        assert deferred.next_ready_s == pytest.approx(2.0)

    def test_multipart_staging_matches_put(self):
        payload = bytes(range(256)) * 16  # 4096 B -> 5 parts of <=1000
        direct = remote_store().put("k", payload)
        store = remote_store()
        staged = store.stage_put("k", payload)
        assert staged.num_parts == 5
        submissions = 0
        receipt = None
        while receipt is None:
            assert staged.next_part_number == submissions + 1
            receipt = staged.submit_next()
            submissions += 1
        assert submissions == 5
        assert receipt == direct
        assert receipt.parts == 5
        assert store.get("k") == payload
        assert store.object_size("k") == len(payload)

    def test_queued_bytes_drain_part_by_part(self):
        store = remote_store(replication=2)
        staged = store.stage_put("k", bytes(3000))
        engine = store.engine
        assert engine.queued_bytes(OP_PUT) == 6000
        staged.submit_next()
        assert engine.queued_bytes(OP_PUT) == 4000
        staged.submit_next()
        assert engine.queued_bytes(OP_PUT) == 2000
        assert staged.submit_next() is not None
        assert engine.queued_bytes(OP_PUT) == 0
        assert engine.staged() == []

    def test_overwrite_rules_checked_at_stage_time(self):
        store = remote_store()
        store.put("k", bytes(10))
        with pytest.raises(ObjectExistsError):
            store.stage_put("k", bytes(10))
        assert store.engine.staged() == []

    def test_abort_mid_upload_leaves_nothing_visible(self):
        arbiter = BandwidthArbiter()
        arbiter.register("job", quota_bytes=100_000)
        store = remote_store(arbiter=arbiter)
        staged = store.stage_put("job/k", bytes(4000), stream="job")
        assert arbiter.stream("job").charged_bytes == 4000
        staged.submit_next()
        staged.submit_next()  # two parts on the link, upload open
        assert store.backend.pending_uploads()
        staged.abort()
        assert staged.aborted
        # No visible object, no orphaned parts, quota credited back.
        assert not ops.exists(store.backend, "job/k")
        assert store.backend.pending_uploads() == []
        assert store.backend.multipart_aborted == 1
        assert arbiter.stream("job").charged_bytes == 0
        assert store.engine.queued_bytes(OP_PUT) == 0
        with pytest.raises(StorageError):
            store.object_size("job/k")
        # Submitting after abort is an error; aborting twice is not.
        staged.abort()
        with pytest.raises(StorageError, match="aborted"):
            staged.submit_next()

    def test_interleaved_staged_writes_share_the_link_per_part(self):
        """Two staged writes alternating submissions produce transfers
        that alternate on the serial link — part granularity."""
        store = remote_store(fanout=1)
        a = store.stage_put("a", bytes(3000), stream="jobA")
        b = store.stage_put("b", bytes(3000), stream="jobB")
        done_a = done_b = None
        while done_a is None or done_b is None:
            if done_a is None:
                done_a = a.submit_next()
            if done_b is None:
                done_b = b.submit_next()
        puts = store.log.transfers("put")
        streams = [t.stream for t in puts]
        # Strict alternation: A part, B part, A part, ...
        assert streams == ["jobA", "jobB"] * 3
        # The link never served two transfers at once.
        for first, second in zip(puts, puts[1:]):
            assert second.start_s >= first.end_s - 1e-9


#: Receipts and transfer-log rows of :func:`staged_timing_case`,
#: recorded at the commit before StagedPut/StagedGet shared a base.
#: Regenerate (only for a deliberate timing change) with
#: ``json.dump({case_id(*c): staged_timing_case(*c) for c in CASES}, f)``.
GOLDEN_TIMING = Path(__file__).with_name("golden_staged_timing.json")

CASES = list(
    itertools.product((False, True), (1, 4), (False, True), (False, True))
)


def case_id(multipart, fanout, failures, interleaved):
    return "-".join(
        (
            "multipart" if multipart else "single",
            f"fanout{fanout}",
            "failures" if failures else "clean",
            "interleaved" if interleaved else "alone",
        )
    )


def staged_timing_case(multipart, fanout, failures, interleaved):
    """One PUT and one GET of 4500 B on a shared link, as JSON rows.

    ``multipart`` splits both into five 1000 B parts (one more than the
    widest fanout, so a lane is reused); ``failures`` adds seeded
    transient PUT/GET failures plus latency jitter and tail draws;
    ``interleaved`` alternates the two streams part by part instead of
    draining the PUT, then the GET.
    """
    arbiter = BandwidthArbiter()
    arbiter.register("w")
    arbiter.register("r")
    store = remote_store(
        part_size=1000 if multipart else None,
        range_get=1000 if multipart else None,
        fanout=fanout,
        failure_probs={OP_PUT: 0.3, OP_GET: 0.3} if failures else None,
        failure_seed=31,
        jitter_s=0.004 if failures else 0.0,
        tail_prob=0.2 if failures else 0.0,
        arbiter=arbiter,
    )
    payload = bytes(range(250)) * 18
    drain(store.stage_put("src", payload, stream="w"))
    put = store.stage_put("dst", payload, earliest=6.0, stream="w")
    get = store.stage_get("src", earliest=6.5, stream="r")
    if interleaved:
        while not (put.done and get.done):
            for staged in (put, get):
                if not staged.done:
                    staged.submit_next()
    else:
        for staged in (put, get):
            while not staged.done:
                staged.submit_next()
    assert get.data() == payload and store.get("dst") == payload

    def receipt_row(r):
        return [
            r.issued_s, r.start_s, r.first_byte_s, r.completed_s,
            r.parts, r.retries,
        ]

    return {
        "put": receipt_row(put.receipt),
        "get": receipt_row(get.receipt),
        "log": [
            [t.key, t.nbytes, t.start_s, t.end_s, t.kind, t.stream]
            for t in store.log.transfers()
        ],
    }


class TestGoldenStagedTiming:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_TIMING.read_text())

    @pytest.mark.parametrize(
        "case", CASES, ids=[case_id(*case) for case in CASES]
    )
    def test_receipts_and_log_rows_match_recorded_values(
        self, case, golden
    ):
        """Both directions, alone and sharing one link part by part,
        reproduce the recorded simulated times bit for bit."""
        assert staged_timing_case(*case) == golden[case_id(*case)]

    def test_matrix_exercises_retries_and_lane_reuse(self, golden):
        failing = [v for k, v in golden.items() if "failures" in k]
        assert all(v["put"][5] + v["get"][5] > 0 for v in failing)
        assert any(v["put"][5] and v["get"][5] for v in failing)
        assert golden["multipart-fanout4-clean-alone"]["put"][4] == 5


class TestRetryLoop:
    def test_transient_failures_populate_receipt_retries(self):
        probs = {OP_PUT: 0.3, OP_GET: 0.3}
        store = remote_store(failure_probs=probs, failure_seed=11)
        for i in range(6):
            store.put(f"k{i}", bytes(2500))
        for i in range(6):
            store.get(f"k{i}")
        assert store.ops.total_retries(OP_PUT) >= 1
        assert store.ops.total_retries(OP_GET) >= 1
        assert store.ops.retry_amplification() > 1.0
        assert store.backend.failures_injected[OP_PUT] == (
            store.engine.retries_by_op[OP_PUT]
        )

    def test_retry_penalty_charged_in_simulated_time(self):
        """A retried PUT pays the wasted attempt latency plus backoff
        on top of the clean duration."""
        clean = remote_store(part_size=None).put("k", bytes(100))

        class FailOnce(RemoteObjectBackend):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.fail_next = 1

            def put_object(self, request, data):
                if self.fail_next:
                    self.fail_next -= 1
                    raise TransientStorageError("throttled")
                super().put_object(request, data)

        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=1,
            latency_s=0.0,
            retry_backoff_s=0.02,
        )
        backend = FailOnce(
            s3like_costs(1000.0, 2000.0, put_latency_s=0.1),
            part_size_bytes=None,
        )
        store = ObjectStore(config, SimClock(), backend=backend)
        receipt = store.put("k", bytes(100))
        assert receipt.retries == 1
        # One wasted attempt latency (0.1 s) + first backoff (0.02 s).
        assert receipt.duration_s == pytest.approx(
            clean.duration_s + 0.1 + 0.02
        )

    def test_exhausted_retries_become_permanent_and_abort(self):
        store = remote_store(
            failure_probs={OP_PUT: 1.0}, max_retries=3
        )
        with pytest.raises(RetriesExhaustedError):
            store.put("k", bytes(4000))
        # The multipart upload was aborted: nothing visible, no parts.
        assert store.backend.pending_uploads() == []
        assert not ops.exists(store.backend, "k")
        # 1 first attempt + 3 retries of part 1 (the probe HEAD is not
        # failure-injected here).
        assert store.backend.failures_injected[OP_PUT] == 4

    def test_control_plane_ops_retry_too(self):
        probs = {OP_LIST: 0.4, OP_DELETE: 0.4, OP_HEAD: 0.4}
        store = remote_store(failure_probs=probs, failure_seed=5)
        for i in range(5):
            store.put(f"p/k{i}", bytes(10))
        for i in range(5):
            store.exists(f"p/k{i}")
            store.list_keys("p/")
        for i in range(5):
            store.delete(f"p/k{i}")
        total = (
            store.ops.total_retries(OP_LIST)
            + store.ops.total_retries(OP_DELETE)
            + store.ops.total_retries(OP_HEAD)
        )
        assert total >= 3
        # Retried control requests cost more than their base latency.
        retried = [
            r
            for r in store.ops.receipts(OP_DELETE)
            if r.retries > 0
        ]
        assert retried
        for r in retried:
            assert r.duration_s > 0.01  # base DELETE latency

    def test_deterministic_under_failure_seed(self):
        def run():
            store = remote_store(
                failure_probs={OP_PUT: 0.25, OP_GET: 0.25},
                failure_seed=23,
            )
            for i in range(5):
                store.put(f"k{i}", bytes(2500))
            for i in range(5):
                store.get(f"k{i}")
            return [
                (r.op, r.key, r.retries, r.completed_s)
                for r in store.ops.receipts()
            ]

        assert run() == run()

    def test_no_injection_means_no_retries(self):
        store = remote_store()
        store.put("k", bytes(2500))
        store.get("k")
        store.delete("k")
        assert store.ops.total_retries() == 0
        assert store.ops.retry_amplification() == 1.0

    @pytest.mark.parametrize("op", [OP_HEAD, OP_GET, OP_LIST, OP_PUT])
    def test_untimed_probe_retries_under_its_own_op_class(self, op):
        """``retry_probe`` builds the request from the op class, so the
        class that fails is the class the retries are booked under —
        and the probe costs no link time, no receipt, no jitter draw."""
        store = remote_store(jitter_s=0.01, part_size=None, failure_seed=2)
        store.put("p/k", b"data")
        backend = store.backend
        # Armed only now, so the failure RNG is still at its seed:
        # 2 draws 0.26, 0.30, 0.81 — fail, fail, succeed at p = 0.5.
        backend.failure_probs[op] = 0.5
        before = (
            store.timeline.free_at,
            len(store.ops.receipts()),
            backend.rng.bit_generator.state,
        )
        got = store.engine.retry_probe(
            op, "p/" if op == OP_LIST else "p/k", b"new"
        )
        assert got == {
            OP_HEAD: True, OP_GET: b"data", OP_LIST: ["p/k"], OP_PUT: None
        }[op]
        assert store.engine.retries_by_op == {op: 2}
        assert backend.failures_injected == {op: 2}
        assert before == (
            store.timeline.free_at,
            len(store.ops.receipts()),
            backend.rng.bit_generator.state,
        )
        if op == OP_PUT:
            assert ops.read(backend, "p/k") == b"new"

    def test_untimed_probe_rejects_unprobed_op_class(self):
        with pytest.raises(StorageError, match="probe"):
            remote_store().engine.retry_probe(OP_DELETE, "k")


class TestPartSplitRule:
    """The multipart / ranged split rule exists once
    (``engine.split_parts``): the part count the writer announces
    before it stages a PUT is the count the staged transfer plans."""

    PART = 1000

    @pytest.mark.parametrize(
        "size, parts",
        [(0, 1), (PART - 1, 1), (PART, 1), (PART + 1, 2), (3 * PART + 5, 4)],
    )
    def test_writer_announces_what_the_transfer_stages(
        self, size, parts, monkeypatch
    ):
        store = remote_store(part_size=self.PART, range_get=self.PART)
        staged = []
        stage_put = store.stage_put

        def recording(*args, **kwargs):
            staged.append(stage_put(*args, **kwargs))
            return staged[-1]

        monkeypatch.setattr(store, "stage_put", recording)
        steps = CheckpointWriter(store, store.clock)._staged_write(
            "chunk", "k", bytes(size), 0.0, None
        )
        announced = next(steps)
        drain(steps)
        assert announced.num_parts == staged[0].num_parts == parts
        assert store.stage_get("k").num_parts == parts


class TestWorkerPool:
    def test_overlap_accounting_with_concurrent_tasks(self):
        store = remote_store()
        engine = store.engine
        barrier = threading.Barrier(2, timeout=5.0)

        def task():
            barrier.wait()  # both tasks provably in flight at once
            time.sleep(0.05)
            return 42

        first = engine.submit_task(task)
        second = engine.submit_task(task)
        assert first.result() == 42
        assert second.result() == 42
        assert engine.pool_tasks == 2
        # Both tasks ran concurrently: ~0.1 s of busy time passed in
        # ~0.05 s of caller blocking, so overlap is visible.
        assert engine.pool_busy_s >= 0.08
        assert engine.pool_overlap_s > 0.0

    def test_blocked_time_counts_against_overlap(self):
        store = remote_store()
        engine = store.engine
        task = engine.submit_task(lambda: time.sleep(0.02))
        task.result()  # immediate join: fully blocked, no overlap
        assert engine.pool_busy_s >= 0.015
        assert engine.pool_wait_s > 0.0


    def test_inline_task_is_booked_as_fully_waited(self):
        engine = remote_store().engine
        caller = threading.get_ident()
        ran_on = engine.run_task(
            lambda nap: time.sleep(nap) or threading.get_ident(), 0.02
        )
        assert ran_on == caller
        assert engine.pool_tasks == 1
        assert engine.pool_busy_s >= 0.015
        assert engine.pool_wait_s == engine.pool_busy_s
        assert engine.pool_overlap_s == 0.0

    def test_inline_task_failure_is_still_booked(self):
        engine = remote_store().engine
        with pytest.raises(ZeroDivisionError):
            engine.run_task(lambda: 1 // 0)
        assert engine.pool_tasks == 1
        assert engine.pool_wait_s == engine.pool_busy_s > 0.0


class TestBacklogSignal:
    def test_projected_queue_delay_math(self):
        assert projected_queue_delay_s(5.0, 2.0) == pytest.approx(3.0)
        assert projected_queue_delay_s(1.0, 2.0) == 0.0
        assert projected_queue_delay_s(
            5.0, 2.0, queued_bytes=1000, seconds_per_byte=0.001
        ) == pytest.approx(4.0)
        with pytest.raises(StorageError):
            projected_queue_delay_s(0.0, 0.0, queued_bytes=-1)

    def test_engine_projection_includes_staged_parts(self):
        store = remote_store()
        engine = store.engine
        assert engine.projected_queue_delay_s(0.0) == 0.0
        staged = store.stage_put("k", bytes(3000))
        # 3000 B at 1000 B/s of announced parts = 3 s of backlog.
        assert engine.projected_queue_delay_s(0.0) == pytest.approx(3.0)
        staged.submit_next()
        # One part moved from queue to link occupancy; the projection
        # still sees it (timeline.free_at) plus the two queued parts.
        assert engine.projected_queue_delay_s(0.0) >= 3.0
        while staged.submit_next() is None:
            pass
        # Everything on the link now; backlog is pure occupancy.
        assert engine.projected_queue_delay_s(0.0) == pytest.approx(
            store.timeline.free_at
        )


class TestAdmissionController:
    def make(self, mode, **kwargs):
        store = remote_store()
        return store, AdmissionController(store.engine, mode, **kwargs)

    def test_mode_validation(self):
        store = remote_store()
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "clever")
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "static")  # needs a cap
        with pytest.raises(StorageError):
            AdmissionController(store.engine, "none", backlog_factor=0)

    def test_none_mode_admits_everything(self):
        _, ctrl = self.make("none")
        decision = ctrl.decide(
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=0.001,
            active_writes=99,
        )
        assert decision.admitted
        assert decision.reason == "admitted"
        assert decision.threshold_s is None

    def test_static_mode_is_the_legacy_cap(self):
        _, ctrl = self.make("static", max_concurrent=2)
        ok = ctrl.decide(tier=TIER_PROD, now=0.0, active_writes=1)
        assert ok.admitted
        deferred = ctrl.decide(tier=TIER_PROD, now=0.0, active_writes=2)
        assert not deferred.admitted
        assert deferred.reason == "static_cap"
        assert deferred.threshold_s is None
        # The static cap is tier-blind, exactly like the old fixed cap:
        # the prod trigger above and an experimental one defer alike.
        experimental = ctrl.decide(
            tier=TIER_EXPERIMENTAL, now=0.0, active_writes=2
        )
        assert (experimental.admitted, experimental.reason) == (
            False,
            "static_cap",
        )

    def test_dynamic_mode_defers_experimental_on_backlog(self):
        store, ctrl = self.make("dynamic")
        store.stage_put("k", bytes(5000))  # 5 s of queued backlog
        deferred = ctrl.decide(
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=2.0,
        )
        assert not deferred.admitted
        assert deferred.reason == "backlog"
        assert deferred.projected_delay_s == pytest.approx(5.0)
        assert deferred.threshold_s == pytest.approx(2.0)
        # Prod is always admitted, backlog regardless.
        prod = ctrl.decide(tier=TIER_PROD, now=0.0, interval_s=2.0)
        assert prod.admitted
        # A first trigger (no measured interval yet) is admitted.
        first = ctrl.decide(tier=TIER_EXPERIMENTAL, now=0.0)
        assert first.admitted
        # Below threshold: admitted.
        ok = ctrl.decide(
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=6.0,
        )
        assert ok.admitted
        assert (ok.reason, ok.threshold_s) == ("admitted", None)

    def test_backlog_factor_scales_the_threshold(self):
        store, ctrl = self.make("dynamic", backlog_factor=3.0)
        store.stage_put("k", bytes(5000))
        ok = ctrl.decide(
            tier=TIER_EXPERIMENTAL,
            now=0.0,
            interval_s=2.0,  # threshold 6 s > 5 s backlog
        )
        assert ok.admitted


class TestFailureInjectionConfig:
    def test_backend_config_failure_probs(self):
        config = BackendConfig(
            kind="s3like",
            put_failure_prob=0.1,
            get_failure_prob=0.2,
        )
        assert config.failure_probs == {"PUT": 0.1, "GET": 0.2}
        with pytest.raises(Exception):
            BackendConfig(kind="s3like", put_failure_prob=1.5)

    def test_factory_wires_failure_injection(self):
        from repro.storage import make_backend

        backend = make_backend(
            BackendConfig(
                kind="s3like",
                put_failure_prob=0.5,
                failure_seed=9,
            ),
            StorageConfig(),
        )
        assert backend.failure_probs == {"PUT": 0.5}

    def test_backend_rejects_bad_probs(self):
        with pytest.raises(StorageError):
            RemoteObjectBackend(
                s3like_costs(1000.0, 2000.0),
                failure_probs={"POKE": 0.1},
            )
        with pytest.raises(StorageError):
            RemoteObjectBackend(
                s3like_costs(1000.0, 2000.0),
                failure_probs={"PUT": 2.0},
            )
