"""Read-side admission, staged GETs, and storm-aware retention.

The restore path mirrors the write path: GETs are staged part by part
through the transfer engine (`StagedGet`), restores pass a read-side
admission check (prod always admits, experimental is *paced* on the
projected backlog), and storm-aware retention bounds restore chains by
forcing baseline refreshes. These tests pin:

* staged GETs drain timing-identical to plain ``get`` and feed the
  queued-read backlog signal;
* the admission controller's read side defers only experimental
  restores, only in dynamic mode, only under backlog;
* the chain bound holds for every checkpoint a bounded job writes;
* determinism: the same seeds and storm config twice yield identical
  restore receipts, deferral counts, and retention scrub order.
"""

from __future__ import annotations

import pytest

from repro.config import (
    BackendConfig,
    FailureConfig,
    FleetConfig,
    MiB,
    StorageConfig,
)
from repro.core.retention import RetentionManager
from repro.distributed.clock import SimClock
from repro.errors import CheckpointError, StorageError
from repro.experiments.common import build_experiment, small_config
from repro.fleet import TIER_EXPERIMENTAL, TIER_PROD, run_fleet
from repro.storage.bandwidth import BandwidthArbiter
from repro.storage.engine import AdmissionController
from repro.storage.object_store import ObjectStore
from repro.storage.requests import OP_GET


def ranged_store() -> ObjectStore:
    """An s3like store whose larger GETs split into ranged parts."""
    config = StorageConfig(
        backend=BackendConfig(
            kind="s3like",
            range_get_bytes=1024,
            multipart_fanout=2,
        )
    )
    return ObjectStore(config, SimClock())


class TestStagedGet:
    def test_staged_drain_matches_plain_get(self):
        """Stage + drain must be bit-identical to ``get`` — data,
        receipt timing, parts and transfer log alike."""
        payload = bytes(range(256)) * 20  # 5120 B -> 5 ranged parts
        plain, staged_store = ranged_store(), ranged_store()
        for store in (plain, staged_store):
            store.put("job0/a", payload)
        data_plain = plain.get("job0/a")
        staged = staged_store.stage_get("job0/a")
        assert staged.num_parts == 5
        while not staged.done:
            staged.submit_next()
        assert staged.data() == data_plain == payload
        plain_receipt = plain.ops.receipts(OP_GET)[-1]
        staged_receipt = staged_store.ops.receipts(OP_GET)[-1]
        assert staged_receipt == plain_receipt
        assert [
            (t.key, t.start_s, t.end_s)
            for t in plain.log.transfers("get")
        ] == [
            (t.key, t.start_s, t.end_s)
            for t in staged_store.log.transfers("get")
        ]

    def test_announced_parts_feed_the_read_backlog(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 4096)
        assert store.engine.queued_bytes(OP_GET) == 0
        staged = store.stage_get("job0/a")
        assert store.engine.queued_bytes(OP_GET) == 4096
        staged.submit_next()
        assert store.engine.queued_bytes(OP_GET) == 4096 - 1024
        while not staged.done:
            staged.submit_next()
        assert store.engine.queued_bytes(OP_GET) == 0

    def test_projected_restore_delay_includes_read_backlog(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 4096)
        base = store.engine.projected_restore_delay_s(store.clock.now)
        staged = store.stage_get("job0/a")
        spb = store.costs.for_op(OP_GET).seconds_per_byte
        assert store.engine.projected_restore_delay_s(
            store.clock.now
        ) == pytest.approx(base + 4096 * spb)
        staged.abort()
        assert store.engine.projected_restore_delay_s(
            store.clock.now
        ) == pytest.approx(base)

    def test_aborted_staged_get_rejects_submission(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 2048)
        staged = store.stage_get("job0/a")
        staged.abort()
        with pytest.raises(StorageError):
            staged.submit_next()

    def test_data_before_done_rejected(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 2048)
        staged = store.stage_get("job0/a")
        with pytest.raises(StorageError):
            staged.data()


class TestReadAdmission:
    def controller(self, store: ObjectStore, **kwargs) -> AdmissionController:
        return AdmissionController(store.engine, **kwargs)

    def test_none_mode_always_admits(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 4096)
        store.stage_get("job0/a")  # backlog present
        control = self.controller(store, read_mode="none")
        decision = control.decide_get(
            tier=TIER_EXPERIMENTAL,
            now=store.clock.now,
            interval_s=1e-9,
        )
        assert decision.admitted

    def test_dynamic_mode_defers_experimental_under_backlog(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 65536)
        store.stage_get("job0/a")
        control = self.controller(store, read_mode="dynamic")
        decision = control.decide_get(
            tier=TIER_EXPERIMENTAL,
            now=store.clock.now,
            interval_s=1e-9,
        )
        assert not decision.admitted
        assert decision.reason == "read_backlog"
        assert decision.threshold_s is not None
        assert decision.projected_delay_s > decision.threshold_s

    def test_prod_restores_always_admit(self):
        store = ranged_store()
        store.put("job0/a", b"x" * 65536)
        store.stage_get("job0/a")
        control = self.controller(store, read_mode="dynamic")
        decision = control.decide_get(
            tier=TIER_PROD,
            now=store.clock.now,
            interval_s=1e-9,
        )
        assert decision.admitted
        assert (decision.reason, decision.threshold_s) == ("admitted", None)

    def test_unmeasured_interval_admits(self):
        """A job crashing before its second trigger has no interval to
        scale the threshold by — it must not be deferred forever."""
        store = ranged_store()
        store.put("job0/a", b"x" * 65536)
        store.stage_get("job0/a")
        control = self.controller(store, read_mode="dynamic")
        decision = control.decide_get(
            tier=TIER_EXPERIMENTAL,
            now=store.clock.now,
            interval_s=None,
        )
        assert decision.admitted

    def test_unknown_read_mode_rejected(self):
        store = ranged_store()
        with pytest.raises(StorageError):
            self.controller(store, read_mode="static")

    def test_bad_read_backlog_factor_rejected(self):
        store = ranged_store()
        with pytest.raises(StorageError):
            self.controller(
                store, read_mode="dynamic", read_backlog_factor=0.0
            )


class TestStormAwareRetention:
    def test_chain_bound_forces_baseline_refreshes(self):
        """A consecutive-policy job with max_chain_length=2 never lets
        any checkpoint's restore chain exceed 2 links."""
        exp = build_experiment(
            small_config(policy="consecutive", interval_batches=4)
        )
        exp.controller.retention.max_chain_length = 2
        exp.controller.run_intervals(6)
        controller = exp.controller
        assert controller.stats.baseline_refreshes > 0
        for manifest in controller.manifests.values():
            chain = controller.policy.restore_chain(
                manifest, controller.manifests
            )
            assert len(chain) <= 2

    def test_unbounded_consecutive_chain_grows(self):
        exp = build_experiment(
            small_config(policy="consecutive", interval_batches=4)
        )
        exp.controller.run_intervals(6)
        controller = exp.controller
        assert controller.stats.baseline_refreshes == 0
        longest = max(
            len(
                controller.policy.restore_chain(
                    m, controller.manifests
                )
            )
            for m in controller.manifests.values()
        )
        assert longest > 2

    def test_bound_is_prospective_not_policy_blind(self):
        """A one-shot job's increments always chain directly on the
        baseline (chain length 2 regardless of history), so a bound of
        2 must never force refreshes — the bound only bites policies
        whose chains actually grow. Guards against write amplification
        from a policy-blind `len(chain) >= bound` test."""
        exp = build_experiment(
            small_config(policy="one_shot", interval_batches=4)
        )
        exp.controller.retention.max_chain_length = 2
        exp.controller.run_intervals(6)
        assert exp.controller.stats.baseline_refreshes == 0
        kinds = [
            e.manifest.kind
            for e in exp.controller.stats.events
            if e.manifest is not None
        ]
        assert kinds[0] == "full"
        assert all(kind == "incremental" for kind in kinds[1:])

    def test_bound_of_one_forces_every_checkpoint_full(self):
        exp = build_experiment(
            small_config(policy="one_shot", interval_batches=4)
        )
        exp.controller.retention.max_chain_length = 1
        exp.controller.run_intervals(4)
        assert exp.controller.stats.baseline_refreshes > 0
        for manifest in exp.controller.manifests.values():
            assert manifest.kind == "full"

    def test_retention_manager_validates_bound(self):
        store = ranged_store()
        with pytest.raises(CheckpointError):
            RetentionManager(store, keep_last=2, max_chain_length=0)


def storm_fleet_config(**overrides) -> FleetConfig:
    """A small tiered fleet facing a rack storm with paced restores."""
    defaults = dict(
        num_jobs=8,
        intervals_per_job=6,
        seed=0xC4A1,
        rows_per_table_choices=(2048,),
        num_tables_choices=(2,),
        interval_batches_choices=(24,),
        policy_choices=("consecutive",),
        policy_weights=(1.0,),
        quantizer_choices=("float16",),
        bit_width_choices=(8,),
        keep_last=2,
        stagger_s=5.0,
        storage=StorageConfig(
            write_bandwidth=1.5 * MiB,
            read_bandwidth=3.0 * MiB,
            replication_factor=2,
            latency_s=0.002,
        ),
        failures=FailureConfig(min_failure_s=0.0),
        inject_failures=False,
        priority_mix=0.375,
        storm_domain="rack",
        rack_size=4,
        storm_at_fraction=0.6,
        preempt_staged_writes=False,
        restore_admission="dynamic",
        restore_backlog_factor=0.05,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestFleetReadSide:
    @pytest.fixture(scope="class")
    def storm_run(self):
        return run_fleet(storm_fleet_config())

    def test_only_experimental_restores_are_paced(self, storm_run):
        scheduler, report = storm_run
        assert report.storm is not None
        tiers = {j.job_id: j.tier for j in report.jobs}
        deferred = [
            e for e in scheduler.events if e.kind == "restore_deferred"
        ]
        assert deferred, "no restore was paced under the storm backlog"
        for event in deferred:
            assert tiers[event.job_id] == TIER_EXPERIMENTAL
            assert event.payload["paced_wait_s"] > 0
        assert all(
            j.restore_deferred == 0
            for j in report.jobs
            if j.tier == TIER_PROD
        )
        assert report.restore_deferrals == len(deferred)

    def test_pacing_shows_up_as_restore_latency(self, storm_run):
        """A paced restore's measured latency covers the waited-out
        backlog: latency is crash-to-last-byte, and the wait is part
        of it — admission pacing is queueing, not a free pass."""
        scheduler, report = storm_run
        waits = {
            e.job_id: e.payload["paced_wait_s"]
            for e in scheduler.events
            if e.kind == "restore_deferred"
        }
        for job in report.jobs:
            if job.job_id not in waits:
                continue
            storm_samples = [
                s for s in job.restore_samples if s.cause == "storm"
            ]
            assert storm_samples
            assert storm_samples[0].latency_s >= waits[job.job_id]

    def test_same_seed_same_restore_receipts_and_scrub_order(self):
        """Determinism: restore receipts, deferral counts, and the
        retention scrub order are identical across identical runs."""
        first_sched, first = run_fleet(storm_fleet_config())
        second_sched, second = run_fleet(storm_fleet_config())
        assert first == second

        def get_receipts(sched):
            return [
                (r.key, r.start_s, r.completed_s, r.parts, r.retries)
                for r in sched.store.ops.receipts(OP_GET)
            ]

        assert get_receipts(first_sched) == get_receipts(second_sched)
        for a, b in zip(first_sched.jobs, second_sched.jobs):
            assert a.restore_deferred == b.restore_deferred
            assert (
                a.controller.stats.retention_deleted
                == b.controller.stats.retention_deleted
            )
            assert a.restore_samples == b.restore_samples

    def test_storm_aware_variant_is_deterministic_too(self):
        config = storm_fleet_config(
            retention_mode="storm_aware", storm_chain_limit=2
        )
        _, first = run_fleet(config)
        _, second = run_fleet(config)
        assert first == second
        assert first.baseline_refreshes > 0

    def test_storm_aware_retention_requires_a_storm(self):
        with pytest.raises(Exception):
            FleetConfig(retention_mode="storm_aware")


class TestAdaptiveChainLimit:
    """Per-job storm chain bound from read-cost vs refresh-cost."""

    def test_optimum_balances_refresh_writes_and_storm_reads(self):
        """L* = sqrt(baseline / (w * delta)): doubling the baseline
        stretches chains, heavier deltas or costlier reads shorten
        them."""
        from repro.fleet.jobs import adaptive_chain_limit

        base = adaptive_chain_limit(
            baseline_bytes=1 << 24, interval_delta_bytes=1 << 20
        )
        bigger_baseline = adaptive_chain_limit(
            baseline_bytes=1 << 26, interval_delta_bytes=1 << 20
        )
        heavier_delta = adaptive_chain_limit(
            baseline_bytes=1 << 24, interval_delta_bytes=1 << 23
        )
        costlier_reads = adaptive_chain_limit(
            baseline_bytes=1 << 24,
            interval_delta_bytes=1 << 20,
            storm_read_weight=4.0,
        )
        assert bigger_baseline >= base
        assert heavier_delta <= base
        assert costlier_reads <= base
        # sqrt(2^24 / 2^20) = 4: the closed form lands exactly.
        assert base == 4

    def test_clamps_to_floor_and_cap(self):
        from repro.fleet.jobs import adaptive_chain_limit

        assert (
            adaptive_chain_limit(
                baseline_bytes=1, interval_delta_bytes=1 << 30
            )
            == 1
        )
        assert (
            adaptive_chain_limit(
                baseline_bytes=1 << 40, interval_delta_bytes=1
            )
            == 8
        )
        assert (
            adaptive_chain_limit(
                baseline_bytes=0, interval_delta_bytes=100
            )
            == 1
        )

    def test_spec_chain_limit_wiring(self):
        """Adaptive mode derives per-spec limits; fixed mode passes
        the config knob through; chain_depth mode stays unbounded."""
        from repro.fleet.jobs import (
            sample_fleet_specs,
            spec_baseline_bytes,
            spec_chain_limit,
        )

        fixed = storm_fleet_config(
            retention_mode="storm_aware", storm_chain_limit=3
        )
        adaptive = storm_fleet_config(
            retention_mode="storm_aware",
            storm_chain_adaptive=True,
            # Heterogeneous sizes so the derived limits can differ.
            rows_per_table_choices=(512, 2048, 8192),
            num_tables_choices=(1, 4),
        )
        plain = storm_fleet_config()
        spec = sample_fleet_specs(fixed)[0]
        assert spec_chain_limit(spec, fixed) == 3
        assert spec_chain_limit(spec, plain) is None
        limits = {
            s.job_id: spec_chain_limit(s, adaptive)
            for s in sample_fleet_specs(adaptive)
        }
        assert all(1 <= limit <= 8 for limit in limits.values())
        # Bigger models (costlier baseline refreshes) tolerate longer
        # chains than small ones under the same storm-read weight.
        by_size = sorted(
            sample_fleet_specs(adaptive),
            key=lambda s: spec_baseline_bytes(s, adaptive),
        )
        assert limits[by_size[0].job_id] <= limits[by_size[-1].job_id]

    def test_adaptive_fleet_honours_derived_bounds(self):
        """End to end: every bounded job's restore chain fits its own
        derived limit, and the knob stays deterministic."""
        from repro.fleet.jobs import sample_fleet_specs, spec_chain_limit

        config = storm_fleet_config(
            retention_mode="storm_aware", storm_chain_adaptive=True
        )
        limits = {
            s.job_id: spec_chain_limit(s, config)
            for s in sample_fleet_specs(config)
        }
        scheduler, first = run_fleet(config)
        for job in scheduler.jobs:
            limit = limits[job.job_id]
            assert limit is not None
            for manifest in job.controller.valid_manifests():
                chain = job.controller.policy.restore_chain(
                    manifest, job.controller.manifests
                )
                assert len(chain) <= limit
        _, second = run_fleet(config)
        assert first == second

    def test_adaptive_requires_storm_aware_retention(self):
        with pytest.raises(Exception):
            FleetConfig(storm_chain_adaptive=True)
