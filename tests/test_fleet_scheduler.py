"""Multi-job fleet end-to-end: shared store, contention, failures.

Eight heterogeneous jobs share one object store through the fleet
scheduler. The paper's per-job invariants must survive fleet scale:

* a job's own checkpoint writes never overlap (section 4.3), even
  while other jobs' transfers interleave with its chunks on the link;
* after an injected failure a job restores its *own newest valid*
  checkpoint — never a torn one, never another job's;
* the per-job namespace is airtight: no job can read, list or delete
  outside its prefix.
"""

from __future__ import annotations

import pytest

from repro.config import FailureConfig, FleetConfig, MiB, StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import NamespaceViolationError
from repro.fleet import (
    ScopedStore,
    build_fleet,
    interleave_score,
    run_fleet,
    summarize_fleet,
)
from repro.storage.bandwidth import BandwidthArbiter
from repro.storage.object_store import ObjectStore

import backend_ops as ops


def contended_fleet_config(**overrides) -> FleetConfig:
    """8 heterogeneous jobs on a deliberately slow shared link."""
    defaults = dict(
        num_jobs=8,
        intervals_per_job=3,
        seed=1234,
        rows_per_table_choices=(1024, 2048, 4096),
        storage=StorageConfig(
            write_bandwidth=1.5 * MiB,
            read_bandwidth=3.0 * MiB,
            replication_factor=2,
            latency_s=0.002,
        ),
        failures=FailureConfig(
            mean_time_to_failure_s=12.0,
            weibull_shape=0.9,
            min_failure_s=0.0,
        ),
        inject_failures=True,
        max_failures_per_job=1,
        stagger_s=5.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


@pytest.fixture(scope="module")
def fleet_run():
    scheduler, report = run_fleet(contended_fleet_config())
    return scheduler, report


class TestFleetCompletion:
    def test_every_job_trains_its_target_intervals(self, fleet_run):
        scheduler, report = fleet_run
        for job in scheduler.jobs:
            assert job.controller.interval_index >= job.target_intervals
            assert job.pending is None
        assert report.num_jobs == 8

    def test_fleet_is_heterogeneous(self, fleet_run):
        _, report = fleet_run
        assert len({j.policy for j in report.jobs}) >= 2
        assert len({j.quantizer for j in report.jobs}) >= 2
        assert len({j.rows_per_table for j in report.jobs}) >= 2

    def test_every_job_wrote_checkpoints(self, fleet_run):
        _, report = fleet_run
        for j in report.jobs:
            assert j.checkpoints_written >= 1
            assert j.bytes_logical > 0


class TestNoSameJobOverlap:
    def test_write_windows_of_one_job_never_overlap(self, fleet_run):
        scheduler, _ = fleet_run
        for job in scheduler.jobs:
            windows = sorted(
                (e.report.started_at_s, e.report.valid_at_s)
                for e in job.controller.stats.events
                if e.report is not None
            )
            for (s1, v1), (s2, _v2) in zip(windows, windows[1:]):
                assert s2 >= v1 - 1e-9, (
                    f"{job.job_id} started a write at {s2} while the "
                    f"previous one was valid only at {v1}"
                )


class TestCrossJobInterleaving:
    def test_link_switches_between_jobs(self, fleet_run):
        scheduler, report = fleet_run
        puts = scheduler.store.log.transfers("put")
        written = sum(j.checkpoints_written for j in report.jobs)
        # Checkpoint-level serialisation would give about one switch
        # per checkpoint; chunk-level sharing gives strictly more.
        assert interleave_score(puts) > written

    def test_some_checkpoint_has_foreign_chunks_inside_it(self, fleet_run):
        """At least one checkpoint's chunk sequence is interrupted by
        another job's transfer — the literal meaning of interleaving."""
        scheduler, _ = fleet_run
        puts = scheduler.store.log.transfers("put")
        by_prefix: dict[str, list[int]] = {}
        for i, t in enumerate(puts):
            prefix = "/".join(t.key.split("/")[:2])
            by_prefix.setdefault(prefix, []).append(i)
        interrupted = 0
        for prefix, indices in by_prefix.items():
            lo, hi = min(indices), max(indices)
            foreign = [
                i
                for i in range(lo, hi + 1)
                if i not in set(indices)
                and not puts[i].key.startswith(prefix)
            ]
            if foreign:
                interrupted += 1
        assert interrupted >= 1


class TestFailureRecovery:
    def test_failures_were_injected(self, fleet_run):
        _, report = fleet_run
        assert report.failures >= 1
        assert report.restores + sum(
            j.scratch_restarts for j in report.jobs
        ) >= report.failures

    def test_restores_pick_the_jobs_newest_valid_checkpoint(
        self, fleet_run
    ):
        scheduler, _ = fleet_run
        crashes = [e for e in scheduler.events if e.kind == "crash"]
        assert crashes, "the failure model injected no crashes"
        for crash in crashes:
            valid_before = crash.payload["valid_before"]
            restored = crash.payload["restored_from"]
            if valid_before:
                newest_id = valid_before[-1][0]
                assert restored == newest_id
                assert restored is not None
                # The restored checkpoint belongs to the crashed job's
                # namespace by construction of the manifest map.
            else:
                assert restored is None  # scratch restart

    def test_restored_jobs_kept_training_to_completion(self, fleet_run):
        scheduler, _ = fleet_run
        crashed = {
            e.job_id for e in scheduler.events if e.kind == "crash"
        }
        for job in scheduler.jobs:
            if job.job_id in crashed:
                assert job.controller.interval_index >= job.target_intervals


class TestNamespaceIsolation:
    def test_all_keys_partition_by_job_namespace(self, fleet_run):
        scheduler, _ = fleet_run
        job_ids = {job.job_id for job in scheduler.jobs}
        for key in scheduler.store.list_keys():
            owner = key.split("/", 1)[0]
            assert owner in job_ids

    def test_manifests_on_store_carry_their_namespace_job_id(
        self, fleet_run
    ):
        scheduler, _ = fleet_run
        from repro.core.manifest import CheckpointManifest

        for key in scheduler.store.list_keys():
            if key.endswith("/manifest.json"):
                manifest = CheckpointManifest.from_json(
                    ops.read(scheduler.store.backend, key)
                )
                assert key.startswith(f"{manifest.job_id}/")

    def test_scoped_store_rejects_foreign_keys(self):
        store = ObjectStore(
            StorageConfig(), SimClock(), arbiter=BandwidthArbiter()
        )
        store.arbiter.register("jobA")
        store.arbiter.register("jobB")
        clock_a, clock_b = SimClock(), SimClock()
        view_a = ScopedStore(store, "jobA", clock_a)
        view_b = ScopedStore(store, "jobB", clock_b)

        def put(view, key, data, **kw):
            staged = view.stage_put(key, data, **kw)
            while staged.submit_next() is None:
                pass

        put(view_a, "jobA/secret", b"mine")
        with pytest.raises(NamespaceViolationError):
            view_b.get("jobA/secret")
        with pytest.raises(NamespaceViolationError):
            view_b.stage_get("jobA/secret")
        with pytest.raises(NamespaceViolationError):
            view_b.delete_prefix("jobA/")
        with pytest.raises(NamespaceViolationError):
            view_b.list_keys("jobA/")
        with pytest.raises(NamespaceViolationError):
            put(view_b, "jobA/secret", b"overwrite")
        # And its own namespace still works.
        put(view_b, "jobB/ok", b"fine")
        assert view_b.list_keys() == ["jobB/ok"]
        assert view_b.get("jobB/ok") == b"fine"
        assert store.exists("jobA/secret")


class TestAdmissionControl:
    def test_concurrent_write_cap_defers_triggers(self):
        config = contended_fleet_config(
            inject_failures=False,
            admission_mode="static",
            max_concurrent_writes=1,
            stagger_s=0.0,
        )
        scheduler, report = run_fleet(config)
        deferred = sum(j.admission_deferred for j in report.jobs)
        assert deferred >= 1
        assert any(
            e.kind == "deferred" for e in scheduler.events
        )
        # Jobs still finish their intervals despite deferrals.
        for job in scheduler.jobs:
            assert job.controller.interval_index >= job.target_intervals


class TestPerJobQuota:
    def test_quota_blows_up_offender_and_spares_the_rest(self):
        config = contended_fleet_config(
            inject_failures=False,
            per_job_quota_bytes=600_000,  # physical; large jobs exceed
        )
        scheduler, report = run_fleet(config)
        rejected = [j for j in report.jobs if j.quota_rejections > 0]
        completed = [j for j in report.jobs if j.checkpoints_written > 0]
        assert rejected, "no job hit the quota — tighten the limit"
        assert completed, "quota must not take down the whole fleet"
        # Rejected writes were scrubbed: the store holds no chunks of
        # checkpoints that never produced a manifest.
        manifest_prefixes = {
            "/".join(key.split("/")[:2])
            for key in scheduler.store.list_keys()
            if key.endswith("/manifest.json")
        }
        for key in scheduler.store.list_keys():
            prefix = "/".join(key.split("/")[:2])
            assert prefix in manifest_prefixes, (
                f"orphaned object {key} from a torn/rejected write"
            )


class TestDeterminism:
    def test_same_seed_same_fleet_outcome(self):
        config = contended_fleet_config()
        _, first = run_fleet(config)
        _, second = run_fleet(config)
        assert first.total_put_bytes_logical == second.total_put_bytes_logical
        assert first.duration_s == second.duration_s
        assert first.failures == second.failures
        assert [
            (j.job_id, j.checkpoints_written, j.restores)
            for j in first.jobs
        ] == [
            (j.job_id, j.checkpoints_written, j.restores)
            for j in second.jobs
        ]

    def test_build_fleet_exposes_store_and_jobs(self):
        scheduler, store = build_fleet(
            contended_fleet_config(num_jobs=2, inject_failures=False)
        )
        assert len(scheduler.jobs) == 2
        scheduler.run()
        report = summarize_fleet(scheduler, store)
        assert report.num_jobs == 2
