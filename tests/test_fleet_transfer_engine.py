"""Fleet behaviour of the transfer engine: parts, admission, preemption.

The engine's fleet-facing guarantees:

* cross-job fairness holds at *part* granularity on the s3like
  backend — when competing jobs have queued parts, one chunk's parts
  are not submitted back-to-back;
* preemption's abort-and-requeue can race an in-flight multipart
  upload: the upload is aborted, no visible object and no orphaned
  parts survive, and the restaged write completes;
* dynamic admission control defers experimental triggers under
  backlog while prod triggers pass, and static mode defers on its
  ``max_concurrent_writes`` cap;
* transient-failure injection + retries stay deterministic at fleet
  scale, and the retry/deferral counters surface in the run report.
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
from repro.core.controller import PendingCheckpoint
from repro.core.manifest import checkpoint_prefix
from repro.fleet import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    part_split_score,
    run_fleet,
)

import backend_ops as ops


def s3like_storage(
    write_bw=0.4 * MiB,
    read_bw=0.8 * MiB,
    part_size=8192,
    failure_prob=0.0,
    replication=2,
    max_retries=5,
    **backend_overrides,
) -> StorageConfig:
    return StorageConfig(
        write_bandwidth=write_bw,
        read_bandwidth=read_bw,
        replication_factor=replication,
        max_retries=max_retries,
        backend=BackendConfig(
            kind="s3like",
            part_size_bytes=part_size,
            multipart_fanout=2,
            put_failure_prob=failure_prob,
            get_failure_prob=failure_prob,
            **backend_overrides,
        ),
    )


class TestPartGranularInterleaving:
    @pytest.fixture(scope="class")
    def contended_run(self):
        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=3,
            seed=777,
            rows_per_table_choices=(1024, 2048, 4096),
            storage=s3like_storage(),
            inject_failures=False,
            stagger_s=3.0,
        )
        return run_fleet(config)

    def test_mid_chunk_part_splits_occur(self, contended_run):
        """The acceptance property: under contention the link serves
        other streams *between* two parts of one chunk."""
        scheduler, report = contended_run
        assert report.part_interleave_splits > 0
        assert (
            part_split_score(scheduler.store.log.transfers("put"))
            == report.part_interleave_splits
        )

    def test_no_back_to_back_monopoly_under_contention(self, contended_run):
        """While a competing job has queued parts (both jobs mid staged
        write), no job submits a long back-to-back run of parts."""
        scheduler, _ = contended_run
        puts = [
            t
            for t in scheduler.store.log.transfers("put")
            if "#part" in t.key
        ]
        assert puts, "multipart parts must reach the transfer log"
        # Find windows where transfers of two different streams
        # interleave within one chunk's upload: for every chunk whose
        # upload got split, the interruption came from another stream's
        # queued parts being served in SFQ order.
        split_chunks = set()
        for i in range(len(puts) - 1):
            base = puts[i].key.split("#part", 1)[0]
            if puts[i + 1].stream != puts[i].stream and any(
                t.key.split("#part", 1)[0] == base
                for t in puts[i + 1 :]
            ):
                split_chunks.add(base)
        assert split_chunks, "no chunk upload was ever interleaved"

    def test_fairness_holds_at_part_granularity(self):
        """Equal-demand jobs converge to equal byte shares even though
        the link now serves individual parts: SFQ order is preserved
        across the finer submission granularity."""
        config = FleetConfig(
            num_jobs=4,
            intervals_per_job=3,
            seed=99,
            rows_per_table_choices=(2048,),
            num_tables_choices=(3,),
            interval_batches_choices=(10,),
            policy_choices=("full",),
            policy_weights=(1.0,),
            quantizer_choices=("none",),
            bit_width_choices=(8,),
            storage=s3like_storage(),
            inject_failures=False,
            stagger_s=0.5,
        )
        _, report = run_fleet(config)
        assert report.part_interleave_splits > 0
        assert report.fairness_index > 0.97

    def test_every_job_completes(self, contended_run):
        scheduler, report = contended_run
        for job in scheduler.jobs:
            assert job.controller.interval_index >= job.target_intervals
        for j in report.jobs:
            assert j.checkpoints_written >= 1


class TestWriterEmitsPartSteps:
    def test_staged_write_announces_individual_parts(self):
        """A single job's staged write on a multipart backend yields
        one TransferStep per part, with coherent part numbering."""
        from repro.experiments import build_experiment, small_config
        from repro.storage import make_backend

        config = small_config(
            policy="full",
            quantizer="none",
            bit_width=None,
            interval_batches=4,
            num_tables=2,
            rows_per_table=256,
            embedding_dim=8,
            batch_size=16,
            num_nodes=1,
            devices_per_node=1,
        )
        backend = make_backend(
            BackendConfig(kind="s3like", part_size_bytes=2048),
            config.storage,
        )
        exp = build_experiment(config, backend=backend)
        exp.controller.coordinator.grant_interval(4)
        exp.trainer.train_interval(4)
        pending = exp.controller.begin_checkpoint()
        assert isinstance(pending, PendingCheckpoint)
        steps = []
        while pending.next_step is not None:
            steps.append(pending.next_step)
            pending.advance()
        exp.controller.finish_checkpoint(pending)
        multi = [s for s in steps if s.num_parts > 1]
        assert multi, "chunk-sized payloads must stage as parts"
        # Per (kind, key): part indexes announce 1..num_parts in order.
        by_key: dict = {}
        for s in steps:
            by_key.setdefault((s.kind, s.key), []).append(
                (s.part_index, s.num_parts)
            )
        for (kind, key), announced in by_key.items():
            expected = [
                (i + 1, announced[0][1]) for i in range(len(announced))
            ]
            assert announced == expected, (kind, key, announced)
        # The object round-trips despite part-wise submission.
        exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")
        assert exp.controller.valid_manifests()


class TestPreemptionRacesMultipart:
    def test_abort_pending_mid_part_aborts_the_upload(self):
        """Controller-level: aborting a staged write between two parts
        aborts the open multipart upload — no visible object, no
        orphaned parts — and a fresh write then succeeds."""
        from repro.experiments import build_experiment, small_config
        from repro.storage import make_backend

        config = small_config(
            policy="full",
            quantizer="none",
            bit_width=None,
            interval_batches=4,
            num_tables=2,
            rows_per_table=256,
            embedding_dim=8,
            batch_size=16,
            num_nodes=1,
            devices_per_node=1,
        )
        backend = make_backend(
            BackendConfig(kind="s3like", part_size_bytes=2048),
            config.storage,
        )
        exp = build_experiment(config, backend=backend)
        exp.controller.coordinator.grant_interval(4)
        exp.trainer.train_interval(4)
        pending = exp.controller.begin_checkpoint()
        assert isinstance(pending, PendingCheckpoint)
        # Advance into the middle of a multipart chunk upload.
        while not exp.store.backend.pending_uploads():
            step = pending.advance()
            assert step is not None, "never entered a multipart upload"
        in_flight_key = pending.next_step.key
        checkpoint_id = pending.checkpoint_id
        exp.controller.abort_pending(pending)
        # The race resolved cleanly: upload aborted, nothing visible.
        assert exp.store.backend.pending_uploads() == []
        assert exp.store.backend.multipart_aborted >= 1
        assert not ops.exists(exp.store.backend, in_flight_key)
        # Torn chunks (completed before the abort) are scrubbable.
        exp.store.delete_prefix(
            checkpoint_prefix("job0", checkpoint_id)
        )
        assert (
            exp.store.list_keys(
                checkpoint_prefix("job0", checkpoint_id)
            )
            == []
        )
        # The re-staged write completes and becomes restorable.
        again = exp.controller.begin_checkpoint(restage=True)
        assert isinstance(again, PendingCheckpoint)
        while again.advance() is not None:
            pass
        exp.controller.finish_checkpoint(again)
        assert exp.store.backend.pending_uploads() == []
        exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")
        assert exp.controller.valid_manifests()

    def test_fleet_preemption_leaves_no_orphaned_parts(self):
        """Fleet-level: prod preemption aborts experimental staged
        writes racing their multipart uploads; restage succeeds and the
        store ends with no open uploads and no orphaned objects."""
        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=3,
            seed=0x5709,
            rows_per_table_choices=(1024, 2048, 4096),
            storage=s3like_storage(
                write_bw=0.25 * MiB, read_bw=0.5 * MiB
            ),
            inject_failures=False,
            stagger_s=3.0,
            priority_mix=0.34,
            preempt_wait_s=0.2,
        )
        observed: list[dict] = []

        def on_event(event):
            if event.kind == "preempted":
                observed.append(event.payload)

        from repro.fleet import build_fleet

        scheduler, store = build_fleet(config)

        def no_preempted_upload_survives(event):
            if event.kind != "preempted":
                return
            prefix = checkpoint_prefix(
                event.job_id, event.payload["checkpoint_id"]
            )
            open_keys = [
                key
                for key, _parts in store.backend._uploads.values()
                if key.startswith(prefix)
            ]
            assert open_keys == [], (
                f"preempted write left open upload parts: {open_keys}"
            )

        scheduler.on_event = lambda e: (
            on_event(e),
            no_preempted_upload_survives(e),
        )
        scheduler.run()

        assert observed, "no preemption fired — slow the link further"
        assert any(
            e.kind == "restaged" for e in scheduler.events
        ), "preempted jobs must restage their writes"
        # End state: no open uploads, no orphaned objects.
        assert store.backend.pending_uploads() == []
        manifest_prefixes = {
            "/".join(key.split("/")[:2])
            for key in store.list_keys()
            if key.endswith("/manifest.json")
        }
        for key in store.list_keys():
            prefix = "/".join(key.split("/")[:2])
            assert prefix in manifest_prefixes, (
                f"orphaned object {key} from a preempted write"
            )
        # Only experimental jobs were preempted.
        preempted_jobs = {
            e.job_id
            for e in scheduler.events
            if e.kind == "preempted"
        }
        tiers = {j.job_id: j.tier for j in scheduler.jobs}
        assert all(
            tiers[job_id] == TIER_EXPERIMENTAL
            for job_id in preempted_jobs
        )


class TestDynamicAdmission:
    @pytest.fixture(scope="class")
    def admission_run(self):
        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=4,
            seed=0xF1EE7,
            rows_per_table_choices=(2048, 4096, 8192),
            storage=s3like_storage(
                write_bw=150_000.0,
                read_bw=300_000.0,
                part_size=16384,
                failure_prob=0.08,
                replication=3,
            ),
            inject_failures=True,
            priority_mix=0.34,
            admission_mode="dynamic",
        )
        return run_fleet(config)

    def test_backlog_defers_experimental_triggers(self, admission_run):
        scheduler, report = admission_run
        assert report.admission_deferrals >= 1
        deferred_events = [
            e for e in scheduler.events if e.kind == "deferred"
        ]
        assert deferred_events
        for event in deferred_events:
            assert event.payload["reason"] == "backlog"
            assert (
                event.payload["projected_delay_s"]
                > event.payload["threshold_s"]
            )

    def test_prod_triggers_are_never_deferred(self, admission_run):
        scheduler, report = admission_run
        tiers = {j.job_id: j.tier for j in scheduler.jobs}
        for event in scheduler.events:
            if event.kind == "deferred":
                assert tiers[event.job_id] == TIER_EXPERIMENTAL
        for j in report.jobs:
            if j.tier == TIER_PROD:
                assert j.admission_deferred == 0

    def test_fleet_completes_despite_deferrals(self, admission_run):
        scheduler, _ = admission_run
        for job in scheduler.jobs:
            assert job.controller.interval_index >= job.target_intervals

    def test_retries_surface_in_the_report(self, admission_run):
        _, report = admission_run
        retries = dict(report.retries_by_op)
        assert retries.get("PUT", 0) >= 1
        # Receipts carry the retry counts the report aggregates.
        scheduler, _ = admission_run
        assert scheduler.store.ops.total_retries("PUT") == retries["PUT"]

    def test_exhausted_retries_fail_one_write_not_the_fleet(self):
        """With a tight retry budget under heavy injection, some
        request exhausts its retries; the job loses that checkpoint
        (aborted, scrubbed, counted) and the fleet run completes."""
        config = FleetConfig(
            num_jobs=4,
            intervals_per_job=3,
            seed=21,
            rows_per_table_choices=(1024, 2048),
            storage=s3like_storage(failure_prob=0.45, max_retries=1),
            inject_failures=False,
            stagger_s=2.0,
        )
        scheduler, report = run_fleet(config)
        failed = [
            e for e in scheduler.events if e.kind == "write_failed"
        ]
        assert failed, "expected at least one exhausted write at p=0.45"
        assert sum(j.failed_writes for j in report.jobs) == len(failed)
        for job in scheduler.jobs:
            assert job.controller.interval_index >= job.target_intervals
        # Failed writes were scrubbed and no upload leaked.
        assert scheduler.store.backend.pending_uploads() == []
        manifest_prefixes = {
            "/".join(key.split("/")[:2])
            for key in scheduler.store.list_keys()
            if key.endswith("/manifest.json")
        }
        for key in scheduler.store.list_keys():
            assert "/".join(key.split("/")[:2]) in manifest_prefixes

    def test_deterministic_with_failure_injection(self, admission_run):
        _, report = admission_run
        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=4,
            seed=0xF1EE7,
            rows_per_table_choices=(2048, 4096, 8192),
            storage=s3like_storage(
                write_bw=150_000.0,
                read_bw=300_000.0,
                part_size=16384,
                failure_prob=0.08,
                replication=3,
            ),
            inject_failures=True,
            priority_mix=0.34,
            admission_mode="dynamic",
        )
        _, again = run_fleet(config)
        assert again == report  # measured pool fields excluded from eq


class TestStaticAdmissionConfig:
    def test_static_cap_defers(self):
        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=3,
            seed=1234,
            rows_per_table_choices=(1024, 2048, 4096),
            storage=StorageConfig(
                write_bandwidth=1.5 * MiB,
                read_bandwidth=3.0 * MiB,
                replication_factor=2,
                latency_s=0.002,
            ),
            inject_failures=False,
            stagger_s=0.0,
            admission_mode="static",
            max_concurrent_writes=1,
        )
        scheduler, report = run_fleet(config)
        assert report.admission_deferrals >= 1
        for event in scheduler.events:
            if event.kind == "deferred":
                assert event.payload["reason"] == "static_cap"

    def test_cap_and_static_mode_need_each_other(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="static"):
            FleetConfig(admission_mode="static")
        with pytest.raises(ConfigError, match="static"):
            FleetConfig(max_concurrent_writes=2)
        with pytest.raises(ConfigError, match="static"):
            FleetConfig(max_concurrent_writes=2, admission_mode="dynamic")


class TestWriterPoolAtFleetScale:
    def test_quantization_runs_on_the_worker_pool(self):
        from repro.experiments import build_experiment, small_config

        config = small_config(
            policy="full",
            quantizer="asymmetric",
            bit_width=4,
            interval_batches=4,
            num_tables=3,
            rows_per_table=512,
            embedding_dim=8,
            batch_size=16,
            num_nodes=1,
            devices_per_node=1,
        )
        exp = build_experiment(config)
        exp.controller.run_intervals(1)
        assert exp.store.engine.pool_tasks >= 3  # one per chunk/shard
        report = exp.controller.stats.events[0].report
        assert report is not None
        assert report.measured_quantize_s > 0.0
        assert report.measured_wait_s >= 0.0
        assert report.measured_overlap_s >= 0.0
        assert exp.store.engine.pool_busy_s >= (
            report.measured_quantize_s
        )
