"""Bit-rot matrix: scan/quarantine, resume planner, fallback restore.

The integrity subsystem spans three layers — write-time digests
(:mod:`repro.core.writer` / :mod:`repro.core.manifest`), the operator
scan (:mod:`repro.core.integrity`), and the resume planner's
restore-through-corruption path (:mod:`repro.core.restore`). These
tests corrupt stored objects one class at a time (chunk, dense blob,
manifest, mid-chain increment) and assert each layer reacts exactly:
the scan flags precisely the injected objects, quarantine survives a
scheduler restart, and the planner lands on the newest clean chain
deterministically.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.config import BackendConfig, FleetConfig, StorageConfig
from repro.core.integrity import (
    REASON_DIGEST_MISMATCH,
    REASON_MANIFEST_CORRUPT,
    REASON_MISSING,
    REASON_TRUNCATED,
    format_integrity_report,
    scan_job,
    sha256_hex,
)
from repro.core.manifest import CheckpointManifest, manifest_key
from repro.core.restore import CheckpointRestorer
from repro.core.retention import RetentionManager
from repro.distributed.clock import SimClock
from repro.errors import (
    CheckpointCorruptError,
    CheckpointNotFoundError,
)
from repro.experiments import build_experiment, small_config
from repro.serialize.codec import encode_array
from repro.serialize.format import decode_frames, encode_frames
from repro.storage.backends import (
    CrashingBackend,
    InMemoryBackend,
    corrupt_stored_object,
)
from repro.tools.metrics import (
    Metric,
    render_textfile,
    scan_metrics,
    write_textfile,
)

import backend_ops as ops


@pytest.fixture
def stored(tiny_experiment):
    """Experiment with three checkpoints on the store, clock settled."""
    exp = tiny_experiment
    exp.controller.run_intervals(3)
    newest = max(
        m.valid_at_s for m in exp.controller.manifests.values()
    )
    exp.clock.advance_to(newest + 1.0, "settle")
    restorer = CheckpointRestorer(exp.store, exp.clock)
    return exp, restorer


def _newest_chunk_key(manifest: CheckpointManifest) -> str:
    return manifest.shards[0].chunks[0].key


class TestWriteTimeDigests:
    def test_every_stored_object_carries_a_digest(self, stored):
        exp, restorer = stored
        manifests = restorer.list_manifests("job0")
        assert manifests
        for manifest in manifests.values():
            for shard in manifest.shards:
                for chunk in shard.chunks:
                    stored_bytes = ops.read(exp.store.backend, chunk.key)
                    assert chunk.digest == sha256_hex(stored_bytes)
            assert manifest.dense_digest == sha256_hex(
                ops.read(exp.store.backend, manifest.dense_key)
            )

    def test_writer_and_restorer_hash_through_sha256_hex(
        self, tiny_experiment, monkeypatch
    ):
        """One ``sha256_hex`` call per chunk + dense object in each
        direction: the digest format has one definition, and it is the
        seam the benchmark's integrity layer times."""
        calls = {"writer": 0, "restore": 0}

        def counting(side):
            def digest(data):
                calls[side] += 1
                return sha256_hex(data)

            return digest

        monkeypatch.setattr(
            "repro.core.writer.sha256_hex", counting("writer")
        )
        monkeypatch.setattr(
            "repro.core.restore.sha256_hex", counting("restore")
        )
        exp = tiny_experiment
        exp.controller.run_intervals(1)
        (manifest,) = exp.controller.manifests.values()
        exp.clock.advance_to(manifest.valid_at_s + 1.0, "settle")
        objects = sum(len(s.chunks) for s in manifest.shards) + 1
        assert objects > 2
        assert calls == {"writer": objects, "restore": 0}
        exp.controller.restore_latest()
        assert calls == {"writer": objects, "restore": objects}

    def test_digest_survives_manifest_roundtrip(self, stored):
        _, restorer = stored
        manifest = next(iter(restorer.list_manifests("job0").values()))
        again = CheckpointManifest.from_json(
            manifest.to_json().encode("utf-8")
        )
        assert again == manifest


class TestScanMatrix:
    """Flip bytes object class by object class; scan must flag exactly
    the injected objects."""

    def test_clean_store_scans_clean(self, stored):
        exp, _ = stored
        report = scan_job(exp.store, "job0")
        assert report.clean
        assert report.checkpoints_scanned == 3
        assert report.bytes_verified > 0
        assert not report.issues
        assert "clean" in format_integrity_report(report)

    def test_chunk_bitrot_flagged_exactly(self, stored):
        exp, restorer = stored
        plan = restorer.plan_resume("job0")
        victim = plan[0]
        key = _newest_chunk_key(victim)
        corrupt_stored_object(exp.store.backend, key, offset=7)
        report = scan_job(exp.store, "job0")
        assert [i.key for i in report.issues] == [key]
        assert report.issues[0].reason == REASON_DIGEST_MISMATCH
        assert report.quarantined_ids == [victim.checkpoint_id]
        assert f"CORRUPT {key}" in format_integrity_report(report)

    def test_dense_bitrot_flagged_exactly(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        corrupt_stored_object(exp.store.backend, victim.dense_key)
        report = scan_job(exp.store, "job0")
        assert [i.key for i in report.issues] == [victim.dense_key]
        assert report.issues[0].reason == REASON_DIGEST_MISMATCH

    def test_manifest_bitrot_recorded_not_quarantined(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        key = manifest_key("job0", victim.checkpoint_id)
        corrupt_stored_object(exp.store.backend, key, offset=2)
        report = scan_job(exp.store, "job0")
        assert key in report.unreadable_manifests
        assert [i.reason for i in report.issues] == [
            REASON_MANIFEST_CORRUPT
        ]
        # Discovery skip-and-records it, so nothing needs a marker.
        assert report.quarantined_ids == []
        manifests = restorer.list_manifests("job0")
        assert victim.checkpoint_id not in manifests
        assert key in restorer.skipped_manifests

    @pytest.mark.parametrize(
        "strip",
        [
            lambda m: m["shards"][0]["chunks"][0].pop("digest"),
            lambda m: m["shards"][0]["chunks"][0].update(digest=None),
            lambda m: m.pop("dense_digest"),
            lambda m: m.pop("dense_key"),
            lambda m: m.update(dense_key=None),
        ],
        ids=[
            "chunk-digest-missing",
            "chunk-digest-null",
            "dense-digest",
            "dense-key-missing",
            "dense-key-null",
        ],
    )
    def test_manifest_without_a_digest_is_corrupt(self, stored, strip):
        """A record with no digest cannot be verified, and a checkpoint
        with no dense key cannot be restored, so either manifest is
        corrupt: never planned, never scanned clean."""
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        key = manifest_key("job0", victim.checkpoint_id)
        record = json.loads(ops.read(exp.store.backend, key))
        strip(record)
        ops.write(exp.store.backend, key, json.dumps(record).encode())
        planned = restorer.plan_resume("job0")
        assert victim.checkpoint_id not in {
            m.checkpoint_id for m in planned
        }
        assert key in restorer.skipped_manifests
        report = scan_job(exp.store, "job0", quarantine=False)
        assert not report.clean
        assert key in report.unreadable_manifests
        assert [i.reason for i in report.issues] == [
            REASON_MANIFEST_CORRUPT
        ]

    def test_truncated_chunk_flagged(self, stored):
        exp, restorer = stored
        key = _newest_chunk_key(restorer.plan_resume("job0")[0])
        blob = ops.read(exp.store.backend, key)
        ops.write(exp.store.backend, key, blob[:-3])
        report = scan_job(exp.store, "job0")
        assert [i.key for i in report.issues] == [key]
        assert report.issues[0].reason == REASON_TRUNCATED

    def test_missing_chunk_flagged(self, stored):
        exp, restorer = stored
        key = _newest_chunk_key(restorer.plan_resume("job0")[0])
        ops.delete(exp.store.backend, key)
        report = scan_job(exp.store, "job0")
        assert [i.key for i in report.issues] == [key]
        assert report.issues[0].reason == REASON_MISSING

    def test_torn_checkpoint_detected(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        ops.delete(
            exp.store.backend, manifest_key("job0", victim.checkpoint_id)
        )
        report = scan_job(exp.store, "job0")
        assert report.torn_checkpoint_ids == [victim.checkpoint_id]
        assert not report.clean
        assert "TORN" in format_integrity_report(report)

    def test_report_only_mode_leaves_manifests_unmodified(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(victim)
        )
        report = scan_job(exp.store, "job0", quarantine=False)
        assert report.corrupt_checkpoint_ids == [victim.checkpoint_id]
        assert report.quarantined_ids == []
        fresh = restorer.list_manifests("job0")
        assert not fresh[victim.checkpoint_id].quarantined


class TestScanUnderThrottling:
    """A scan is retried like any other storage client: a throttled
    request must neither kill it nor be booked under another class."""

    @pytest.fixture
    def stored_s3like(self, tiny_experiment):
        """Three checkpoints on an s3like store whose failure RNG is
        untouched (nothing is armed yet): seed 2 will draw 0.26, 0.30,
        0.81 — fail, fail, succeed at p = 0.5."""
        exp = build_experiment(
            dataclasses.replace(
                tiny_experiment.config,
                storage=StorageConfig(
                    backend=BackendConfig(kind="s3like", failure_seed=2)
                ),
            )
        )
        exp.controller.run_intervals(3)
        newest = max(m.valid_at_s for m in exp.controller.manifests.values())
        exp.clock.advance_to(newest + 1.0, "settle")
        assert not exp.store.engine.retries_by_op
        return exp

    def test_throttled_quarantine_marker_is_retried(self, stored_s3like):
        """ckptkit's validate -> quarantine loop: a scanner that dies on
        a throttled marker write leaves the corrupt checkpoint
        restorable."""
        exp = stored_s3like
        restorer = CheckpointRestorer(exp.store, exp.clock)
        victim = restorer.plan_resume("job0")[0]
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(victim), offset=7
        )
        exp.store.backend.failure_probs["PUT"] = 0.5
        report = scan_job(exp.store, "job0")
        assert report.quarantined_ids == [victim.checkpoint_id]
        assert exp.store.engine.retries_by_op == {"PUT": 2}
        assert exp.store.backend.failures_injected == {"PUT": 2}
        exp.store.backend.failure_probs.clear()
        assert restorer.list_manifests("job0")[
            victim.checkpoint_id
        ].quarantined
        assert victim.checkpoint_id not in [
            m.checkpoint_id for m in restorer.plan_resume("job0")
        ]

    def test_discovery_list_is_booked_as_a_list(self, stored_s3like):
        exp = stored_s3like
        exp.store.backend.failure_probs["LIST"] = 0.5
        report = scan_job(exp.store, "job0")
        assert report.clean and report.checkpoints_scanned == 3
        assert exp.store.backend.failures_injected == {"LIST": 2}
        assert exp.store.engine.retries_by_op == {"LIST": 2}


class TestQuarantinePersistence:
    def test_quarantine_sticks_across_scheduler_restart(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(victim)
        )
        scan_job(exp.store, "job0")
        # A scheduler restart = a fresh restorer re-reading the store.
        rebooted = CheckpointRestorer(exp.store, exp.clock)
        manifests = rebooted.list_manifests("job0")
        assert manifests[victim.checkpoint_id].quarantined
        plan = rebooted.plan_resume("job0")
        assert victim.checkpoint_id not in [
            m.checkpoint_id for m in plan
        ]
        assert plan  # older clean checkpoints still restorable

    def test_second_scan_reports_already_quarantined(self, stored):
        exp, restorer = stored
        victim = restorer.plan_resume("job0")[0]
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(victim)
        )
        first = scan_job(exp.store, "job0")
        assert first.quarantined_ids == [victim.checkpoint_id]
        second = scan_job(exp.store, "job0")
        assert second.quarantined_ids == []
        assert second.already_quarantined_ids == [victim.checkpoint_id]


class TestResumePlanner:
    def test_plan_is_newest_first_and_deterministic(self, stored):
        _, restorer = stored
        plan_a = [m.checkpoint_id for m in restorer.plan_resume("job0")]
        plan_b = [m.checkpoint_id for m in restorer.plan_resume("job0")]
        assert plan_a == plan_b
        intervals = [
            m.interval_index for m in restorer.plan_resume("job0")
        ]
        assert intervals == sorted(intervals, reverse=True)

    def test_plan_head_is_latest_valid(self, stored):
        _, restorer = stored
        plan = restorer.plan_resume("job0")
        valid = [
            m
            for m in restorer.list_manifests("job0").values()
            if m.valid_at_s <= restorer.clock.now
        ]
        assert plan[0] == max(
            valid, key=lambda m: (m.interval_index, m.valid_at_s)
        )

    def test_plan_skips_candidates_with_missing_objects(self, stored):
        exp, restorer = stored
        before = restorer.plan_resume("job0")
        victim = before[0]
        ops.delete(exp.store.backend, _newest_chunk_key(victim))
        after = restorer.plan_resume("job0")
        assert victim.checkpoint_id not in [
            m.checkpoint_id for m in after
        ]
        assert after[0].checkpoint_id == before[1].checkpoint_id

    def test_not_yet_valid_checkpoints_excluded(self, stored):
        exp, _ = stored
        fresh_clock = CheckpointRestorer(exp.store, SimClock())
        assert fresh_clock.plan_resume("job0") == []


class TestRestoreThroughCorruption:
    def test_restore_falls_back_past_bitrotted_newest(self, stored):
        exp, restorer = stored
        plan = restorer.plan_resume("job0")
        assert len(plan) >= 2
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(plan[0]), offset=11
        )
        report = exp.controller.restore_latest()
        assert report.checkpoint_id == plan[1].checkpoint_id
        assert report.fallback_depth == 1
        assert report.failed_chain_ids == (plan[0].checkpoint_id,)
        # The controller resumes from the interval that really loaded.
        assert (
            exp.controller.interval_index
            == plan[1].interval_index + 1
        )

    def test_mid_increment_corruption_fails_chained_candidates(self):
        """Consecutive chains: rot in a middle increment must fail every
        candidate chaining through it, landing on the full baseline."""
        exp = build_experiment(
            small_config(
                policy="consecutive",
                num_tables=3,
                rows_per_table=512,
                embedding_dim=8,
                batch_size=32,
                interval_batches=5,
                keep_last=4,
                num_nodes=1,
                devices_per_node=2,
            )
        )
        exp.controller.run_intervals(3)
        newest = max(
            m.valid_at_s for m in exp.controller.manifests.values()
        )
        exp.clock.advance_to(newest + 1.0, "settle")
        restorer = CheckpointRestorer(exp.store, exp.clock)
        plan = restorer.plan_resume(
            "job0", policy=exp.controller.policy
        )
        assert len(plan) == 3
        middle = plan[1]  # the increment both later candidates need
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(middle)
        )
        report = exp.controller.restore_latest()
        assert report.checkpoint_id == plan[2].checkpoint_id
        assert report.fallback_depth == 2
        assert set(report.failed_chain_ids) == {
            plan[0].checkpoint_id,
            middle.checkpoint_id,
        }

    @pytest.mark.parametrize(
        "frame,values",
        [
            # One accumulator value used to broadcast into every row.
            (2, lambda rows, dim: np.full(1, 7.0, np.float32)),
            (2, lambda rows, dim: np.full(rows + 1, 7.0, np.float32)),
            (1, lambda rows, dim: np.full((rows + 1, dim), 7.0, np.float32)),
            (1, lambda rows, dim: np.full((rows, dim + 1), 7.0, np.float32)),
        ],
        ids=["accum-one", "accum-extra", "weights-extra-row", "weights-wide"],
    )
    def test_digest_valid_chunk_with_mismatched_frames_falls_back(
        self, stored, frame, values
    ):
        """A chunk whose weight or accumulator frame does not match its
        row frame is corrupt even when its digest is valid: the restore
        must refuse it before touching the model and fall back one
        candidate deeper, not broadcast it or abort recovery."""
        exp, restorer = stored
        plan = restorer.plan_resume("job0")
        victim = plan[0]
        chunk = victim.shards[0].chunks[0]
        meta, frames = decode_frames(ops.read(exp.store.backend, chunk.key))
        payloads = [f.payload for f in frames]
        payloads[frame] = encode_array(
            values(chunk.row_count, exp.config.model.embedding_dim)
        )
        blob = encode_frames(meta, list(enumerate(payloads)))
        ops.write(exp.store.backend, chunk.key, blob)
        forged_chunk = dataclasses.replace(chunk, digest=sha256_hex(blob))
        shard = victim.shards[0]
        forged = dataclasses.replace(
            victim,
            shards=(
                dataclasses.replace(
                    shard, chunks=(forged_chunk,) + shard.chunks[1:]
                ),
            )
            + victim.shards[1:],
        )
        ops.write(
            exp.store.backend,
            manifest_key("job0", victim.checkpoint_id),
            forged.to_json().encode("utf-8"),
        )

        model = exp.model
        before = [
            (model.table_weight(t).copy(), model.table_accumulator(t).copy())
            for t in range(model.num_tables)
        ]
        with pytest.raises(CheckpointCorruptError, match=chunk.key):
            restorer._decode_chunk(model, shard.table_id, forged_chunk, blob)
        for t, (weight, accum) in enumerate(before):
            assert model.table_weight(t).tobytes() == weight.tobytes()
            assert model.table_accumulator(t).tobytes() == accum.tobytes()

        report = exp.controller.restore_latest()
        assert report.checkpoint_id == plan[1].checkpoint_id
        assert report.fallback_depth == 1
        assert report.failed_chain_ids == (victim.checkpoint_id,)

    def test_every_candidate_corrupt_raises(self, stored):
        exp, restorer = stored
        for manifest in restorer.list_manifests("job0").values():
            corrupt_stored_object(
                exp.store.backend, _newest_chunk_key(manifest)
            )
        with pytest.raises(CheckpointNotFoundError):
            exp.controller.restore_latest()


class TestManifestParsing:
    def test_missing_shards_field_rejected(self, stored):
        _, restorer = stored
        manifest = restorer.plan_resume("job0")[0]
        import json

        data = json.loads(manifest.to_json())
        del data["shards"]
        with pytest.raises(CheckpointCorruptError):
            CheckpointManifest.from_json(json.dumps(data).encode())

    def test_invalid_utf8_rejected(self):
        with pytest.raises(CheckpointCorruptError):
            CheckpointManifest.from_json(b"\xff\xfe{}")


class TestRetentionQuarantine:
    def test_quarantined_never_occupies_a_keep_slot(self, stored):
        exp, restorer = stored
        manifests = dict(exp.controller.manifests)
        plan = restorer.plan_resume("job0")
        corrupt_stored_object(
            exp.store.backend, _newest_chunk_key(plan[0])
        )
        scan_job(exp.store, "job0")
        # Retention sees the stored quarantine marker on re-discovery.
        manifests = restorer.list_manifests("job0")
        manager = RetentionManager(exp.store, keep_last=1)
        manager.enforce(
            manifests, exp.controller.policy, "job0",
            now_s=exp.clock.now,
        )
        # The quarantined newest was deleted, not retained; the newest
        # *clean* checkpoint holds the keep slot.
        assert plan[0].checkpoint_id not in manifests
        assert plan[1].checkpoint_id in manifests


class TestBitRotInjection:
    def test_armed_backend_rots_deterministically(self):
        payload = bytes(range(256)) * 4
        stored_bytes = []
        for _ in range(2):
            backend = CrashingBackend(InMemoryBackend())
            backend.arm_bitrot(1.0, seed=5)
            ops.write(backend, "k", payload)
            assert backend.bitrot_injected == ["k"]
            stored_bytes.append(ops.read(backend, "k"))
        assert stored_bytes[0] == stored_bytes[1]
        diff = [
            i
            for i, (a, b) in enumerate(zip(payload, stored_bytes[0]))
            if a != b
        ]
        assert len(diff) == 1  # exactly one byte flipped
        xor = payload[diff[0]] ^ stored_bytes[0][diff[0]]
        assert xor and xor & (xor - 1) == 0  # exactly one bit

    def test_disarmed_backend_stores_faithfully(self):
        backend = CrashingBackend(InMemoryBackend())
        backend.arm_bitrot(1.0)
        backend.disarm_bitrot()
        ops.write(backend, "k", b"abc")
        assert ops.read(backend, "k") == b"abc"
        assert backend.bitrot_injected == []

    def test_zero_length_objects_never_rot(self):
        backend = CrashingBackend(InMemoryBackend())
        backend.arm_bitrot(1.0)
        ops.write(backend, "k", b"")
        assert ops.read(backend, "k") == b""
        assert backend.bitrot_injected == []

    def test_targeted_corruption_flips_one_byte(self):
        backend = CrashingBackend(InMemoryBackend())
        ops.write(backend, "k", b"abcdef")
        backend.corrupt_object("k", offset=2)
        rotted = ops.read(backend, "k")
        assert rotted != b"abcdef"
        assert rotted[:2] == b"ab" and rotted[3:] == b"def"
        assert backend.bitrot_injected == ["k"]


class TestFleetBitRotStorm:
    def test_storm_restores_through_injected_corruption(self):
        """Seeded bit rot corrupts live checkpoints; the rack storm's
        restores must still all land (planner falls back), with the
        fallback traffic visible in the aggregates."""
        from repro.fleet import format_fleet_report, run_fleet

        config = FleetConfig(
            num_jobs=6,
            intervals_per_job=4,
            seed=42,
            bitrot_prob=0.1,
            storm_domain="rack",
            priority_mix=0.25,
        )
        _, report = run_fleet(config)
        assert report.bitrot_injected > 0
        assert report.restore_fallbacks > 0
        # Every recovery landed: either a (possibly fallback) restore
        # or an explicit scratch restart — never a hung job.
        for job in report.jobs:
            assert job.intervals == config.intervals_per_job
        text = format_fleet_report(report)
        assert "bit-rot injected writes:" in text
        assert "restore fallbacks:" in text


class TestMetricsTextfile:
    def test_render_groups_help_and_type_once(self):
        metrics = [
            Metric("m", 1, help="h", labels=(("job", "a"),)),
            Metric("m", 2.5, help="h", labels=(("job", "b"),)),
        ]
        text = render_textfile(metrics)
        assert text.count("# HELP m h") == 1
        assert text.count("# TYPE m gauge") == 1
        assert 'm{job="a"} 1\n' in text
        assert 'm{job="b"} 2.5\n' in text
        assert text.endswith("\n")

    def test_label_values_escaped(self):
        metric = Metric("m", 1, labels=(("k", 'a"b\\c\nd'),))
        assert metric.sample_line() == 'm{k="a\\"b\\\\c\\nd"} 1'

    def test_scan_metrics_from_report(self, stored, tmp_path):
        exp, restorer = stored
        corrupt_stored_object(
            exp.store.backend,
            _newest_chunk_key(restorer.plan_resume("job0")[0]),
        )
        report = scan_job(exp.store, "job0")
        path = write_textfile(
            tmp_path / "scan.prom", scan_metrics(report)
        )
        text = path.read_text()
        assert 'repro_scan_corrupt_objects{job="job0"} 1' in text
        assert 'repro_scan_quarantined_checkpoints{job="job0"} 1' in text
        assert 'repro_scan_checkpoints_scanned{job="job0"} 3' in text
