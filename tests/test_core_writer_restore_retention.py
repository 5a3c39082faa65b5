"""Unit tests: checkpoint writer, restore path, retention."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manifest import (
    KIND_FULL,
    KIND_INCREMENTAL,
    CheckpointManifest,
)
from repro.core.policies import make_policy
from repro.core.restore import CheckpointRestorer
from repro.core.retention import RetentionManager
from repro.core.snapshot import SnapshotManager
from repro.core.writer import CheckpointWriter
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
)
from repro.quant import make_quantizer
from repro.storage.engine import drain

import backend_ops as ops


@pytest.fixture
def ready(tiny_experiment):
    """Experiment trained for one interval with a snapshot taken."""
    exp = tiny_experiment
    exp.reader.begin_interval(5)
    exp.trainer.train_interval(5)
    manager = SnapshotManager(exp.trainer, exp.clock)
    snapshot = manager.take_snapshot(
        0, exp.controller.tracker_set, exp.reader.collect_state()
    )
    writer = CheckpointWriter(exp.store, exp.clock)
    restorer = CheckpointRestorer(exp.store, exp.clock)
    return exp, snapshot, writer, restorer


class TestWriter:
    def test_full_checkpoint_stores_every_row(self, ready):
        exp, snapshot, writer, _ = ready
        manifest, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        total_rows = sum(s.rows for s in exp.plan.shards)
        assert report.rows_written == total_rows
        assert manifest.kind == KIND_FULL
        assert exp.store.exists("job0/ckpt-0/manifest.json")

    def test_incremental_stores_only_masked_rows(self, ready):
        exp, snapshot, writer, _ = ready
        modified = sum(
            int(s.mask.sum()) for s in snapshot.shards.values()
        )
        assert 0 < modified < sum(s.rows for s in exp.plan.shards)
        manifest, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_INCREMENTAL, "ckpt-1", "job0", "ckpt-0",
            "one_shot", make_quantizer("none"), chunk_rows=100,
        ))
        assert report.rows_written == modified

    def test_chunking_respects_chunk_rows(self, ready):
        exp, snapshot, writer, _ = ready
        manifest, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=64,
        ))
        for shard_record in manifest.shards:
            for chunk in shard_record.chunks:
                assert chunk.row_count <= 64

    def test_quantization_reduces_bytes(self, ready):
        exp, snapshot, writer, _ = ready
        _, fp32 = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "a", "job0", None, "full",
            make_quantizer("none"), chunk_rows=1000,
        ))
        _, q4 = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "b", "job0", None, "full",
            make_quantizer("asymmetric", bits=4), chunk_rows=1000,
        ))
        # At embedding dim 8 the per-row (xmin, xmax) metadata caps the
        # gain near 2x (the paper's section 6.3.2 caveat: savings are
        # sub-linear in bit width because of metadata).
        assert q4.logical_bytes < fp32.logical_bytes / 1.9

    def test_manifest_written_last_gates_validity(self, ready):
        exp, snapshot, writer, _ = ready
        manifest, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        chunk_ends = [
            t.end_s
            for t in exp.store.log.transfers("put")
            if "chunk" in t.key or "dense" in t.key
        ]
        assert manifest.valid_at_s >= max(chunk_ends)
        assert report.valid_at_s == manifest.valid_at_s

    def test_write_happens_in_background(self, ready):
        """Validity lands later than the trigger: training would continue
        while the storage link drains (decoupling, section 4.2)."""
        exp, snapshot, writer, _ = ready
        _, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        assert report.valid_at_s > exp.clock.now
        assert report.pipeline_duration_s > 0

    @staticmethod
    def _spy_on_pool(engine, monkeypatch) -> list[str]:
        calls: list[str] = []
        for name in ("submit_task", "run_task"):
            real = getattr(engine, name)

            def spy(fn, *args, _real=real, _name=name):
                calls.append(_name)
                return _real(fn, *args)

            monkeypatch.setattr(engine, name, spy)
        return calls

    def test_one_chunk_checkpoint_takes_no_pool_round_trip(
        self, ready, monkeypatch
    ):
        exp, snapshot, writer, _ = ready
        shard_id, shard = next(iter(snapshot.shards.items()))
        snapshot.shards = {shard_id: shard}
        engine = exp.store.engine
        calls = self._spy_on_pool(engine, monkeypatch)
        _, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("asymmetric", bits=4), chunk_rows=10**6,
        ))
        assert report.num_chunks == 1
        # The head chunk ran on this thread, and the engine's books say
        # so: one task, all of it waited for, nothing overlapped.
        assert calls == ["run_task"]
        assert engine.pool_tasks == 1
        assert report.measured_quantize_s > 0.0
        assert engine.pool_busy_s >= report.measured_quantize_s
        assert engine.pool_wait_s == engine.pool_busy_s
        assert engine.pool_overlap_s == 0.0
        assert report.measured_wait_s >= report.measured_quantize_s
        assert report.measured_overlap_s == 0.0

    def test_chunks_after_the_head_still_go_to_the_pool_first(
        self, ready, monkeypatch
    ):
        exp, snapshot, writer, _ = ready
        shard_id, shard = next(iter(snapshot.shards.items()))
        snapshot.shards = {shard_id: shard}
        engine = exp.store.engine
        calls = self._spy_on_pool(engine, monkeypatch)
        _, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("asymmetric", bits=4),
            chunk_rows=-(-shard.weight.shape[0] // 3),
        ))
        assert report.num_chunks == 3
        # Both lookahead chunks are in flight before the head chunk
        # starts on this thread, so they overlap it.
        assert calls == ["submit_task", "submit_task", "run_task"]
        assert engine.pool_tasks == 3
        assert engine.pool_busy_s >= report.measured_quantize_s

    @pytest.mark.parametrize("kind", [KIND_FULL, KIND_INCREMENTAL])
    def test_quantize_tasks_read_full_chunks_in_place(
        self, ready, monkeypatch, kind
    ):
        """A full checkpoint's chunks are contiguous row ranges, so the
        quantize tasks get views of the snapshot; an incremental one's
        masked rows are gathered. Either way the snapshot is untouched."""
        exp, snapshot, writer, _ = ready
        engine = exp.store.engine
        handed: list[tuple[np.ndarray, np.ndarray]] = []
        for name in ("submit_task", "run_task"):
            real = getattr(engine, name)

            def spy(fn, *args, _real=real):
                handed.append((args[1], args[2]))
                return _real(fn, *args)

            monkeypatch.setattr(engine, name, spy)
        before = {
            i: (s.weight.copy(), s.accumulator.copy())
            for i, s in snapshot.shards.items()
        }
        drain(writer.write_checkpoint_steps(
            snapshot, kind, "ckpt-0", "job0",
            None if kind == KIND_FULL else "base", "one_shot",
            make_quantizer("asymmetric", bits=4), chunk_rows=100,
        ))
        assert len(handed) > len(snapshot.shards)
        shares = {
            np.shares_memory(arr, base)
            for pair in handed
            for arr in pair
            for s in snapshot.shards.values()
            for base in (s.weight, s.accumulator)
        }
        assert (True in shares) == (kind == KIND_FULL)
        for i, s in snapshot.shards.items():
            assert s.weight.tobytes() == before[i][0].tobytes()
            assert s.accumulator.tobytes() == before[i][1].tobytes()

    def test_manifest_json_built_once(self, ready, monkeypatch):
        exp, snapshot, writer, _ = ready
        calls = []
        real = CheckpointManifest.to_json

        def counting(self):
            calls.append(self.checkpoint_id)
            return real(self)

        monkeypatch.setattr(CheckpointManifest, "to_json", counting)
        manifest, _ = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        assert calls == ["ckpt-0"]
        stored = ops.read(exp.store.backend, "job0/ckpt-0/manifest.json")
        assert stored == real(manifest).encode("utf-8")

    def test_bad_chunk_rows_rejected(self, ready):
        _, snapshot, writer, _ = ready
        with pytest.raises(CheckpointError):
            drain(writer.write_checkpoint_steps(
                snapshot, KIND_FULL, "c", "job0", None, "full",
                make_quantizer("none"), chunk_rows=0,
            ))

    def test_unknown_kind_rejected(self, ready):
        _, snapshot, writer, _ = ready
        with pytest.raises(CheckpointError, match="kind"):
            drain(writer.write_checkpoint_steps(
                snapshot, "differential", "c", "job0", None, "full",
                make_quantizer("none"), chunk_rows=10,
            ))


class TestRestore:
    def test_full_roundtrip_fp32_is_exact(self, ready):
        exp, snapshot, writer, restorer = ready
        manifest, _ = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        expected = {
            t: exp.model.table_weight(t).copy()
            for t in range(exp.model.num_tables)
        }
        expected_accum = {
            t: exp.model.table_accumulator(t).copy()
            for t in range(exp.model.num_tables)
        }
        exp.model.reinitialize()
        report = drain(restorer.restore_steps(
            exp.model, manifest, {"ckpt-0": manifest}, reader=exp.reader
        ))
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                exp.model.table_weight(t), expected[t]
            )
            np.testing.assert_allclose(
                exp.model.table_accumulator(t),
                expected_accum[t],
                rtol=1e-2,  # accumulator rides along 8-bit quantized
                atol=1e-4,
            )
        assert report.chain_ids == ["ckpt-0"]
        assert exp.model.batches_trained == 5

    def test_quantized_roundtrip_bounded_error(self, ready):
        exp, snapshot, writer, restorer = ready
        manifest, _ = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "q", "job0", None, "full",
            make_quantizer("asymmetric", bits=8), chunk_rows=100,
        ))
        expected = exp.model.table_weight(0).copy()
        exp.model.reinitialize()
        drain(restorer.restore_steps(exp.model, manifest, {"q": manifest}))
        got = exp.model.table_weight(0)
        row_range = expected.max(axis=1) - expected.min(axis=1)
        np.testing.assert_array_less(
            np.abs(got - expected).max(axis=1), row_range / 255 + 1e-6
        )

    def test_baseline_plus_increment_chain(self, tiny_experiment):
        exp = tiny_experiment
        manager = SnapshotManager(exp.trainer, exp.clock)
        writer = CheckpointWriter(exp.store, exp.clock)
        restorer = CheckpointRestorer(exp.store, exp.clock)
        policy = make_policy("one_shot")

        exp.reader.begin_interval(4)
        exp.trainer.train_interval(4)
        snap0 = manager.take_snapshot(
            0, exp.controller.tracker_set, exp.reader.collect_state()
        )
        base, _ = drain(writer.write_checkpoint_steps(
            snap0, KIND_FULL, "base", "job0", None, "one_shot",
            make_quantizer("none"), chunk_rows=100,
        ))
        snap0.release(exp.trainer)
        # one_shot: tracker keeps accumulating after the baseline.
        exp.controller.tracker_set.reset_all()

        exp.reader.begin_interval(4)
        exp.trainer.train_interval(4)
        snap1 = manager.take_snapshot(
            1, exp.controller.tracker_set, exp.reader.collect_state()
        )
        inc, _ = drain(writer.write_checkpoint_steps(
            snap1, KIND_INCREMENTAL, "inc", "job0", "base", "one_shot",
            make_quantizer("none"), chunk_rows=100,
        ))
        snap1.release(exp.trainer)

        expected = exp.model.table_weight(0).copy()
        exp.model.reinitialize()
        manifests = {"base": base, "inc": inc}
        report = drain(restorer.restore_steps(
            exp.model, inc, manifests, reader=exp.reader, policy=policy
        ))
        assert report.chain_ids == ["base", "inc"]
        np.testing.assert_array_equal(exp.model.table_weight(0), expected)
        assert exp.model.batches_trained == 8
        assert exp.reader.collect_state().next_batch_index == 8

    def test_corrupt_chunk_detected(self, ready):
        exp, snapshot, writer, restorer = ready
        manifest, _ = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        chunk_key = manifest.shards[0].chunks[0].key
        blob = bytearray(ops.read(exp.store.backend, chunk_key))
        blob[len(blob) // 2] ^= 0xFF
        ops.write(exp.store.backend, chunk_key, bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            drain(
                restorer.restore_steps(
                    exp.model, manifest, {"ckpt-0": manifest}
                )
            )

    def test_latest_valid_respects_time(self, ready):
        exp, snapshot, writer, restorer = ready
        manifest, report = drain(writer.write_checkpoint_steps(
            snapshot, KIND_FULL, "ckpt-0", "job0", None, "full",
            make_quantizer("none"), chunk_rows=100,
        ))
        # Before the write completes: nothing valid.
        assert restorer.plan_resume("job0") == []
        # After: the checkpoint is found.
        exp.clock.advance_to(report.valid_at_s + 1)
        found = restorer.plan_resume("job0")
        assert found
        assert found[0].checkpoint_id == "ckpt-0"


class TestRetention:
    def test_keeps_last_and_protects_bases(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.config  # uses default keep_last=2
        controller = exp.controller
        controller.run_intervals(4)
        manager = RetentionManager(exp.store, keep_last=1)
        manifests = dict(controller.manifests)
        policy = controller.policy
        report = manager.enforce(manifests, policy, "job0")
        # Whatever was deleted, the newest checkpoint's chain survives.
        newest = max(manifests.values(), key=lambda m: m.interval_index)
        chain = policy.restore_chain(newest, manifests)
        for link in chain:
            assert exp.store.exists(
                f"job0/{link.checkpoint_id}/manifest.json"
            )
        for deleted in report.deleted_ids:
            assert not exp.store.list_keys(f"job0/{deleted}/")

    def test_invalid_keep_last(self, tiny_experiment):
        with pytest.raises(CheckpointError):
            RetentionManager(tiny_experiment.store, keep_last=0)
