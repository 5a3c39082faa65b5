"""Property-based tests on the writer/restore path.

These drive the chunked writer with randomly generated shard states and
masks (no trainer in the loop) and assert the storage-level invariants:
exactly the masked rows are written, restore reproduces them, and byte
accounting matches the manifests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StorageConfig
from repro.core.manifest import KIND_FULL, KIND_INCREMENTAL
from repro.core.snapshot import ModelSnapshot, ShardSnapshot
from repro.core.writer import CheckpointWriter
from repro.data.state import ReaderState, TrainerProgress
from repro.distributed.clock import SimClock
from repro.storage.engine import drain
from repro.storage.object_store import ObjectStore

import backend_ops as ops


def make_snapshot(
    rng: np.random.Generator,
    rows: int,
    dim: int,
    mask: np.ndarray,
) -> ModelSnapshot:
    """A hand-built snapshot with one shard (no trainer needed)."""
    shard = ShardSnapshot(
        shard_id=0,
        table_id=0,
        row_start=0,
        row_end=rows,
        weight=rng.normal(0, 0.1, size=(rows, dim)).astype(np.float32),
        accumulator=rng.random(rows).astype(np.float32),
        mask=mask,
    )
    return ModelSnapshot(
        taken_at_s=0.0,
        interval_index=0,
        stall_time_s=0.0,
        dense_state={"w": np.ones((2, 2), dtype=np.float32)},
        shards={0: shard},
        reader_state=ReaderState(0, 0, 0),
        trainer_progress=TrainerProgress(0, 0, 0.0),
    )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_incremental_writes_exactly_masked_rows(data):
    rows = data.draw(st.integers(min_value=1, max_value=200))
    dim = data.draw(st.sampled_from([1, 4, 16]))
    chunk_rows = data.draw(st.integers(min_value=1, max_value=64))
    mask_bits = data.draw(
        st.lists(st.booleans(), min_size=rows, max_size=rows)
    )
    mask = np.array(mask_bits, dtype=bool)
    rng = np.random.default_rng(7)
    snapshot = make_snapshot(rng, rows, dim, mask)
    clock = SimClock()
    store = ObjectStore(StorageConfig(), clock)
    writer = CheckpointWriter(store, clock)

    from repro.quant import make_quantizer

    manifest, report = drain(writer.write_checkpoint_steps(
        snapshot, KIND_INCREMENTAL, "c", "j", "base", "one_shot",
        make_quantizer("none"), chunk_rows=chunk_rows,
    ))
    assert report.rows_written == int(mask.sum())
    assert manifest.embedding_rows_stored == int(mask.sum())
    # Every chunk respects the chunk size.
    for shard_record in manifest.shards:
        for chunk in shard_record.chunks:
            assert 0 < chunk.row_count <= chunk_rows


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_full_write_restore_roundtrip_bitexact(data):
    rows = data.draw(st.integers(min_value=1, max_value=128))
    dim = data.draw(st.sampled_from([2, 8]))
    chunk_rows = data.draw(st.integers(min_value=1, max_value=50))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    mask = np.zeros(rows, dtype=bool)
    snapshot = make_snapshot(rng, rows, dim, mask)
    clock = SimClock()
    store = ObjectStore(StorageConfig(), clock)
    writer = CheckpointWriter(store, clock)

    from repro.quant import make_quantizer
    from repro.serialize.codec import decode_array, decode_payload
    from repro.serialize.format import decode_frames

    manifest, _ = drain(writer.write_checkpoint_steps(
        snapshot, KIND_FULL, "c", "j", None, "full",
        make_quantizer("none"), chunk_rows=chunk_rows,
    ))
    # Reassemble the table from stored chunks and compare bit-exactly.
    reassembled = np.zeros((rows, dim), dtype=np.float32)
    accum = np.zeros(rows, dtype=np.float32)
    for shard_record in manifest.shards:
        for chunk in shard_record.chunks:
            meta, frames = decode_frames(ops.read(store.backend, chunk.key))
            chunk_rows_arr = decode_array(frames[0].payload)
            if chunk_rows_arr.size == 0:
                base = int(meta["row_base"])
                chunk_rows_arr = np.arange(
                    base, base + int(meta["row_count"])
                )
            weights = decode_payload(frames[1].payload)
            if not isinstance(weights, np.ndarray):
                from repro.quant.registry import dequantize_tensor

                weights = dequantize_tensor(weights)
            reassembled[chunk_rows_arr] = weights
            accum[chunk_rows_arr] = decode_array(
                frames[2].payload
            ).reshape(-1)
    np.testing.assert_array_equal(
        reassembled, snapshot.shards[0].weight
    )
    np.testing.assert_array_equal(
        accum, snapshot.shards[0].accumulator
    )


@given(
    chunk_rows=st.integers(min_value=1, max_value=40),
    quantizer_name=st.sampled_from(["none", "asymmetric", "adaptive"]),
)
@settings(max_examples=20, deadline=None)
def test_manifest_bytes_match_store_accounting(chunk_rows, quantizer_name):
    rng = np.random.default_rng(13)
    mask = rng.random(100) < 0.4
    snapshot = make_snapshot(rng, 100, 8, mask)
    clock = SimClock()
    store = ObjectStore(StorageConfig(), clock)
    writer = CheckpointWriter(store, clock)

    from repro.quant import make_quantizer

    manifest, report = drain(writer.write_checkpoint_steps(
        snapshot, KIND_INCREMENTAL, "c", "j", "b", "one_shot",
        make_quantizer(quantizer_name, bits=4), chunk_rows=chunk_rows,
    ))
    # Manifest chunk byte totals equal the writer's report...
    assert manifest.logical_bytes == report.logical_bytes
    # ...and every referenced object exists with the declared size.
    for shard_record in manifest.shards:
        for chunk in shard_record.chunks:
            assert store.exists(chunk.key)
            assert store.object_size(chunk.key) == chunk.logical_bytes


@given(mask_fraction=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_incremental_size_proportional_to_mask(mask_fraction):
    """More modified rows -> more bytes, pinned at the endpoints."""
    rng = np.random.default_rng(21)
    rows = 200
    count = int(rows * mask_fraction)
    mask = np.zeros(rows, dtype=bool)
    mask[:count] = True
    snapshot = make_snapshot(rng, rows, 8, mask)
    clock = SimClock()
    store = ObjectStore(StorageConfig(), clock)
    writer = CheckpointWriter(store, clock)

    from repro.quant import make_quantizer

    manifest, report = drain(writer.write_checkpoint_steps(
        snapshot, KIND_INCREMENTAL, "c", "j", "b", "one_shot",
        make_quantizer("none"), chunk_rows=64,
    ))
    assert report.rows_written == count
    if count == 0:
        assert manifest.embedding_rows_stored == 0
    per_row = 8 * 4  # fp32 weights
    assert report.logical_bytes >= count * per_row
