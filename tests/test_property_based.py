"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.predictor import HistoryPredictor
from repro.distributed.clock import SimClock, Timeline
from repro.quant.packing import pack_bits, packed_size, unpack_bits
from repro.quant.uniform import (
    AsymmetricQuantizer,
    uniform_dequantize_rows,
    uniform_quantize_rows,
)
from repro.serialize.codec import decode_array, encode_array
from repro.serialize.compress import RleCompressor
from repro.serialize.format import decode_frames, encode_frames

# ----------------------------------------------------------------------
# Bit packing
# ----------------------------------------------------------------------


@given(
    bits=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_roundtrip(bits, data):
    count = data.draw(st.integers(min_value=0, max_value=300))
    codes = data.draw(
        hnp.arrays(
            np.uint8,
            (count,),
            elements=st.integers(0, (1 << bits) - 1),
        )
    )
    out = unpack_bits(pack_bits(codes, bits), bits, count)
    np.testing.assert_array_equal(out, codes)


@given(
    bits=st.integers(min_value=1, max_value=8),
    count=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_packed_size_is_tight(bits, count):
    size = packed_size(count, bits)
    assert size * 8 >= count * bits
    assert (size - 1) * 8 < count * bits or size == 0


# ----------------------------------------------------------------------
# Uniform quantization
# ----------------------------------------------------------------------

finite_rows = hnp.arrays(
    np.float32,
    st.tuples(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=24),
    ),
    elements=st.floats(
        min_value=-100.0, max_value=100.0, width=32,
        allow_nan=False, allow_infinity=False,
    ),
)


@given(tensor=finite_rows, bits=st.sampled_from([2, 3, 4, 8]))
@settings(max_examples=60, deadline=None)
def test_uniform_quantization_error_bounded(tensor, bits):
    """Reconstruction error never exceeds half a quantization step."""
    xmin = tensor.min(axis=1)
    xmax = tensor.max(axis=1)
    codes = uniform_quantize_rows(tensor, xmin, xmax, bits)
    recon = uniform_dequantize_rows(codes, xmin, xmax, bits)
    step = (xmax - xmin) / ((1 << bits) - 1)
    err = np.abs(recon - tensor).max(axis=1)
    # Tolerance covers fp32 rounding of the grid arithmetic itself.
    tolerance = step / 2 + 1e-3 * np.maximum(1.0, np.abs(tensor).max())
    assert np.all(err <= tolerance)


@given(tensor=finite_rows, bits=st.sampled_from([2, 4, 8]))
@settings(max_examples=40, deadline=None)
def test_quantize_dequantize_idempotent(tensor, bits):
    """Quantizing an already-dequantized tensor is a fixed point:
    grid points map to themselves."""
    q = AsymmetricQuantizer(bits)
    once = q.roundtrip(tensor)
    twice = q.roundtrip(once)
    np.testing.assert_allclose(twice, once, atol=1e-4)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


@given(
    meta=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(st.integers(), st.text(max_size=12), st.booleans()),
        max_size=4,
    ),
    chunks=st.lists(st.binary(max_size=200), max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_frame_roundtrip(meta, chunks):
    indexed = list(enumerate(chunks))
    out_meta, out_chunks = decode_frames(encode_frames(meta, indexed))
    assert out_meta == meta
    assert [(c.chunk_id, c.payload) for c in out_chunks] == indexed


@given(
    arr=hnp.arrays(
        st.sampled_from([np.float32, np.int64, np.uint8]),
        hnp.array_shapes(max_dims=3, max_side=16),
        elements=st.integers(0, 100),
    )
)
@settings(max_examples=60, deadline=None)
def test_array_codec_roundtrip(arr):
    out = decode_array(encode_array(arr))
    assert out.dtype == arr.dtype
    np.testing.assert_array_equal(out, arr)


@given(data=st.binary(max_size=2000))
@settings(max_examples=80, deadline=None)
def test_rle_roundtrip(data):
    rle = RleCompressor()
    assert rle.decompress(rle.compress(data)) == data


# ----------------------------------------------------------------------
# Predictor
# ----------------------------------------------------------------------


@given(
    sizes=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        max_size=20,
    )
)
@settings(max_examples=80, deadline=None)
def test_history_predictor_matches_closed_form(sizes):
    """The implementation equals the paper's formula verbatim."""
    predictor = HistoryPredictor()
    result = predictor.should_take_full(sizes)
    if not sizes:
        assert result is False
    else:
        fc = 1.0 + sum(sizes)
        ic = (len(sizes) + 1) * sizes[-1]
        assert result == (fc <= ic)


# ----------------------------------------------------------------------
# Clock / timeline
# ----------------------------------------------------------------------


@given(
    durations=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_timeline_spans_never_overlap(durations):
    clock = SimClock()
    lane = Timeline(clock, "x")
    spans = [lane.submit(d) for d in durations]
    for a, b in zip(spans, spans[1:]):
        assert b.start >= a.end
    assert lane.free_at == spans[-1].end


@given(
    advances=st.lists(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_clock_is_monotone_and_conserves_time(advances):
    clock = SimClock()
    for d in advances:
        before = clock.now
        clock.advance(d, "step")
        assert clock.now >= before
    assert clock.now == pytest.approx(sum(advances), abs=1e-6)
    assert clock.total("step") == pytest.approx(sum(advances), abs=1e-6)


# ----------------------------------------------------------------------
# Tracker
# ----------------------------------------------------------------------


@given(
    marks=st.lists(
        st.lists(st.integers(min_value=0, max_value=199), max_size=30),
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_tracker_mask_equals_set_union(marks):
    from repro.core.tracker import ModifiedRowTracker
    from repro.distributed.sharding import Shard
    from repro.distributed.topology import DeviceId

    shard = Shard(0, 0, 0, 200, DeviceId(0, 0), 8)
    tracker = ModifiedRowTracker(shard)
    reference: set[int] = set()
    for batch in marks:
        tracker.mark_table_rows(np.array(batch, dtype=np.int64))
        reference.update(batch)
    np.testing.assert_array_equal(
        tracker.modified_table_rows(), sorted(reference)
    )
    assert tracker.modified_count == len(reference)


# ----------------------------------------------------------------------
# Object-store capacity accounting
# ----------------------------------------------------------------------

_KEYS = st.sampled_from(["a/0", "a/1", "a/2", "b/0", "b/1", "c"])
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.integers(0, 5000)),
        st.tuples(st.just("delete"), _KEYS, st.just(0)),
        st.tuples(
            st.just("delete_prefix"), st.sampled_from("abc"), st.just(0)
        ),
        # An object a previous process left on a durable backend.
        st.tuples(st.just("inherit"), _KEYS, st.integers(0, 5000)),
    ),
    max_size=40,
)


@given(ops=_STORE_OPS, multipart=st.booleans())
@settings(max_examples=80, deadline=None)
def test_live_bytes_running_total_equals_the_size_map(ops, multipart):
    """put / re-put after a delete / delete / delete_prefix /
    inherited-object reads in any order: the running total the store keeps is the sum it used
    to recompute, and the capacity samples agree with it."""
    from repro.config import BackendConfig, StorageConfig
    from repro.errors import StorageError
    from repro.storage.object_store import ObjectStore
    from repro.storage.requests import OP_PUT, StorageRequest

    backend = (
        BackendConfig(kind="s3like", part_size_bytes=1024)
        if multipart
        else BackendConfig()
    )
    store = ObjectStore(StorageConfig(backend=backend), SimClock())
    model: dict[str, int] = {}
    peak = 0
    for op, key, size in ops:
        # Every landed PUT, DELETE and non-empty prefix batch samples
        # the peak; an inherited object's size read does not.
        sampled = op == "put"
        if op == "put":
            if key in model:
                store.delete(key)
                del model[key]
                peak = max(peak, sum(model.values()))
            store.put(key, bytes(size))
            model[key] = size
        elif op == "delete":
            if key in model:
                store.delete(key)
                del model[key]
                sampled = True
        elif op == "delete_prefix":
            store.delete_prefix(key)
            kept = {k: v for k, v in model.items() if not k.startswith(key)}
            sampled = len(kept) < len(model)
            model = kept
        elif key not in model:
            store.backend.put_object(
                StorageRequest(OP_PUT, key), bytes(size)
            )
            assert store.object_size(key) == size
            model[key] = size
        assert store._sizes == model
        assert store.live_logical_bytes == sum(model.values())
        assert store.stats().live_logical_bytes == sum(model.values())
        if sampled:
            peak = max(peak, sum(model.values()))
        assert store.stats().peak_logical_bytes == peak
    with pytest.raises(StorageError):
        store.object_size("never/written")
    assert store.live_logical_bytes == sum(model.values())
