"""The shipped codec and frame format against ``reference_serialize``.

PR 17 made everything about a stored object that does not depend on its
payload computed once (cached array headers and named-frame ends, flat
``encode_frames`` / ``decode_frames``, an offset-based decoder) under
the promise that no stored byte, decoded value or error message
changes. The pre-PR bodies live on verbatim in
``tests/reference_serialize.py``; everything here asserts equality with
them — raw bytes for encoders, dtype + shape + raw bytes for decoded
arrays, exception type + message for every corruption.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
import reference_serialize as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_property_writer import make_snapshot

from repro.config import StorageConfig
from repro.core.manifest import KIND_FULL, dense_key
from repro.core.writer import CheckpointWriter
from repro.distributed.clock import SimClock
from repro.errors import SerializationError
from repro.quant import make_quantizer
from repro.quant.base import QuantizedTensor
from repro.quant.uniform import AsymmetricQuantizer
from repro.serialize import codec
from repro.serialize import format as fmt
from repro.storage.object_store import ObjectStore
from repro.storage.requests import OP_GET, OP_LIST, StorageRequest

DTYPES = (
    "float64",
    "float32",
    "float16",
    "int64",
    "int32",
    "int16",
    "uint8",
    "int8",
    "bool",
)
SHAPES = ((), (0,), (7,), (3, 5), (0, 4), (4, 0))
QUANTIZERS = (
    "none",
    "float16",
    "symmetric",
    "asymmetric",
    "adaptive",
    "kmeans",
)


def _c(arr):
    return np.array(arr, order="C")


def _fortran(arr):
    return np.array(arr, order="F")


def _sliced(arr):
    """The same values as every other element of a wider buffer."""
    if arr.ndim == 0:
        return np.stack([arr, arr])[1:].reshape(())
    wide = np.repeat(arr, 2, axis=-1)
    return wide[..., ::2]


def _big_endian(arr):
    return arr.astype(arr.dtype.newbyteorder(">"))


LAYOUTS = {"C": _c, "F": _fortran, "sliced": _sliced, ">": _big_endian}


def _values(dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(len(shape) * 31 + len(dtype))
    raw = rng.normal(0.0, 100.0, size=shape)
    if dtype == "bool":
        return np.asarray(raw > 0)
    return raw.astype(dtype)


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_tensor(actual: QuantizedTensor, expected: QuantizedTensor):
    assert actual.quantizer == expected.quantizer
    assert actual.bit_width == expected.bit_width
    assert actual.shape == expected.shape
    assert_identical(actual.codes, expected.codes)
    assert list(actual.params) == list(expected.params)
    for name in expected.params:
        assert_identical(actual.params[name], expected.params[name])


def describe(value):
    """A decoder's result in a form two decoders can be compared by."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, QuantizedTensor):
        return (
            "quantized",
            value.quantizer,
            value.bit_width,
            value.shape,
            describe(value.codes),
            [(k, describe(v)) for k, v in value.params.items()],
        )
    if isinstance(value, tuple):
        meta, chunks = value
        return ("frames", meta, [(c.chunk_id, c.payload) for c in chunks])
    return value


def outcome(fn, blob):
    """What ``fn`` makes of ``blob``: its described result, or the
    exception's type and message."""
    try:
        return describe(fn(blob))
    except Exception as exc:  # noqa: BLE001 - the comparison is the test
        return ("raised", type(exc).__name__, str(exc))


def corruptions(blob: bytes):
    """Every truncation, and every byte flipped two ways (``^0xFF``
    breaks UTF-8 and CRCs; ``^0x01`` turns a header into a different
    *valid* one — another digit, another dtype name)."""
    for cut in range(len(blob)):
        yield f"cut@{cut}", blob[:cut]
    for mask, at in itertools.product((0xFF, 0x01), range(len(blob))):
        flipped = bytearray(blob)
        flipped[at] ^= mask
        yield f"flip{mask:#x}@{at}", bytes(flipped)
    yield "trailing", blob + b"\x00junk"


# ----------------------------------------------------------------------
# Arrays
# ----------------------------------------------------------------------


class TestArrayBytes:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_encode_and_decode_match_the_reference(
        self, dtype, shape, layout
    ):
        arr = LAYOUTS[layout](_values(dtype, shape))
        assert arr.shape == shape
        blob = codec.encode_array(arr)
        assert blob == ref.encode_array(arr)
        assert codec.encode_payload(arr) == blob
        decoded = codec.decode_array(blob)
        assert_identical(decoded, ref.decode_array(blob))
        assert_identical(codec.decode_payload(blob), decoded)
        assert decoded.flags.writeable and decoded.flags.owndata
        assert decoded.dtype.isnative

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([object()]),
            np.zeros(3, dtype=np.complex64),
            np.zeros(3, dtype=np.uint16),
            np.zeros(3, dtype=np.uint32),
            np.array(["a", "b"]),
            np.zeros(2, dtype=[("a", "f4")]),
        ],
        ids=lambda a: a.dtype.name,
    )
    def test_refused_dtypes_refused_alike(self, arr):
        with pytest.raises(SerializationError) as expected:
            ref.encode_array(arr)
        for _ in range(2):  # a refusal is never cached
            with pytest.raises(SerializationError) as actual:
                codec.encode_array(arr)
            assert str(actual.value) == str(expected.value)

    def test_more_distinct_headers_than_the_cache_holds(self):
        limit = codec._array_header.cache_info().maxsize
        for n in range(limit + 50):
            arr = np.zeros(n, dtype=np.int8)
            assert codec.encode_array(arr) == ref.encode_array(arr)
        assert codec._array_header.cache_info().currsize <= limit

    def test_disallowed_dtype_in_a_header_refused_alike(self):
        blob = ref._header(
            {"kind": "array", "dtype": "uint16", "shape": [1]}
        ) + bytes(2)
        expected = outcome(ref.decode_array, blob)
        assert expected[1] == "SerializationError"
        assert outcome(codec.decode_array, blob) == expected
        assert outcome(codec.decode_payload, blob) == outcome(
            ref.decode_payload, blob
        )

    @pytest.mark.parametrize("dtype", ["float32", "int64", "bool"])
    def test_every_corruption_of_an_array_payload(self, dtype):
        blob = ref.encode_array(_values(dtype, (3, 5)))
        for label, bad in corruptions(blob):
            for new, old in (
                (codec.decode_array, ref.decode_array),
                (codec.decode_payload, ref.decode_payload),
            ):
                assert outcome(new, bad) == outcome(old, bad), label

    def test_wrong_kind_messages(self, trained_tensor):
        quantized = ref.encode_quantized(
            AsymmetricQuantizer(4).quantize(trained_tensor)
        )
        array = ref.encode_array(trained_tensor)
        unknown = ref._header({"kind": "tensor"})
        for new, old, blob in (
            (codec.decode_array, ref.decode_array, quantized),
            (codec.decode_quantized, ref.decode_quantized, array),
            (codec.decode_payload, ref.decode_payload, unknown),
        ):
            expected = outcome(old, blob)
            assert expected[1] == "SerializationError"
            assert outcome(new, blob) == expected


# ----------------------------------------------------------------------
# Quantized tensors
# ----------------------------------------------------------------------


def _quantized(name: str, bits: int, compact: bool, tensor) -> QuantizedTensor:
    return make_quantizer(
        name, bits=bits, compact_params=compact, kmeans_iterations=3
    ).quantize(tensor)


class TestQuantizedBytes:
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("name", QUANTIZERS)
    def test_encode_and_decode_match_the_reference(
        self, name, bits, compact, trained_tensor
    ):
        qt = _quantized(name, bits, compact, trained_tensor[:64, :8])
        blob = codec.encode_quantized(qt)
        assert blob == ref.encode_quantized(qt)
        assert codec.encode_payload(qt) == blob
        expected = ref.decode_quantized(blob)
        assert_same_tensor(codec.decode_quantized(blob), expected)
        assert_same_tensor(codec.decode_payload(blob), expected)

    def test_the_writers_accumulator_row(self, rng):
        accumulator = rng.random(300).astype(np.float32)
        qt = AsymmetricQuantizer(8).quantize(accumulator.reshape(1, -1))
        assert codec.encode_payload(qt) == ref.encode_payload(qt)

    def test_unknown_object_refused_alike(self):
        assert outcome(codec.encode_payload, "x") == outcome(
            ref.encode_payload, "x"
        )

    @pytest.mark.parametrize("name", ["asymmetric", "kmeans"])
    def test_every_corruption_of_a_quantized_payload(
        self, name, trained_tensor
    ):
        blob = ref.encode_quantized(
            _quantized(name, 4, False, trained_tensor[:3, :4])
        )
        for label, bad in corruptions(blob):
            for new, old in (
                (codec.decode_quantized, ref.decode_quantized),
                (codec.decode_payload, ref.decode_payload),
            ):
                assert outcome(new, bad) == outcome(old, bad), label

    def test_trailing_bytes_message(self, trained_tensor):
        blob = ref.encode_quantized(
            AsymmetricQuantizer(4).quantize(trained_tensor)
        )
        expected = outcome(ref.decode_quantized, blob + b"x")
        assert expected == (
            "raised",
            "SerializationError",
            "trailing bytes after quantized payload",
        )
        assert outcome(codec.decode_quantized, blob + b"x") == expected


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------

UNICODE_META = {"name": "tablé ✓", "nested": {"k": [1, 2.5, None]}, "b": 1}


class TestFrameBytes:
    @pytest.mark.parametrize("count", [0, 1, 50])
    @pytest.mark.parametrize("meta", [{}, {"id": "t"}, UNICODE_META], ids=len)
    def test_encode_and_decode_match_the_reference(self, meta, count):
        chunks = [
            (i * 7 % 50, bytes([i]) * (i * 13 % 40)) for i in range(count)
        ]
        blob = fmt.encode_frames(meta, chunks)
        assert blob == ref.encode_frames(meta, chunks)
        assert outcome(fmt.decode_frames, blob) == outcome(
            ref.decode_frames, blob
        )
        assert outcome(fmt.decode_frames, blob)[2] == chunks

    def test_named_frame_is_the_reference_one_chunk_frame(self):
        for name in ("bottom.0.weight", "tablé ✓", ""):
            for payload in (b"", b"\x00" * 33, bytes(range(256)) * 17):
                assert fmt.encode_named_frame(
                    name, payload
                ) == ref.encode_frames({"name": name}, [(0, payload)])

    @pytest.mark.parametrize("chunk_id", [-1, 0x1_0000_0000])
    def test_out_of_range_chunk_id_refused_alike(self, chunk_id):
        def encode(module):
            return lambda _: module.encode_frames({}, [(chunk_id, b"x")])

        expected = outcome(encode(ref), None)
        assert expected[1] == "SerializationError"
        assert outcome(encode(fmt), None) == expected

    def test_every_corruption_of_a_frame_stream(self):
        blob = ref.encode_frames(
            {"id": "t"}, [(0, b"payload-zero"), (3, b""), (1, b"\xff" * 9)]
        )
        seen = set()
        overflowed = 0
        for label, bad in corruptions(blob):
            expected = outcome(ref.decode_frames, bad)
            actual = outcome(fmt.decode_frames, bad)
            if expected[1] == "OverflowError":
                # The one divergence, and a fix: a payload length of
                # 2**63 or more escaped the reference as BytesIO's
                # OverflowError; the flat decoder reports the truncation
                # it is, as the SerializationError restore catches.
                overflowed += 1
                assert actual[1] == "SerializationError", label
                assert actual[2].startswith(
                    "truncated stream while reading chunk "
                ), label
                continue
            assert actual == expected, label
            seen.add(
                expected[2].split(" (")[0]
                if expected[0] == "raised"
                else "ok"
            )
        assert overflowed == 3  # top byte of each chunk's u64 length
        # The matrix really walked every branch of the decoder.
        for fragment in (
            "truncated stream while reading magic",
            "truncated stream while reading header",
            "truncated stream while reading metadata",
            "truncated stream while reading chunk magic",
            "truncated stream while reading chunk header",
            "truncated stream while reading chunk 0",
            "truncated stream while reading end frame",
            "chunk 0 CRC mismatch",
            "chunk id list CRC mismatch",
            "ok",  # bytes after the end frame are not read
        ):
            assert fragment in seen, fragment
        assert any(s.startswith("bad magic") for s in seen)
        assert any(s.startswith("bad chunk magic") for s in seen)
        assert any(s.startswith("corrupt metadata") for s in seen)
        assert any(s.startswith("unsupported frame version") for s in seen)
        assert any(s.startswith("end frame declares") for s in seen)

    @pytest.mark.parametrize(
        "bad",
        [
            b"",
            b"CN",
            b"XXXX" + bytes(20),
            ref.encode_frames({"a": 1}, [(0, b"x")])[:-12],  # no end frame
            ref.MAGIC + (99).to_bytes(2, "big") + bytes(4),  # version
            ref.MAGIC + b"\x00\x01\x00\x00\x00\x02{]",  # not JSON
            ref.MAGIC + b"\x00\x01\x00\x00\x00\x01\xff",  # not UTF-8
        ],
        ids=range(7),
    )
    def test_named_corruptions(self, bad):
        expected = outcome(ref.decode_frames, bad)
        assert expected[1] == "SerializationError"
        assert outcome(fmt.decode_frames, bad) == expected

    def test_bytearray_input_decodes_to_bytes_payloads(self):
        blob = bytearray(ref.encode_frames({}, [(0, b"abc")]))
        _, chunks = fmt.decode_frames(blob)
        assert type(chunks[0].payload) is bytes


# ----------------------------------------------------------------------
# Whole objects through the writer
# ----------------------------------------------------------------------

_NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_TENSORS = st.sampled_from(["float32", "float64", "float16", "int32"]).flatmap(
    lambda dtype: hnp.arrays(
        dtype=dtype,
        shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
        elements=(
            st.integers(-(2**31), 2**31 - 1)
            if dtype == "int32"
            else st.floats(width=16, allow_nan=True, allow_infinity=True)
        ),
    )
)


def _write(dense_state, rows=37, chunk_rows=10, quantizer="none"):
    """Write one full checkpoint of a hand-built one-shard snapshot
    around ``dense_state``; returns every stored object by key."""
    snapshot = make_snapshot(
        np.random.default_rng(5), rows, 4, np.zeros(rows, dtype=bool)
    )
    snapshot.dense_state = dense_state
    clock = SimClock()
    store = ObjectStore(StorageConfig(), clock)
    CheckpointWriter(store, clock).write_checkpoint(
        snapshot, KIND_FULL, "c", "j", None, "full",
        make_quantizer(quantizer, bits=4), chunk_rows=chunk_rows,
    )
    backend = store.backend
    return {
        key: backend.get_object(StorageRequest(OP_GET, key))
        for key in backend.list_objects(StorageRequest(OP_LIST, ""))
    }


def _reference_dense_blob(dense_state) -> bytes:
    """The pre-PR writer's dense-blob expression, on the reference."""
    return ref.encode_frames(
        {"checkpoint_id": "c", "kind": "dense"},
        [
            (
                i,
                ref.encode_frames(
                    {"name": name}, [(0, ref.encode_array(arr))]
                ),
            )
            for i, (name, arr) in enumerate(sorted(dense_state.items()))
        ],
    )


@given(
    dense_state=st.dictionaries(_NAMES, _TENSORS, max_size=5),
    fortran=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_dense_blob_through_the_writer_matches_the_reference(
    dense_state, fortran
):
    if fortran:
        dense_state = {k: np.asfortranarray(v) for k, v in dense_state.items()}
    objects = _write(dense_state)
    assert objects[dense_key("j", "c")] == _reference_dense_blob(dense_state)


@pytest.mark.parametrize("quantizer", ["none", "adaptive"])
def test_chunk_objects_are_in_the_reference_encoders_image(quantizer):
    """Decoding a stored chunk with the reference and re-encoding what
    came out with the reference reproduces the stored bytes: the shipped
    encoders wrote nothing the reference would have written otherwise."""
    objects = _write({"w": np.ones((2, 2), np.float32)}, quantizer=quantizer)
    chunk_keys = [k for k in objects if k.endswith(".bin") and "chunk" in k]
    assert len(chunk_keys) == 4  # head chunk, two lookahead, one beyond
    for key in chunk_keys:
        meta, frames = ref.decode_frames(objects[key])
        payloads = [
            (f.chunk_id, ref.encode_payload(ref.decode_payload(f.payload)))
            for f in frames
        ]
        assert ref.encode_frames(meta, payloads) == objects[key]


def test_shared_caches_under_four_threads():
    """Pool workers encode concurrently through the two header caches;
    more distinct keys than either holds forces evictions mid-race."""
    shapes = [(n, m) for n in range(40) for m in range(30)]
    expected = {
        shape: ref.encode_frames(
            {"name": str(shape)},
            [(0, ref.encode_array(np.zeros(shape, np.float16)))],
        )
        for shape in shapes
    }
    assert len(shapes) > codec._array_header.cache_info().maxsize
    failures: list[object] = []

    def work(offset: int) -> None:
        try:
            for shape in shapes[offset:] + shapes[:offset]:
                blob = fmt.encode_named_frame(
                    str(shape),
                    codec.encode_array(np.zeros(shape, np.float16)),
                )
                if blob != expected[shape]:
                    failures.append(shape)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    threads = [
        threading.Thread(target=work, args=(i * 300,)) for i in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
