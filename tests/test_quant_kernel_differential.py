"""The shipped quantization kernels against ``reference_quant``.

PR 15 replaced the quantizer's inner kernels (tile-blocked, in-place,
column-major greedy search; shift/mask packing) under the promise that
no stored byte changes. The pre-PR bodies live on verbatim in
``tests/reference_quant.py``; everything here asserts *bitwise* equality
with them — dtype, shape and raw bytes, so ``-0.0`` vs ``0.0`` or a
last-ulp drift in an fp64 error sum (numpy's reduce order changing under
a new release) fails loudly instead of surfacing as a drifting digest.
"""

from __future__ import annotations

import itertools
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import reference_quant as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import PackingError, QuantizationError
from repro.quant import adaptive, make_quantizer, packing, uniform
from repro.quant.adaptive import (
    AdaptiveAsymmetricQuantizer,
    greedy_range_search,
)
from repro.quant.packing import pack_bits, unpack_bits
from repro.serialize.codec import encode_payload
from repro.quant.uniform import (
    AsymmetricQuantizer,
    SymmetricQuantizer,
    block_rows,
    quantization_l2_per_row,
    uniform_dequantize_rows,
    uniform_quantize_rows,
)

DIMS = (1, 2, 3, 7, 8, 9, 16, 17, 64, 130)
BITS = tuple(range(1, 9))
NUM_BINS = (1, 2, 25, 50)
RATIOS = (0.05, 0.5, 1.0)

pytestmark = pytest.mark.filterwarnings(
    # The reference divides subnormal or crossing ranges by a zero
    # scale; what it does with the result is the test. The shipped
    # kernels' warnings are not filtered.
    "ignore::RuntimeWarning:reference_quant"
)


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_search(actual, expected) -> None:
    assert actual.iterations == expected.iterations
    assert_identical(actual.xmin, expected.xmin)
    assert_identical(actual.xmax, expected.xmax)
    assert_identical(actual.errors, expected.errors)


def assert_same_quantized(actual, expected) -> None:
    assert actual.shape == expected.shape
    assert actual.bit_width == expected.bit_width
    assert_identical(actual.codes, expected.codes)
    assert actual.params.keys() == expected.params.keys()
    for name, value in expected.params.items():
        assert_identical(actual.params[name], value)


@contextmanager
def small_tiles():
    """Shrink the tile so a few dozen rows already span several blocks."""
    with mock.patch.object(uniform, "_TILE_ELEMS", 64), mock.patch.object(
        uniform, "_MIN_TILE_ROWS", 4
    ):
        yield


@contextmanager
def reference_kernels():
    """Run the quantizer classes on the pre-PR kernels."""
    with mock.patch.multiple(
        adaptive,
        greedy_range_search=ref.greedy_range_search,
        uniform_quantize_rows=ref.uniform_quantize_rows,
        uniform_dequantize_rows=ref.uniform_dequantize_rows,
    ), mock.patch.multiple(
        uniform,
        uniform_quantize_rows=ref.uniform_quantize_rows,
        uniform_dequantize_rows=ref.uniform_dequantize_rows,
    ), mock.patch.multiple(
        packing, pack_bits=ref.pack_bits, unpack_bits=ref.unpack_bits
    ):
        yield


def outlier_matrix(
    rng: np.random.Generator, rows: int, dim: int
) -> np.ndarray:
    """Gaussian rows with outliers, plus the rows that break searches:
    constant, symmetric about zero, and tie-heavy (few distinct values).
    """
    x = rng.normal(0.0, 0.1, size=(rows, dim)).astype(np.float32)
    hit = rng.random(rows) < 0.3
    x[hit, rng.integers(0, dim, size=int(hit.sum()))] *= 25.0
    special = rng.permutation(rows)
    for i in special[: rows // 8]:
        x[i] = np.float32(rng.normal())
    for i in special[rows // 8 : rows // 4]:
        half = np.abs(x[i, : (dim + 1) // 2])
        x[i] = np.concatenate([half, -half])[:dim]
    for i in special[rows // 4 : rows // 2]:
        x[i] = rng.integers(-2, 3, size=dim) * np.float32(0.5)
    return x


def check_quantizers(x: np.ndarray, bits: int, **adaptive_args) -> None:
    """Packed codes, params and dequantized floats, all three uniform
    quantizer classes, ``compact_params`` on and off."""
    for compact in (False, True):
        for quantizer in (
            AdaptiveAsymmetricQuantizer(
                bits, compact_params=compact, **adaptive_args
            ),
            AsymmetricQuantizer(bits, compact_params=compact),
            SymmetricQuantizer(bits, compact_params=compact),
        ):
            with reference_kernels():
                expected = quantizer.quantize(x)
                expected_floats = quantizer.dequantize(expected)
            actual = quantizer.quantize(x)
            assert_same_quantized(actual, expected)
            assert_identical(quantizer.dequantize(actual), expected_floats)


# ----------------------------------------------------------------------
# Around the real block size
# ----------------------------------------------------------------------


def _rows_around_block(dim: int) -> tuple[int, ...]:
    block = block_rows(dim)
    return (block - 1, block, block + 1, 3 * block + 5)


@pytest.mark.parametrize("dim", DIMS)
def test_search_identical_around_the_block_size(dim):
    """``block - 1 / block / block + 1 / 3 * block + 5`` rows at the
    shipped tile size. The parameters rotate with the case so every bit
    width, bin count and ratio is met here; their full product runs on
    small tiles below."""
    rng = np.random.default_rng(1500 + dim)
    for case, rows in enumerate(_rows_around_block(dim), DIMS.index(dim)):
        x = outlier_matrix(rng, rows, dim)
        bits = BITS[case % len(BITS)]
        num_bins = NUM_BINS[case % len(NUM_BINS)]
        ratio = RATIOS[case % len(RATIOS)]
        assert_same_search(
            greedy_range_search(x, bits, num_bins, ratio),
            ref.greedy_range_search(x, bits, num_bins, ratio),
        )
    check_quantizers(x, bits, num_bins=num_bins, ratio=ratio)


def test_block_size_is_derived_from_dim_alone():
    assert [block_rows(d) for d in (1, 8, 16, 64, 130)] == [
        131072, 16384, 8192, 2048, 1008,
    ]
    # Wide rows keep a vectorisable inner loop instead of a 1-row tile.
    assert block_rows(1 << 20) == 64


# ----------------------------------------------------------------------
# Every parameter combination, on tiles small enough to afford it
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dim", DIMS)
def test_full_parameter_grid_identical(dim):
    rng = np.random.default_rng(2500 + dim)
    with small_tiles():
        x = outlier_matrix(rng, 3 * block_rows(dim) + 5, dim)
        for bits, num_bins, ratio in itertools.product(
            BITS, NUM_BINS, RATIOS
        ):
            assert_same_search(
                greedy_range_search(x, bits, num_bins, ratio),
                ref.greedy_range_search(x, bits, num_bins, ratio),
            )
        for bits in BITS:
            check_quantizers(x, bits, num_bins=25, ratio=1.0)


# ----------------------------------------------------------------------
# Hypothesis: ties, degenerate rows, layouts, dtypes
# ----------------------------------------------------------------------

_shapes = st.tuples(st.integers(1, 14), st.sampled_from(DIMS[:8]))
_BIG = float(np.float32(1e30))
_tie_values = [
    float(np.float32(v))
    for v in (-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 1e-45, 3e38)
]


def _tensors(dtype):
    width = 32 if dtype == np.float32 else 64
    return st.one_of(
        hnp.arrays(dtype, _shapes, elements=st.sampled_from(_tie_values)),
        hnp.arrays(
            dtype,
            _shapes,
            elements=st.floats(
                -_BIG, _BIG, width=width, allow_nan=False
            ),
        ),
    )


def _relayout(x: np.ndarray, layout: str) -> np.ndarray:
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "sliced":
        big = np.full((2 * x.shape[0], x.shape[1] + 2), 7, dtype=x.dtype)
        big[::2, 1:-1] = x
        return big[::2, 1:-1]
    return x


@given(
    tensor=st.one_of(_tensors(np.float32), _tensors(np.float64)),
    layout=st.sampled_from(["c", "fortran", "sliced"]),
    bits=st.sampled_from(BITS),
    num_bins=st.sampled_from(NUM_BINS),
    ratio=st.sampled_from(RATIOS),
)
@settings(max_examples=150, deadline=None)
def test_search_identical_on_generated_tensors(
    tensor, layout, bits, num_bins, ratio
):
    x = _relayout(tensor, layout)
    with small_tiles():
        assert_same_search(
            greedy_range_search(x, bits, num_bins, ratio),
            ref.greedy_range_search(x, bits, num_bins, ratio),
        )


@given(
    tensor=st.one_of(_tensors(np.float32), _tensors(np.float64)),
    layout=st.sampled_from(["c", "fortran", "sliced"]),
    bits=st.sampled_from(BITS),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_row_kernels_identical_on_arbitrary_bounds(
    tensor, layout, bits, data
):
    """Bounds need not be the row's min/max — the search hands in
    tightened ones, and nothing stops them crossing (``xmin > xmax``)."""
    x = _relayout(tensor, layout)
    bounds = hnp.arrays(
        np.float32,
        x.shape[0],
        elements=st.floats(-4.0, 4.0, width=32),
    )
    xmin, xmax = data.draw(bounds), data.draw(bounds)
    with small_tiles():
        codes = uniform_quantize_rows(x, xmin, xmax, bits)
        errors = quantization_l2_per_row(x, xmin, xmax, bits)
    assert_identical(codes, ref.uniform_quantize_rows(x, xmin, xmax, bits))
    # The reference summed with np.sum(axis=1) over whatever layout the
    # caller's tensor had, so on a Fortran-ordered one numpy reduced
    # sequentially instead of pairwise. The shipped kernel pins the
    # C-contiguous order — the only one the search and every in-repo
    # caller ever produced — for all layouts.
    assert_identical(
        errors,
        ref.quantization_l2_per_row(
            np.ascontiguousarray(x), xmin, xmax, bits
        ),
    )
    assert_identical(
        uniform_dequantize_rows(codes, xmin, xmax, bits),
        ref.uniform_dequantize_rows(codes, xmin, xmax, bits),
    )


def test_one_long_row_identical():
    """The writer quantizes the optimizer accumulator as a single
    ``(1, rows)`` vector: far wider than a tile."""
    x = np.random.default_rng(7).normal(size=(1, 70001)).astype(np.float32)
    xmin, xmax = x.min(axis=1), x.max(axis=1)
    assert_identical(
        uniform_quantize_rows(x, xmin, xmax, 8),
        ref.uniform_quantize_rows(x, xmin, xmax, 8),
    )
    assert_identical(
        quantization_l2_per_row(x, xmin, xmax, 8),
        ref.quantization_l2_per_row(x, xmin, xmax, 8),
    )


# ----------------------------------------------------------------------
# Edges of the clamp-free grid and of the row bounds
# ----------------------------------------------------------------------

_SUBNORMAL = np.float32(2.0**-149)


def subnormal_step_rows() -> np.ndarray:
    """Rows ``[0, k * 2**-149, 0.37 * k * 2**-149]`` for ``k < 200``,
    plus spans on either side of ``levels`` smallest normals: each grid
    step is subnormal or just normal, so a kernel that leaves a merely
    positive step unclamped codes a whole level too high."""
    k = np.arange(1, 200, dtype=np.float32)
    tiny = np.finfo(np.float32).tiny
    span = np.float32(255 * tiny) * np.linspace(0.25, 4, 40, dtype=np.float32)
    hi = np.concatenate([k * _SUBNORMAL, span])
    return np.stack([np.zeros_like(hi), hi, np.float32(0.37) * hi], axis=1)


def signed_zero_rows(dim: int) -> np.ndarray:
    """Rows whose min or max is a zero held by both -0.0 and +0.0, at
    every arrangement numpy's row and column reductions may resolve
    differently."""
    rng = np.random.default_rng(dim)
    zeros = np.array([-0.0, 0.0], dtype=np.float32)
    x = zeros[rng.integers(0, 2, size=(96, dim))]
    # Half the rows get a positive or a negative element, so the zero
    # is the max in some rows and the min in others.
    x[:32, 0] = np.float32(0.5)
    x[32:64, -1] = np.float32(-0.5)
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bits", BITS)
def test_subnormal_grid_steps_identical(bits, dtype):
    """Row by row as well as whole: one row whose step underflows to 0
    keeps the clamps on for its entire block."""
    x = subnormal_step_rows().astype(dtype)
    for part in [slice(None)] + [slice(i, i + 1) for i in range(len(x))]:
        rows = x[part]
        xmin, xmax = rows.min(axis=1), rows.max(axis=1)
        assert_identical(
            uniform_quantize_rows(rows, xmin, xmax, bits),
            ref.uniform_quantize_rows(rows, xmin, xmax, bits),
        )
        assert_identical(
            quantization_l2_per_row(rows, xmin, xmax, bits),
            ref.quantization_l2_per_row(rows, xmin, xmax, bits),
        )
        assert_same_search(
            greedy_range_search(rows, bits, 4, 1.0),
            ref.greedy_range_search(rows, bits, 4, 1.0),
        )
    if dtype == np.float32:
        check_quantizers(x, bits)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ranges_that_are_not_positive_identical(dtype):
    """Candidates with ``lo == hi`` (either zero sign), ``lo > hi`` and a
    span that overflows fp32 keep both clamping passes."""
    rng = np.random.default_rng(11)
    x = outlier_matrix(rng, 60, 8).astype(dtype)
    lo = np.float32(rng.normal(size=60))
    hi = lo.copy()
    hi[10:20] -= np.float32(0.5)  # crossing
    lo[20:25], hi[20:25] = np.float32(0.0), np.float32(-0.0)
    lo[25:30], hi[25:30] = np.float32(-0.0), np.float32(0.0)
    lo[30:40], hi[30:40] = np.float32(-3e38), np.float32(3e38)
    hi[40:] += np.float32(1.0)  # well-formed, in the same call
    for bits in BITS:
        # The +-3e38 span overflows fp32 to an inf step, and measuring
        # its error multiplies that step by a zero code.
        with small_tiles(), pytest.warns(RuntimeWarning):
            codes = uniform_quantize_rows(x, lo, hi, bits)
            errors = quantization_l2_per_row(x, lo, hi, bits)
        assert_identical(codes, ref.uniform_quantize_rows(x, lo, hi, bits))
        assert_identical(
            errors, ref.quantization_l2_per_row(x, lo, hi, bits)
        )


@pytest.mark.parametrize("dim", (1, 2, 8, 16, 17, 18, 19, 33, 64))
def test_signed_zero_extremes_identical(dim):
    x = signed_zero_rows(dim)
    for bits in (2, 4, 8):
        assert_same_search(
            greedy_range_search(x, bits, 25, 1.0),
            ref.greedy_range_search(x, bits, 25, 1.0),
        )
    check_quantizers(x, 4)


@pytest.mark.parametrize("dim", (1, 8, 16, 64))
def test_tile_scratch_is_bounded(dim):
    """The search's tile holds the fp32 block, an fp32 code array per
    candidate and one fp64 error array they take turns in: 20 bytes per
    loaded element, plus per-row vectors (steps, sum lanes, errors). An
    fp64 copy of the block, or an error array per candidate, exceeds
    it."""
    x = np.zeros((3 * block_rows(dim), dim), dtype=np.float32)
    tile = uniform.RowTile(x, 4, candidates=2)
    held = [
        value
        for value in vars(tile).values()
        if isinstance(value, np.ndarray) and value.base is None
        and value is not x
    ]
    scratch = sum(array.nbytes for array in held)
    assert scratch <= (20 * dim + 56) * tile.block


# ----------------------------------------------------------------------
# Grouped calls: quantize_many against one quantize per piece
# ----------------------------------------------------------------------

GROUPED_DIMS = (1, 3, 5, 8, 16, 17, 33)


def every_quantizer(bits: int):
    """Every registered quantizer; the fp32 and fp16 casts have no bit
    width to vary, so they come only with ``bits == 8``."""
    if bits == 8:
        yield make_quantizer("none")
        yield make_quantizer("float16")
    for name in ("symmetric", "asymmetric", "adaptive"):
        for compact in (False, True):
            yield make_quantizer(name, bits=bits, compact_params=compact)
    # The clustering iterations do not matter here; the seeded
    # initialisation, which draws across rows, does.
    yield make_quantizer("kmeans", bits=bits, kmeans_iterations=2)


def edge_rows(dim: int) -> np.ndarray:
    """Outlier, constant, symmetric and tie-heavy rows mixed with
    signed-zero extremes and subnormal spans, in a seeded order."""
    rng = np.random.default_rng(4100 + dim)
    subnormal = np.stack(
        [np.resize(row, dim) for row in subnormal_step_rows()[::12]]
    )
    x = np.concatenate(
        [
            outlier_matrix(rng, 40, dim),
            signed_zero_rows(dim)[::6],
            subnormal,
        ]
    )
    return x[rng.permutation(len(x))]


def split(x: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """``x`` cut into consecutive pieces of ``sizes`` rows, the last
    taking what is left."""
    bounds = np.cumsum(sizes)
    return np.split(x, bounds[bounds < len(x)])


def assert_grouped_as_one_call_each(quantizer, pieces) -> None:
    expected = [encode_payload(quantizer.quantize(p)) for p in pieces]
    grouped = quantizer.quantize_many(pieces)
    assert [encode_payload(qt) for qt in grouped] == expected


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("dim", GROUPED_DIMS)
def test_quantize_many_stores_what_one_call_per_piece_stores(dim, bits):
    """One-row pieces, and a piece larger than a tile, so the grouped
    call's blocks straddle piece boundaries; every piece boundary that
    is not on a byte makes the split re-pack."""
    x = edge_rows(dim)
    with small_tiles():
        tile = block_rows(dim)
        pieces = split(x, [1, 1, 3, tile + 5, 1, 2, 7, 1])
        assert max(len(p) for p in pieces) > tile
        for quantizer in every_quantizer(bits):
            assert_grouped_as_one_call_each(quantizer, pieces)


def test_quantize_many_at_the_shipped_tile_size():
    x = outlier_matrix(np.random.default_rng(41), block_rows(8) + 9, 8)
    pieces = split(x, [1, 3, block_rows(8) + 2])
    for quantizer in every_quantizer(4):
        assert_grouped_as_one_call_each(quantizer, pieces)


def test_quantize_many_of_one_tensor_is_one_uncopied_call():
    quantizer = AdaptiveAsymmetricQuantizer(4)
    x = outlier_matrix(np.random.default_rng(42), 16, 8)
    with mock.patch.object(
        quantizer, "quantize", wraps=quantizer.quantize
    ) as spy:
        (grouped,) = quantizer.quantize_many([x])
    spy.assert_called_once()
    assert spy.call_args.args[0] is x
    assert_same_quantized(grouped, quantizer.quantize(x))


def test_quantize_many_refuses_an_empty_piece():
    quantizer = AsymmetricQuantizer(4)
    x = np.ones((3, 8), dtype=np.float32)
    with pytest.raises(QuantizationError, match="empty"):
        quantizer.quantize_many([x, x[:0]])


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bits", BITS)
def test_packing_identical(bits):
    rng = np.random.default_rng(bits)
    for count in (0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 4099):
        codes = rng.integers(0, 1 << bits, size=count)
        expected = ref.pack_bits(codes.astype(np.uint8), bits)
        for dtype in (np.uint8, np.int64, np.float32):
            assert_identical(pack_bits(codes.astype(dtype), bits), expected)
        assert_identical(
            unpack_bits(expected, bits, count),
            ref.unpack_bits(expected, bits, count),
        )
        # A longer buffer than needed is legal; only `count` codes come out.
        padded = np.concatenate([expected, np.full(3, 0xFF, np.uint8)])
        assert_identical(
            unpack_bits(padded, bits, count),
            ref.unpack_bits(padded, bits, count),
        )
    grid = rng.integers(0, 1 << bits, size=(6, 10)).astype(np.uint8)
    strided = grid[:, ::3]
    assert_identical(pack_bits(strided, bits), ref.pack_bits(strided, bits))


@pytest.mark.parametrize("bits", BITS[:-1])
@pytest.mark.parametrize(
    "bad",
    [
        lambda limit: np.array([0, limit], dtype=np.uint8),
        lambda limit: np.array([1, -1, 0], dtype=np.int64),
        lambda limit: np.array([limit + 3, -2], dtype=np.int16),
        lambda limit: np.array([0.0, limit + 0.5], dtype=np.float64),
    ],
)
def test_packing_rejections_identical(bits, bad):
    codes = bad(1 << bits)
    with pytest.raises(PackingError) as expected:
        ref.pack_bits(codes, bits)
    with pytest.raises(PackingError) as actual:
        pack_bits(codes, bits)
    assert str(actual.value) == str(expected.value)


# ----------------------------------------------------------------------
# One quantizer object, four pool workers
# ----------------------------------------------------------------------


def test_shared_quantizer_is_thread_safe():
    """The engine's four pool workers quantize different chunks through
    one quantizer object; scratch must be per call, not per object."""
    quantizer = AdaptiveAsymmetricQuantizer(4)
    rng = np.random.default_rng(99)
    # Three tiles each, the last one partial, sizes differing per thread.
    chunks = [
        outlier_matrix(rng, 2 * block_rows(8) + 100 * (i + 1), 8)
        for i in range(4)
    ]
    serial = [quantizer.quantize(chunk) for chunk in chunks]

    results: list = [None] * len(chunks)
    start = threading.Barrier(len(chunks))

    def work(i: int) -> None:
        start.wait(timeout=30)
        for _ in range(3):
            results[i] = quantizer.quantize(chunks[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(chunks))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for actual, expected in zip(results, serial):
        assert_same_quantized(actual, expected)
