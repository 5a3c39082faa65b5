"""Uniform quantization: symmetric and asymmetric (paper section 5.2, A1).

Both methods map each embedding-vector element ``x`` (clipped to
``[xmin, xmax]``) onto an integer grid::

    scale   = (xmax - xmin) / (2^N - 1)
    x_q     = round((x - zero_point) / scale),   zero_point = xmin
    x_hat   = scale * x_q + zero_point

Symmetric quantization sets ``xmax = max(|X_i|)`` and ``xmin = -xmax``
per row; asymmetric uses the row's actual min/max. The paper finds
asymmetric consistently better because embedding values are not
symmetrically distributed (Fig 9), at the small cost of storing both
``xmin`` and ``xmax`` per vector.
"""

from __future__ import annotations

import numpy as np

from .base import QuantizedTensor, Quantizer
from .packing import pack_rows, unpack_rows


#: Elements per block of rows. Two things size it, and the cache is the
#: lesser one. The kernels run as a few dozen numpy calls per block and
#: numpy drops the interpreter lock inside every one of them; the
#: engine's four pool workers quantize concurrently, so at 2**14
#: elements (~10 us a call) they spend more time handing the lock round
#: than computing — four threads ran *slower* than one — while from
#: 2**16 up the calls are long enough for two cores to overlap. The
#: other is memory: the greedy search holds 20 bytes of scratch per
#: element (the fp32 block, an fp32 code array for each of its two
#: candidates and one fp64 error array they take turns in) plus ~100
#: bytes of per-row vectors, so 2**17 bounds a call at ~4 MiB at dim 8
#: and ~3.3 MiB at dim 16 whatever the chunk size. A single thread is
#: within 10% of its best anywhere from 2**14 to 2**20.
_TILE_ELEMS = 1 << 17

#: Floor on rows per block. The search's contiguous axis is the row
#: axis, so for very wide rows ``_TILE_ELEMS // dim`` would shrink every
#: inner loop to a handful of elements; 64 keeps them vectorisable and
#: the scratch simply grows with ``dim``.
_MIN_TILE_ROWS = 64


def block_rows(dim: int) -> int:
    """Rows per block for ``dim``-wide rows: derived, never configured."""
    return max(_MIN_TILE_ROWS, _TILE_ELEMS // max(dim, 1))


def _row_slices(rows: int, block: int):
    """Slices that walk ``rows`` rows ``block`` at a time."""
    for start in range(0, rows, block):
        yield slice(start, min(start + block, rows))


#: The smallest normal fp32 grid step. A step below it is subnormal and
#: rounds with an absolute, not a relative, error: ``(x - lo) / step``
#: can then land a whole code above ``levels`` (``[0, k * 2**-149,
#: 0.37 * k * 2**-149]`` codes to ``[0, 4, 1]`` at 2 bits).
_TINY = np.finfo(np.float32).tiny
_HUGE = np.finfo(np.float32).max


def _grid_scale(
    lo: np.ndarray, hi: np.ndarray, levels: int, out: np.ndarray
) -> bool:
    """``out = (hi - lo) / levels``, the fp32 grid step of each range.

    Ranges that are not positive (constant rows) get a stand-in span of
    1 instead of a divide-by-zero; their codes become 0. Returns whether
    every range is positive with a finite, normal step: only then are
    codes known to land in ``[0, levels]`` unclamped.
    """
    np.subtract(hi, lo, out=out)
    if not out.size:
        return True
    # min() propagates NaN, and NaN > 0 is False.
    positive = out.min() > 0
    if not positive:
        np.putmask(out, ~(out > 0), 1)
    np.divide(out, levels, out=out)
    return positive and out.min() >= _TINY and out.max() <= _HUGE


def _grid_codes(
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    levels: int,
    scale: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out = rint((clip(x, lo, hi) - lo) / scale)`` held to [0, levels].

    Every step runs in place in ``out`` (the dtype ``x`` and fp32 bounds
    promote to); ``lo``/``hi``/``scale`` broadcast against ``x``, along
    whichever axis the caller laid the rows on. ``scale`` is filled in
    on the way. The codes come out as integral floats.

    The two clamping passes run only for a call where some range can
    push a code out of bounds. When every ``lo < hi`` and every step is
    finite and normal, ``0 <= clip(x) - lo <= hi - lo`` (rounding is
    monotone) and the step is within a relative 2**-24 of ``(hi - lo) /
    levels``, so the quotient stays below ``levels + 0.5`` and rounds
    into range. The lower clip is ``fmax`` so a NaN element takes ``lo``
    and codes to 0 either way.
    """
    clamp_free = _grid_scale(lo, hi, levels, scale)
    np.fmax(x, lo, out=out)
    np.minimum(out, hi, out=out)
    np.subtract(out, lo, out=out)
    np.divide(out, scale, out=out)
    np.rint(out, out=out)
    if not clamp_free:
        # fmax, not clip: a range too small or too large for fp32 grids
        # 0/0 or inf/inf to NaN, which the uint8 code format stores as 0.
        np.fmax(out, 0, out=out)
        np.minimum(out, levels, out=out)


def _sum_rows(sq: np.ndarray, pairs: np.ndarray, out: np.ndarray) -> None:
    """``out = sq.sum(axis=-2)`` in the order ``np.sum(axis=1)`` adds.

    ``sq`` is ``(..., dim, n)`` — one row per *column* — and is
    destroyed. numpy reduces a contiguous fp64 axis pairwise: fewer
    than 8 terms sequentially; up to 128 through eight interleaved
    accumulators combined as ``((0+1)+(2+3))+((4+5)+(6+7))`` plus a
    sequential tail; longer runs split in two at a multiple of 8. The
    row-major code this replaces summed with ``np.sum(axis=1)``, and the
    greedy search compares these sums with ``<=``, so reproducing that
    order is what keeps every chosen range — and every stored byte —
    identical.
    """
    dim = sq.shape[-2]
    if dim > 128:
        half = dim // 2
        half -= half % 8
        _sum_rows(sq[..., :half, :], pairs, out)
        # The right half's total lands in its own first row, which that
        # half has finished reading by the time it writes the result.
        right = sq[..., half, :]
        _sum_rows(sq[..., half:, :], pairs, right)
        np.add(out, right, out=out)
        return
    if dim < 8:
        np.copyto(out, sq[..., 0, :])
        tail = 1
    else:
        tail = dim - dim % 8
        lanes = sq[..., :8, :]
        for i in range(8, tail, 8):
            np.add(lanes, sq[..., i : i + 8, :], out=lanes)
        np.add(lanes[..., 0::2, :], lanes[..., 1::2, :], out=pairs)
        halves = lanes[..., :2, :]
        np.add(pairs[..., 0::2, :], pairs[..., 1::2, :], out=halves)
        np.add(halves[..., 0, :], halves[..., 1, :], out=out)
    for i in range(tail, dim):
        np.add(out, sq[..., i, :], out=out)


class RowTile:
    """Per-call scratch that measures candidate ranges on blocks of rows.

    The matrix is walked :func:`block_rows` rows at a time and each
    block is held column-major, ``(dim, n)``: per-row ``lo``/``hi``/
    ``scale`` then broadcast along the long contiguous axis instead of
    across an 8-to-16-wide one, and every step runs in place. Several
    candidate ranges per row are gridded in one pass by stacking them on
    a leading axis — bounds are ``(candidates, 1, n)`` arrays — then
    measured one at a time through a single fp64 ``(dim, n)`` error
    array, which is where each reconstruction widens: no fp64 copy of
    the block is kept.

    All state lives on the instance, which a kernel creates per call:
    quantizer objects are shared by the engine's pool workers and must
    stay stateless.
    """

    def __init__(self, x: np.ndarray, bits: int, candidates: int = 1):
        rows, dim = x.shape
        dtype = np.result_type(x.dtype, np.float32)
        self._source = x
        self._levels = (1 << bits) - 1
        self.block = block = min(block_rows(dim), max(rows, 1))
        self._x = np.empty((dim, block), dtype)
        self._codes = np.empty((candidates, dim, block), dtype)
        self._scale = np.empty((candidates, 1, block), np.float32)
        self._diff = np.empty((dim, block), np.float64)
        self._pairs = np.empty((4, block), np.float64)
        self._err = np.empty((candidates, block), np.float64)
        self.x = self._x[:, :0]

    def blocks(self):
        """Load the matrix one block at a time; yields each row slice.

        :attr:`x` is the loaded block, ``(dim, n)``, until the next one.
        """
        for rows in _row_slices(self._source.shape[0], self.block):
            self.x = self._x[:, : rows.stop - rows.start]
            np.copyto(self.x, self._source[rows].T)
            yield rows

    def errors(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per-row l2 error of each candidate range, ``(candidates, n)``.

        Bounds are ``(candidates, 1, n)`` for the ``n`` rows last loaded.
        The result is a view of scratch: the caller's to read or write
        until the next call.
        """
        k, _, n = lo.shape
        x = self.x
        codes = self._codes[:k, :, :n]
        scale = self._scale[:k, :, :n]
        _grid_codes(x, lo, hi, self._levels, scale, codes)
        # The codes are integral, NaN-free and at most 255, so the uint8
        # round trip the stored format makes is the identity: skip it.
        # The reconstruction is fp32 whatever ``x`` is.
        np.multiply(codes, scale, out=codes, dtype=np.float32)
        np.add(codes, lo, out=codes, dtype=np.float32)
        diff = self._diff[:, :n]
        err = self._err[:k, :n]
        for c in range(k):
            # Widen, then subtract: one ufunc casting both fp32 inputs
            # ran ~1.4x slower than this copy plus a subtraction that
            # casts only ``x``. (recon - x)**2 == (x - recon)**2 bit for
            # bit: rounding to nearest is sign-symmetric.
            np.copyto(diff, codes[c])
            np.subtract(diff, x, out=diff)
            np.multiply(diff, diff, out=diff)
            _sum_rows(diff, self._pairs[:, :n], err[c])
        np.sqrt(err, out=err)
        return err


def uniform_quantize_rows(
    tensor: np.ndarray,
    xmin: np.ndarray,
    xmax: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Quantize each row of ``tensor`` against its own [xmin, xmax].

    Values outside the range are clipped (that is the adaptive method's
    entire trick: a tighter range costs clipping but buys resolution).
    Constant rows (xmax == xmin) map to code 0.

    Returns a (rows, dim) uint8 code matrix.
    """
    tensor = np.asarray(tensor)
    rows, dim = tensor.shape
    lo = np.asarray(xmin, dtype=np.float32).reshape(rows, 1)
    hi = np.asarray(xmax, dtype=np.float32).reshape(rows, 1)
    out = np.empty((rows, dim), dtype=np.uint8)
    # One pass, so not worth the search's transposes: blocks stay
    # row-major and only the temporaries are bounded.
    block = min(block_rows(dim), max(rows, 1))
    codes = np.empty((block, dim), np.result_type(tensor.dtype, np.float32))
    scale = np.empty((block, 1), dtype=np.float32)
    for part in _row_slices(rows, block):
        n = part.stop - part.start
        _grid_codes(
            tensor[part], lo[part], hi[part], (1 << bits) - 1,
            scale[:n], codes[:n],
        )
        np.copyto(out[part], codes[:n], casting="unsafe")
    return out


def uniform_dequantize_rows(
    codes: np.ndarray,
    xmin: np.ndarray,
    xmax: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Invert :func:`uniform_quantize_rows` (up to grid resolution)."""
    lo = xmin.reshape(-1, 1).astype(np.float32)
    hi = xmax.reshape(-1, 1).astype(np.float32)
    scale = np.empty_like(lo)
    _grid_scale(lo, hi, (1 << bits) - 1, scale)
    out = codes.astype(np.float32)
    np.multiply(out, scale, out=out)
    np.add(out, lo, out=out)
    return out


def quantization_l2_per_row(
    tensor: np.ndarray,
    xmin: np.ndarray,
    xmax: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Per-row l2 error of a hypothetical quantization (no packing).

    One candidate range per row through the same evaluation the adaptive
    greedy search runs on two. The fp64 sum is taken in numpy's order for
    a C-contiguous ``tensor``, whatever layout the caller's has.
    """
    tensor = np.asarray(tensor)
    rows = tensor.shape[0]
    lo = np.asarray(xmin, dtype=np.float32).reshape(1, 1, rows)
    hi = np.asarray(xmax, dtype=np.float32).reshape(1, 1, rows)
    out = np.empty(rows, dtype=np.float64)
    tile = RowTile(tensor, bits)
    for part in tile.blocks():
        out[part] = tile.errors(lo[..., part], hi[..., part])[0]
    return out


class SymmetricQuantizer(Quantizer):
    """Per-row symmetric uniform quantization: range [-max|x|, +max|x|].

    Only one parameter per row (``xmax``) needs storing; ``xmin`` is
    implied. Cheapest metadata, worst error on skewed rows (Fig 9).

    ``compact_params=True`` stores the range parameter as fp16 — the
    metadata optimisation the paper defers to future work (section
    6.3.2). De-quantization must then use the *rounded* bound so the
    grid stays self-consistent.
    """

    name = "symmetric"

    def __init__(self, bits: int, compact_params: bool = False) -> None:
        super().__init__(bits)
        self.compact_params = compact_params
        self._param_dtype = np.float16 if compact_params else np.float32

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        xmax = np.max(np.abs(x), axis=1)
        if self.compact_params:
            # Round the fp16 bound *outward* so it still covers the
            # data; encode and decode then share the exact same grid.
            xmax = np.nextafter(
                xmax.astype(np.float16), np.float16(np.inf)
            ).astype(np.float32)
        xmax = xmax.astype(np.float32)
        codes = uniform_quantize_rows(x, -xmax, xmax, self.bits)
        return QuantizedTensor(
            codes=pack_rows(codes, self.bits),
            bit_width=self.bits,
            shape=x.shape,
            quantizer=self.name,
            params={"xmax": xmax.astype(self._param_dtype)},
        )

    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        self._check_dequant_input(qt)
        xmax = qt.params["xmax"].astype(np.float32)
        codes = unpack_rows(qt.codes, self.bits, qt.rows, qt.dim)
        return uniform_dequantize_rows(codes, -xmax, xmax, self.bits)


class AsymmetricQuantizer(Quantizer):
    """Per-row asymmetric uniform quantization: range [min(x), max(x)].

    Stores ``xmin`` and ``xmax`` per row ("the small additional overhead"
    the paper accepts). This is Check-N-Run's default for 8-bit widths.

    ``compact_params=True`` stores both bounds as fp16 (half the
    metadata), the optimisation the paper notes as future work. The
    quantization grid is computed against the *rounded* bounds so
    encode and decode agree exactly.
    """

    name = "asymmetric"

    def __init__(self, bits: int, compact_params: bool = False) -> None:
        super().__init__(bits)
        self.compact_params = compact_params
        self._param_dtype = np.float16 if compact_params else np.float32

    def _bounds(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xmin = np.min(x, axis=1)
        xmax = np.max(x, axis=1)
        if self.compact_params:
            # Round outward so the stored range still covers the data.
            xmin = np.nextafter(
                xmin.astype(np.float16), np.float16(-np.inf)
            ).astype(np.float32)
            xmax = np.nextafter(
                xmax.astype(np.float16), np.float16(np.inf)
            ).astype(np.float32)
        return xmin.astype(np.float32), xmax.astype(np.float32)

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        xmin, xmax = self._bounds(x)
        codes = uniform_quantize_rows(x, xmin, xmax, self.bits)
        return QuantizedTensor(
            codes=pack_rows(codes, self.bits),
            bit_width=self.bits,
            shape=x.shape,
            quantizer=self.name,
            params={
                "xmin": xmin.astype(self._param_dtype),
                "xmax": xmax.astype(self._param_dtype),
            },
        )

    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        self._check_dequant_input(qt)
        xmin = qt.params["xmin"].astype(np.float32)
        xmax = qt.params["xmax"].astype(np.float32)
        codes = unpack_rows(qt.codes, self.bits, qt.rows, qt.dim)
        return uniform_dequantize_rows(codes, xmin, xmax, self.bits)
