"""Pre-PR-15 quantization kernels, kept verbatim as the test oracle.

These are the bodies ``src/repro/quant/`` shipped before the fused tile
kernels replaced them: full-matrix temporaries, ``(rows, 1)``
broadcasts, ``np.unpackbits``-based packing. They define what
"bit-identical" means for ``tests/test_quant_kernel_differential.py``
and must not be edited to follow the shipped code — only the argument
checks they share with it (``packed_size``, the error types and the
result dataclass) are imported.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PackingError, QuantizationError
from repro.quant.adaptive import GreedySearchResult
from repro.quant.packing import _validate_bits, packed_size


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack integer codes into a dense uint8 array (MSB-first).

    ``codes`` may have any shape; packing operates on the flattened,
    C-ordered view. Codes outside [0, 2^bits) are rejected — silent
    wrap-around would corrupt checkpoints undetectably.
    """
    _validate_bits(bits)
    flat = np.ascontiguousarray(codes).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if flat.min() < 0 or flat.max() >= (1 << bits):
        raise PackingError(
            f"codes out of range for {bits}-bit packing: "
            f"[{flat.min()}, {flat.max()}]"
        )
    if bits == 8:  # fast path: codes already are full bytes
        return flat.astype(np.uint8).copy()
    as_bytes = flat.astype(np.uint8).reshape(-1, 1)
    bit_rows = np.unpackbits(as_bytes, axis=1)  # (n, 8), MSB first
    wanted = bit_rows[:, 8 - bits :]  # low `bits` bits of each code
    return np.packbits(wanted.reshape(-1))


def unpack_bits(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits`: recover ``count`` codes as uint8.

    ``count`` must be supplied because trailing pad bits in the final
    byte are indistinguishable from real zero codes.
    """
    _validate_bits(bits)
    if count < 0:
        raise PackingError(f"negative code count {count}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    needed = packed_size(count, bits)
    if packed.size < needed:
        raise PackingError(
            f"packed buffer too small: {packed.size} bytes for "
            f"{count} x {bits}-bit codes (need {needed})"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    if bits == 8:  # fast path mirrors pack_bits
        return packed[:count].copy()
    bit_stream = np.unpackbits(packed[:needed])[: count * bits]
    groups = bit_stream.reshape(count, bits)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - bits :] = groups
    return np.packbits(padded, axis=1).reshape(-1)


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
    levels = (1 << bits) - 1
    xmin_col = xmin.reshape(-1, 1).astype(np.float32)
    xmax_col = xmax.reshape(-1, 1).astype(np.float32)
    span = xmax_col - xmin_col
    # Avoid divide-by-zero on constant rows; their codes become 0.
    safe_span = np.where(span > 0, span, 1.0)
    scale = safe_span / levels
    clipped = np.clip(tensor, xmin_col, xmax_col)
    codes = np.rint((clipped - xmin_col) / scale)
    codes = np.clip(codes, 0, levels)
    return codes.astype(np.uint8)


def uniform_dequantize_rows(
    codes: np.ndarray,
    xmin: np.ndarray,
    xmax: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Invert :func:`uniform_quantize_rows` (up to grid resolution)."""
    levels = (1 << bits) - 1
    xmin_col = xmin.reshape(-1, 1).astype(np.float32)
    xmax_col = xmax.reshape(-1, 1).astype(np.float32)
    span = xmax_col - xmin_col
    safe_span = np.where(span > 0, span, 1.0)
    scale = safe_span / levels
    out = codes.astype(np.float32) * scale + xmin_col
    return out.astype(np.float32)


def quantization_l2_per_row(
    tensor: np.ndarray,
    xmin: np.ndarray,
    xmax: np.ndarray,
    bits: int,
) -> np.ndarray:
    """Per-row l2 error of a hypothetical quantization (no packing).

    The adaptive greedy search calls this twice per iteration to compare
    candidate ranges, so it avoids materialising packed codes.
    """
    codes = uniform_quantize_rows(tensor, xmin, xmax, bits)
    recon = uniform_dequantize_rows(codes, xmin, xmax, bits)
    diff = tensor.astype(np.float64) - recon.astype(np.float64)
    return np.sqrt(np.sum(diff * diff, axis=1))


def greedy_range_search(
    tensor: np.ndarray,
    bits: int,
    num_bins: int,
    ratio: float,
) -> GreedySearchResult:
    """Run the paper's greedy min/max search, vectorised across rows.

    Args:
        tensor: (rows, dim) fp32 matrix.
        bits: quantization bit width.
        num_bins: how many steps the original range is divided into.
        ratio: fraction of the original range the search may traverse;
            iteration count is ``floor(num_bins * ratio)``.

    Returns the best (xmin, xmax) per row and the error achieved.
    """
    if num_bins < 1:
        raise QuantizationError(f"num_bins must be >= 1, got {num_bins}")
    if not 0.0 < ratio <= 1.0:
        raise QuantizationError(f"ratio must be in (0, 1], got {ratio}")

    x = np.ascontiguousarray(tensor, dtype=np.float32)
    row_min = np.min(x, axis=1).astype(np.float32)
    row_max = np.max(x, axis=1).astype(np.float32)
    step = (row_max - row_min) / np.float32(num_bins)

    best_min = row_min.copy()
    best_max = row_max.copy()
    best_err = quantization_l2_per_row(x, row_min, row_max, bits)

    cur_min = row_min.copy()
    cur_max = row_max.copy()
    iterations = int(num_bins * ratio)
    # Walking more than num_bins - 1 steps would collapse the range.
    iterations = min(iterations, num_bins - 1)

    for _ in range(iterations):
        cand_min = cur_min + step
        cand_max = cur_max - step
        err_lift_min = quantization_l2_per_row(x, cand_min, cur_max, bits)
        err_drop_max = quantization_l2_per_row(x, cur_min, cand_max, bits)

        take_min = err_lift_min <= err_drop_max
        cur_min = np.where(take_min, cand_min, cur_min)
        cur_max = np.where(take_min, cur_max, cand_max)
        cur_err = np.where(take_min, err_lift_min, err_drop_max)

        improved = cur_err < best_err
        best_min = np.where(improved, cur_min, best_min)
        best_max = np.where(improved, cur_max, best_max)
        best_err = np.where(improved, cur_err, best_err)

    return GreedySearchResult(
        xmin=best_min.astype(np.float32),
        xmax=best_max.astype(np.float32),
        errors=best_err,
        iterations=iterations,
    )
