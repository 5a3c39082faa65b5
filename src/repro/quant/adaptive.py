"""Adaptive asymmetric quantization (paper section 5.2, Approach 3).

Naive asymmetric quantization wastes resolution when a row contains one
outlier element: the range [min, max] stretches and the scale grows.
Check-N-Run instead runs a *greedy search* per embedding vector over
tightened ranges:

    step_size = (Xmax - Xmin) / num_bins

Each iteration evaluates two candidates — raising ``xmin`` by one step or
lowering ``xmax`` by one step — quantizes with both (for the sole purpose
of measuring l2 error), and keeps whichever hurts less. The search walks
at most ``ratio * num_bins`` steps (``ratio`` caps the fraction of the
original range explored), and the final answer is the (xmin, xmax) pair
from the iteration with the lowest error, which may be the untightened
original range.

The implementation vectorises the search across rows, one bounded block
of them at a time (:class:`~repro.quant.uniform.RowTile`): every
iteration quantizes and measures both candidates in one fused pass over
the block, so run time grows linearly with ``num_bins * ratio`` exactly
as the paper's Figs 12/13 show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError
from .base import QuantizedTensor, Quantizer
from .packing import pack_rows, unpack_rows
from .uniform import (
    RowTile,
    uniform_dequantize_rows,
    uniform_quantize_rows,
)


@dataclass(frozen=True)
class GreedySearchResult:
    """Optimal per-row ranges found by the greedy search."""

    xmin: np.ndarray
    xmax: np.ndarray
    errors: np.ndarray  # per-row l2 error at the chosen range
    iterations: int


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
    row_min = np.min(x, axis=1)
    row_max = np.max(x, axis=1)
    step = (row_max - row_min) / np.float32(num_bins)

    best_min = row_min.copy()
    best_max = row_max.copy()
    best_err = np.empty(x.shape[0], dtype=np.float64)

    iterations = int(num_bins * ratio)
    # Walking more than num_bins - 1 steps would collapse the range.
    iterations = min(iterations, num_bins - 1)

    tile = RowTile(x, bits, candidates=2)
    lo_pair = np.empty((2, 1, tile.block), dtype=np.float32)
    hi_pair = np.empty((2, 1, tile.block), dtype=np.float32)
    for rows in tile.blocks():
        n = rows.stop - rows.start
        lo, hi = lo_pair[..., :n], hi_pair[..., :n]
        # Candidate 0 lifts the min, candidate 1 drops the max; the
        # current range is the two bounds they leave alone.
        lift_min, cur_min = lo[0, 0], lo[1, 0]
        cur_max, drop_max = hi[0, 0], hi[1, 0]
        cur_min[:] = row_min[rows]
        cur_max[:] = row_max[rows]
        blk_step = step[rows]
        blk_min, blk_max = best_min[rows], best_max[rows]
        blk_err = best_err[rows]
        blk_err[:] = tile.errors(lo[1:], hi[:1])[0]

        for _ in range(iterations):
            np.add(cur_min, blk_step, out=lift_min)
            np.subtract(cur_max, blk_step, out=drop_max)
            err_lift, err_drop = tile.errors(lo, hi)

            take_min = err_lift <= err_drop
            np.putmask(cur_min, take_min, lift_min)
            np.putmask(cur_max, ~take_min, drop_max)
            cur_err = err_drop  # the tile's scratch, ours until it runs again
            np.putmask(cur_err, take_min, err_lift)

            improved = cur_err < blk_err
            np.putmask(blk_min, improved, cur_min)
            np.putmask(blk_max, improved, cur_max)
            np.putmask(blk_err, improved, cur_err)

    return GreedySearchResult(
        xmin=best_min, xmax=best_max, errors=best_err, iterations=iterations
    )


class AdaptiveAsymmetricQuantizer(Quantizer):
    """Asymmetric quantization with greedily tightened per-row ranges.

    Check-N-Run's default for bit widths of 4 and below (section 5.2
    summary); at those widths the tightened range recovers 10-30% of the
    l2 error that naive asymmetric leaves on the table (Figs 10/11).
    """

    name = "adaptive"

    def __init__(
        self,
        bits: int,
        num_bins: int = 25,
        ratio: float = 1.0,
        compact_params: bool = False,
    ) -> None:
        super().__init__(bits)
        if num_bins < 1:
            raise QuantizationError(f"num_bins must be >= 1, got {num_bins}")
        if not 0.0 < ratio <= 1.0:
            raise QuantizationError(f"ratio must be in (0, 1], got {ratio}")
        self.num_bins = num_bins
        self.ratio = ratio
        self.compact_params = compact_params
        self._param_dtype = np.float16 if compact_params else np.float32

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        search = greedy_range_search(x, self.bits, self.num_bins, self.ratio)
        xmin, xmax = search.xmin, search.xmax
        if self.compact_params:
            # fp16 metadata (the paper's future-work optimisation):
            # round the searched bounds outward and quantize against
            # the rounded values so the stored grid is exact.
            xmin = np.nextafter(
                xmin.astype(np.float16), np.float16(-np.inf)
            ).astype(np.float32)
            xmax = np.nextafter(
                xmax.astype(np.float16), np.float16(np.inf)
            ).astype(np.float32)
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
