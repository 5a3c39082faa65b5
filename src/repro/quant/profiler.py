"""Sampling-based quantization parameter selection (paper section 5.2).

The adaptive quantizer has two knobs — ``num_bins`` and ``ratio`` — whose
optimal values depend on the checkpoint's value distribution. Profiling
the *entire* checkpoint for every candidate would dwarf the quantization
itself, so Check-N-Run "uniformly samples a small fraction of the
checkpoint (0.001% by default), then quantizes the sampled checkpoint
with different parameter values", and picks the parameter where the mean
l2 error improvement tapers off.

``select_num_bins`` / ``select_ratio`` implement exactly that knee rule,
and ablation bench a02 verifies the sampled selection matches the
full-checkpoint selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError
from .adaptive import greedy_range_search
from .uniform import quantization_l2_per_row

#: Paper default: sample 0.001% of the checkpoint's rows.
DEFAULT_SAMPLE_FRACTION = 1e-5

#: Improvement below this fraction of the naive error counts as "tapered".
TAPER_TOLERANCE = 0.01

#: Fewest rows a sample holds; smaller tensors are profiled whole.
MIN_SAMPLE_ROWS = 64

#: The ``ratio`` sweep of section 5.2.2 (Fig 11).
RATIO_CANDIDATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class ProfileResult:
    """Outcome of a parameter sweep on a sampled checkpoint."""

    parameter: str
    candidates: tuple[float, ...]
    errors: tuple[float, ...]
    chosen: float
    sample_rows: int


def sample_rows(
    tensor: np.ndarray, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample a fraction of rows (at least
    :data:`MIN_SAMPLE_ROWS`).

    Tiny tensors are returned whole — sampling only pays off at scale.
    """
    if not 0.0 < fraction <= 1.0:
        raise QuantizationError(
            f"sample fraction must be in (0, 1], got {fraction}"
        )
    rows = tensor.shape[0]
    count = max(MIN_SAMPLE_ROWS, int(round(rows * fraction)))
    if count >= rows:
        return tensor
    idx = rng.choice(rows, size=count, replace=False)
    return tensor[np.sort(idx)]


def _mean_adaptive_error(
    sample: np.ndarray, bits: int, num_bins: int, ratio: float
) -> float:
    result = greedy_range_search(sample, bits, num_bins, ratio)
    return float(np.mean(result.errors))


def _naive_error(sample: np.ndarray, bits: int) -> float:
    xmin = np.min(sample, axis=1).astype(np.float32)
    xmax = np.max(sample, axis=1).astype(np.float32)
    return float(np.mean(quantization_l2_per_row(sample, xmin, xmax, bits)))


def _knee(
    candidates: list[float], errors: list[float], reference_error: float
) -> float:
    """First candidate after which the marginal improvement tapers off.

    Walks the (increasing-cost) candidate list and returns the first
    value whose successor improves the error by less than
    :data:`TAPER_TOLERANCE` of the reference error. Falls back to the best candidate if the curve
    never flattens.
    """
    if len(candidates) == 1:
        return candidates[0]
    scale = reference_error if reference_error > 0 else 1.0
    for i in range(len(candidates) - 1):
        marginal = (errors[i] - errors[i + 1]) / scale
        if marginal < TAPER_TOLERANCE:
            return candidates[i]
    return candidates[int(np.argmin(errors))]


def select_num_bins(
    tensor: np.ndarray,
    bits: int,
    candidates: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50),
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    seed: int = 0,
) -> ProfileResult:
    """Choose ``num_bins`` (at ``ratio`` 1.0) by sampled profiling
    with the knee rule."""
    if not candidates:
        raise QuantizationError("need at least one num_bins candidate")
    rng = np.random.default_rng(seed)
    sample = sample_rows(
        np.ascontiguousarray(tensor, dtype=np.float32), sample_fraction, rng
    )
    ordered = sorted(set(int(c) for c in candidates))
    errors = [
        _mean_adaptive_error(sample, bits, bins, 1.0) for bins in ordered
    ]
    chosen = _knee(
        [float(b) for b in ordered], errors, _naive_error(sample, bits)
    )
    return ProfileResult(
        parameter="num_bins",
        candidates=tuple(float(b) for b in ordered),
        errors=tuple(errors),
        chosen=chosen,
        sample_rows=sample.shape[0],
    )


def select_ratio(
    tensor: np.ndarray,
    bits: int,
    num_bins: int,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    seed: int = 0,
) -> ProfileResult:
    """Choose ``ratio`` among :data:`RATIO_CANDIDATES` by sampled
    profiling with the knee rule."""
    rng = np.random.default_rng(seed)
    sample = sample_rows(
        np.ascontiguousarray(tensor, dtype=np.float32), sample_fraction, rng
    )
    errors = [
        _mean_adaptive_error(sample, bits, num_bins, r)
        for r in RATIO_CANDIDATES
    ]
    chosen = _knee(
        list(RATIO_CANDIDATES), errors, _naive_error(sample, bits)
    )
    return ProfileResult(
        parameter="ratio",
        candidates=RATIO_CANDIDATES,
        errors=tuple(errors),
        chosen=chosen,
        sample_rows=sample.shape[0],
    )
