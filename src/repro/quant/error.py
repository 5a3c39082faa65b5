"""Quantization error metrics.

The paper compares quantization approaches by the *mean l2 error* of an
entire checkpoint (section 5.2)::

    (1/m) * sum_i || X_i - Q_i ||_2

i.e. the per-embedding-vector Euclidean distance between the original and
the de-quantized vector, averaged over all ``m`` vectors. This metric "is
a good proxy for accuracy loss" and drives both the greedy adaptive
search and the sampling-based parameter profiler.
"""

from __future__ import annotations

import numpy as np

from ..errors import QuantizationError


def _check_pair(original: np.ndarray, reconstructed: np.ndarray) -> None:
    if original.shape != reconstructed.shape:
        raise QuantizationError(
            "shape mismatch between original and reconstructed tensors: "
            f"{original.shape} vs {reconstructed.shape}"
        )
    if original.ndim != 2:
        raise QuantizationError(
            f"error metrics operate on 2-D (rows x dim) tensors, "
            f"got {original.ndim}-D"
        )


def row_l2_errors(
    original: np.ndarray, reconstructed: np.ndarray
) -> np.ndarray:
    """Per-row Euclidean distance ||X_i - Q_i||_2, shape (rows,)."""
    _check_pair(original, reconstructed)
    diff = original.astype(np.float64) - reconstructed.astype(np.float64)
    return np.sqrt(np.sum(diff * diff, axis=1))


def mean_l2_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """The paper's checkpoint-level metric: mean of per-row l2 errors."""
    return float(np.mean(row_l2_errors(original, reconstructed)))


def max_abs_error(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Worst-case element error; bounds the de-quantization step size."""
    _check_pair(original, reconstructed)
    diff = original.astype(np.float64) - reconstructed.astype(np.float64)
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def improvement(baseline_error: float, candidate_error: float) -> float:
    """Relative error reduction of candidate over baseline (Figs 10/11).

    Returns e.g. 0.25 when the candidate's mean l2 error is 25% lower
    than the baseline's. Zero baseline error (already exact) yields 0.
    """
    if baseline_error < 0 or candidate_error < 0:
        raise QuantizationError("errors must be non-negative")
    if baseline_error == 0.0:
        return 0.0
    return (baseline_error - candidate_error) / baseline_error
