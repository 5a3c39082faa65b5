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
