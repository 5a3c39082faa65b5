"""Binary cross-entropy loss and CTR evaluation metrics.

Recommendation models are click-through-rate predictors; the standard
training loss is BCE over logits and the standard quality metrics are
log loss, normalised entropy (NE — log loss normalised by the entropy of
the base CTR, Facebook's canonical metric) and AUC. "Accuracy
degradation" in the paper's Fig 14 is the relative gap of such a metric
between a quantization-restored run and the unperturbed baseline.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


def _logistic(logits: np.ndarray) -> np.ndarray:
    """Stable logistic in the logits' own precision: ``1 / (1 + e)``
    for ``z >= 0`` and ``e / (1 + e)`` below, with ``e = exp(-|z|)`` —
    one ``exp`` serving both branches."""
    e = np.exp(-np.abs(logits))
    return np.where(logits >= 0, 1, e) / (1 + e)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (returned as float64)."""
    return _logistic(logits).astype(np.float64)


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, computed stably from logits."""
    if logits.shape != labels.shape:
        raise TrainingError(
            f"logits/labels shape mismatch: {logits.shape} vs {labels.shape}"
        )
    z = logits.astype(np.float64)
    y = labels.astype(np.float64)
    # max(z, 0) - z*y + log(1 + exp(-|z|)) is the stable BCE form.
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.add.reduce(loss, axis=None) / loss.size)  # np.mean


def bce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(z) - y) / batch."""
    if logits.shape != labels.shape:
        raise TrainingError(
            f"logits/labels shape mismatch: {logits.shape} vs {labels.shape}"
        )
    batch = logits.shape[0]
    return ((_logistic(logits) - labels.astype(np.float64)) / batch).astype(
        np.float32
    )


def log_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean log loss from probabilities (clipped away from 0/1)."""
    p = np.clip(probabilities.astype(np.float64), 1e-12, 1.0 - 1e-12)
    y = labels.astype(np.float64)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def normalized_entropy(
    probabilities: np.ndarray, labels: np.ndarray
) -> float:
    """Log loss normalised by the entropy of the empirical CTR.

    NE = 1.0 means the model is no better than predicting the base rate;
    lower is better. This is the metric production CTR systems monitor,
    so it is the one Fig 14's degradation curves are computed against.
    """
    ctr = float(np.mean(labels))
    if ctr <= 0.0 or ctr >= 1.0:
        raise TrainingError(
            f"degenerate label distribution (ctr={ctr}); NE undefined"
        )
    base = -(ctr * np.log(ctr) + (1.0 - ctr) * np.log(1.0 - ctr))
    return log_loss(probabilities, labels) / base


def auc(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank-statistic formulation."""
    y = labels.astype(np.int64)
    positives = int(np.sum(y))
    negatives = y.size - positives
    if positives == 0 or negatives == 0:
        raise TrainingError("AUC undefined without both classes present")
    order = np.argsort(probabilities, kind="mergesort")
    ranks = np.empty(y.size, dtype=np.float64)
    # Average ranks for ties so the statistic is exact.
    sorted_p = probabilities[order]
    i = 0
    rank_position = 1
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        avg = (rank_position + rank_position + (j - i)) / 2.0
        ranks[order[i : j + 1]] = avg
        rank_position += j - i + 1
        i = j + 1
    positive_rank_sum = float(np.sum(ranks[y == 1]))
    return (
        positive_rank_sum - positives * (positives + 1) / 2.0
    ) / (positives * negatives)
