"""Model-quality evaluation on a held-out batch stream.

Fig 14 plots "lifetime accuracy degradation" of runs that resumed from
quantized checkpoints, against a run that never quantized. We evaluate
on a held-out batch stream and report normalised entropy (NE) — the
canonical production CTR metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.batch import Batch
from ..errors import TrainingError
from ..model.dlrm import DLRM
from ..model.loss import auc, log_loss, normalized_entropy


@dataclass(frozen=True)
class EvalResult:
    """Held-out evaluation of one model."""

    log_loss: float
    normalized_entropy: float
    auc: float
    num_samples: int


def evaluate(model: DLRM, batches: list[Batch]) -> EvalResult:
    """Evaluate on held-out batches (no training side effects)."""
    if not batches:
        raise TrainingError("evaluation needs at least one batch")
    probs = []
    labels = []
    for batch in batches:
        probs.append(model.predict_proba(batch))
        labels.append(batch.labels)
    p = np.concatenate(probs)
    y = np.concatenate(labels)
    return EvalResult(
        log_loss=log_loss(p, y),
        normalized_entropy=normalized_entropy(p, y),
        auc=auc(p, y),
        num_samples=int(y.size),
    )
