"""Numpy DLRM substrate: embeddings, MLPs, interaction, optimizers."""

from .dlrm import DLRM, StepResult
from .embedding import EmbeddingCollection, EmbeddingTable, SparseGrad
from .interaction import DotInteraction
from .loss import (
    auc,
    bce_grad,
    bce_with_logits,
    log_loss,
    normalized_entropy,
    sigmoid,
)
from .mlp import MLP, Linear, ReLU
from .optim import DenseAdagrad, SparseRowWiseAdagrad

__all__ = [
    "DLRM",
    "DenseAdagrad",
    "DotInteraction",
    "EmbeddingCollection",
    "EmbeddingTable",
    "Linear",
    "MLP",
    "ReLU",
    "SparseGrad",
    "SparseRowWiseAdagrad",
    "StepResult",
    "auc",
    "bce_grad",
    "bce_with_logits",
    "log_loss",
    "normalized_entropy",
    "sigmoid",
]
