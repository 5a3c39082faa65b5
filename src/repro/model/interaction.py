"""Dot-product feature interaction (the "interaction op" in Fig 1).

DLRM combines the bottom-MLP output with every embedding lookup by
taking all pairwise dot products between the (T+1) feature vectors and
concatenating the lower-triangular results onto the dense vector. The
backward pass pushes gradients through both the concatenation and the
bilinear dot products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import TrainingError


@lru_cache(maxsize=32)
def _lower_triangle(features: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the strict lower triangle, one pair per
    feature count. Read-only: every model of that width indexes with
    the same two arrays."""
    rows, cols = np.tril_indices(features, k=-1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class DotInteraction:
    """Pairwise-dot feature interaction with cached-stack backward."""

    def __init__(self) -> None:
        self._stacked: np.ndarray | None = None

    def output_width(self, num_tables: int, dim: int) -> int:
        """Width of the interaction output: dense dim + C(T+1, 2)."""
        features = num_tables + 1
        return dim + features * (features - 1) // 2

    def forward(
        self, dense: np.ndarray, embeddings: list[np.ndarray]
    ) -> np.ndarray:
        """Concat(dense, lower-triangular pairwise dots).

        Args:
            dense: (batch, dim) bottom-MLP output.
            embeddings: T arrays of (batch, dim) pooled lookups.
        """
        if not embeddings:
            raise TrainingError("interaction requires at least one table")
        for i, emb in enumerate(embeddings):
            if emb.shape != dense.shape:
                raise TrainingError(
                    f"embedding {i} shape {emb.shape} != dense shape "
                    f"{dense.shape}"
                )
        features = len(embeddings) + 1
        # np.stack's bytes, without its Python-level argument handling.
        stacked = np.concatenate([dense, *embeddings], axis=1).reshape(
            dense.shape[0], features, dense.shape[1]
        )
        rows, cols = _lower_triangle(features)
        gram = np.einsum("bif,bjf->bij", stacked, stacked)
        interactions = gram[:, rows, cols]
        self._stacked = stacked
        return np.concatenate([dense, interactions], axis=1).astype(
            np.float32, copy=False
        )

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (grad_dense, [grad_embedding_t ...])."""
        if self._stacked is None:
            raise TrainingError("backward called before forward")
        stacked = self._stacked
        batch, features, dim = stacked.shape
        rows, cols = _lower_triangle(features)

        grad_dense_direct = grad_out[:, :dim]
        grad_pairs = grad_out[:, dim:]

        # Scatter pair gradients into a symmetric (features, features)
        # gram-gradient, then contract against the stacked features:
        # d/dZ (Z Z^T) applied to G is (G + G^T) Z.
        gram_grad = np.zeros((batch, features, features), dtype=np.float32)
        gram_grad[:, rows, cols] = grad_pairs
        sym = gram_grad + gram_grad.transpose(0, 2, 1)
        grad_stacked = np.einsum("bij,bjf->bif", sym, stacked)

        grad_dense = grad_stacked[:, 0, :] + grad_dense_direct
        grad_embeddings = [
            grad_stacked[:, t, :].astype(np.float32, copy=False)
            for t in range(1, features)
        ]
        self._stacked = None
        return grad_dense.astype(np.float32, copy=False), grad_embeddings
