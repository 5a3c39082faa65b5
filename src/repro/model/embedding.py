"""Embedding tables with multi-hot bag lookups and sparse gradients.

Embedding tables are the sparse, model-parallel part of DLRM and account
for >99% of the model's footprint (paper section 2.1). Each training
sample carries ``hotness`` indices per table; the lookup sum-pools the
indexed rows. The backward pass produces *sparse* gradients — only the
rows actually looked up receive updates — which is the property that
makes incremental checkpointing effective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from .initializers import embedding_uniform


@dataclass
class SparseGrad:
    """Gradient restricted to the touched rows of one embedding table.

    ``rows`` holds unique, sorted row indices; ``values[i]`` is the
    aggregated gradient for ``rows[i]``.
    """

    rows: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.rows.ndim != 1 or self.values.ndim != 2:
            raise TrainingError("SparseGrad expects 1-D rows, 2-D values")
        if self.rows.shape[0] != self.values.shape[0]:
            raise TrainingError(
                f"rows/values length mismatch: {self.rows.shape[0]} vs "
                f"{self.values.shape[0]}"
            )


class EmbeddingTable:
    """One embedding table: (rows, dim) fp32 with sum-pooled bag lookups."""

    def __init__(
        self,
        rows: int,
        dim: int,
        rng: np.random.Generator,
        table_id: int = 0,
    ) -> None:
        if rows < 1 or dim < 1:
            raise TrainingError("embedding table dimensions must be positive")
        self.table_id = table_id
        self.rows = rows
        self.dim = dim
        self.weight = embedding_uniform(rows, dim, rng)
        self._last_indices: np.ndarray | None = None

    def forward(self, indices: np.ndarray) -> np.ndarray:
        """Sum-pool lookup: (batch, hotness) indices -> (batch, dim).

        Out-of-range indices are rejected rather than clipped — a wrong
        index is a data bug, and clipping would silently skew training.
        """
        if indices.ndim != 2:
            raise TrainingError(
                f"expected (batch, hotness) indices, got shape "
                f"{indices.shape}"
            )
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.rows
        ):
            raise TrainingError(
                f"table {self.table_id}: index out of range "
                f"[{indices.min()}, {indices.max()}] for {self.rows} rows"
            )
        self._last_indices = indices
        return np.add.reduce(self.weight[indices], axis=1)

    def backward(self, grad_out: np.ndarray) -> SparseGrad:
        """Aggregate per-row gradients for the last forward's indices.

        Every index in a sample's bag receives that sample's full output
        gradient (sum-pooling has unit partials). Duplicate lookups of
        the same row accumulate.
        """
        if self._last_indices is None:
            raise TrainingError("backward called before forward")
        indices = self._last_indices
        unique_rows, inverse = np.unique(
            indices.reshape(-1), return_inverse=True
        )
        values = np.zeros(
            (unique_rows.shape[0], self.dim), dtype=np.float32
        )
        # One scatter through the flat view: lookup k's gradient element
        # d lands on values[inverse[k], d]. np.add.at adds duplicates one
        # at a time in index order, exactly as the (rows, dim) form does;
        # a sorted segment sum (np.add.reduceat) would add pairwise and
        # change the bits.
        np.add.at(
            values.reshape(-1),
            (inverse[:, None] * self.dim + np.arange(self.dim)).reshape(-1),
            np.repeat(grad_out, indices.shape[1], axis=0).reshape(-1),
        )
        self._last_indices = None
        return SparseGrad(rows=unique_rows, values=values)


class EmbeddingCollection:
    """All of a model's embedding tables, indexed by table id."""

    def __init__(
        self,
        rows_per_table: tuple[int, ...],
        dim: int,
        rng: np.random.Generator,
    ) -> None:
        self.tables = [
            EmbeddingTable(rows, dim, rng, table_id=i)
            for i, rows in enumerate(rows_per_table)
        ]
        self.dim = dim

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, table_id: int) -> EmbeddingTable:
        return self.tables[table_id]

    def forward(self, indices_per_table: list[np.ndarray]) -> list[np.ndarray]:
        """Lookups for every table; returns one (batch, dim) per table."""
        if len(indices_per_table) != len(self.tables):
            raise TrainingError(
                f"got indices for {len(indices_per_table)} tables, "
                f"model has {len(self.tables)}"
            )
        return [
            table.forward(indices)
            for table, indices in zip(self.tables, indices_per_table)
        ]

    def backward(self, grads_per_table: list[np.ndarray]) -> list[SparseGrad]:
        """Sparse gradients for every table (same order as forward)."""
        return [
            table.backward(grad)
            for table, grad in zip(self.tables, grads_per_table)
        ]
