"""Optimizers: dense (MLP) and sparse row-wise (embedding tables).

Production DLRM trains embeddings with *row-wise Adagrad*: one scalar
accumulator per embedding row, updated with the mean squared gradient of
that row. The accumulator is part of the trainer state and therefore
part of every checkpoint (paper section 4.1: "the trainer state consists
of all the model layers ..., the optimizer state, and the relevant
metrics").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import TrainingError
from .embedding import EmbeddingTable, SparseGrad

#: Adagrad's denominator floor: ``lr * grad / (sqrt(accum) + EPS)``.
EPS = 1e-8


class DenseAdagrad:
    """Adagrad for dense parameters (per-element accumulators).

    Accumulators are created by the first step, so :meth:`state_dict`
    is empty until then (and after loading an empty state).
    """

    name = "adagrad"

    def __init__(self, learning_rate: float = 0.05):
        if learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        self.learning_rate = learning_rate
        self._accum: dict[str, np.ndarray] = {}
        #: The buffer ``_accum``'s arrays are views of, once stepped.
        self._flat: np.ndarray | None = None

    def step(
        self,
        param: np.ndarray,
        grad: np.ndarray,
        named: Callable[[], dict[str, np.ndarray]],
    ) -> None:
        """One update of parameters laid out in one 1-D buffer.

        ``named()`` returns the consecutive pieces of ``param``, in
        order, by the names :meth:`state_dict` reports; it is called
        only to lay out the accumulators on the first step. They are
        views of one buffer with the same layout, so the update is a
        handful of whole-buffer ufuncs — elementwise, so the bits are
        those of updating each array on its own.
        """
        if self._flat is None:
            flat = np.zeros_like(param)
            views, offset = {}, 0
            for name, piece in named().items():
                end = offset + piece.size
                views[name] = flat[offset:end].reshape(piece.shape)
                offset = end
            for name, arr in self._accum.items():  # a loaded state
                if name not in views or views[name].shape != arr.shape:
                    raise TrainingError(
                        f"dense optimizer state {name!r} does not match "
                        "the parameters"
                    )
                views[name][...] = arr
            # Loaded names keep their order; the rest follow the layout.
            self._accum = {**{n: views[n] for n in self._accum}, **views}
            self._flat = flat
        self._flat += grad * grad
        param -= self.learning_rate * grad / (np.sqrt(self._flat) + EPS)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self._accum.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._accum = {name: arr.copy() for name, arr in state.items()}
        self._flat = None


class SparseRowWiseAdagrad:
    """Row-wise Adagrad for one embedding table.

    State is a single fp32 accumulator per row. On each step, touched
    rows add the mean squared gradient of their row; the row update is
    scaled by ``lr / (sqrt(accum) + EPS)``.
    """

    name = "rowwise_adagrad"

    def __init__(
        self, table: EmbeddingTable, learning_rate: float = 0.05
    ) -> None:
        if learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        self.table = table
        self.learning_rate = learning_rate
        self.accumulator = np.zeros(table.rows, dtype=np.float32)

    def step(self, grad: SparseGrad) -> np.ndarray:
        """Apply a sparse update; returns the rows actually modified."""
        rows, values = grad.rows, grad.values
        if rows.size == 0:
            return rows
        # np.add.reduce / n is np.mean's own arithmetic, minus its
        # Python-level dispatch.
        mean_sq = (
            np.add.reduce(np.square(values, dtype=np.float64), axis=1)
            / values.shape[1]
        ).astype(np.float32)
        accum = self.accumulator[rows] + mean_sq  # rows are unique
        self.accumulator[rows] = accum
        denom = np.sqrt(accum) + EPS
        self.table.weight[rows] -= self.learning_rate * values / denom[:, None]
        return rows
