"""The complete DLRM model (paper Fig 1) with training step and state.

Wiring: dense features -> bottom MLP; sparse features -> embedding bag
lookups; dot interaction combines them; top MLP produces the CTR logit.
Training uses BCE loss, dense Adagrad for the MLPs and row-wise Adagrad
for the embedding tables.

The model exposes exactly the state surface Check-N-Run checkpoints:
``dense_state()`` (MLPs + dense optimizer, replicated across devices so
one copy suffices) and per-table embedding weights + accumulators (model
parallel, checkpointed shard by shard).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ModelConfig
from ..data.batch import Batch
from ..errors import TrainingError
from .embedding import EmbeddingCollection
from .interaction import DotInteraction
from .loss import bce_grad, bce_with_logits, sigmoid
from .mlp import MLP
from .optim import DenseAdagrad, SparseRowWiseAdagrad


@dataclass
class StepResult:
    """Outcome of one synchronous training step."""

    loss: float
    touched_rows: dict[int, np.ndarray]  # table id -> unique modified rows
    batch_index: int


class DLRM:
    """Deep Learning Recommendation Model on numpy.

    Construction is deterministic given ``config.seed``; two models built
    from the same config are bit-identical, which the restore tests rely
    on.
    """

    def __init__(
        self, config: ModelConfig, learning_rate: float = 0.05
    ) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.interaction = DotInteraction()
        interaction_width = self.interaction.output_width(
            config.num_tables, config.embedding_dim
        )
        bottom = (config.num_dense_features,) + config.bottom_mlp
        top = (interaction_width,) + config.top_mlp
        # Both MLPs' parameters (and gradients) are views of one flat
        # buffer, bottom first, so the dense update and zeroing are a
        # few whole-buffer operations instead of a few per array.
        split = MLP.size(bottom)
        size = split + MLP.size(top)
        params, grads = np.zeros(size, np.float32), np.zeros(size, np.float32)
        self._dense_params, self._dense_grads = params, grads
        self.bottom_mlp = MLP(bottom, rng, params[:split], grads[:split])
        self.embeddings = EmbeddingCollection(
            config.rows_per_table, config.embedding_dim, rng
        )
        self.top_mlp = MLP(top, rng, params[split:], grads[split:])
        self.dense_optimizer = DenseAdagrad(learning_rate)
        self.sparse_optimizers = [
            SparseRowWiseAdagrad(table, learning_rate)
            for table in self.embeddings.tables
        ]
        self.samples_trained = 0
        self.batches_trained = 0

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def forward(self, batch: Batch) -> np.ndarray:
        """Compute CTR logits, shape (batch_size,)."""
        dense_out = self.bottom_mlp.forward(batch.dense)
        emb_out = self.embeddings.forward(batch.sparse)
        combined = self.interaction.forward(dense_out, emb_out)
        return self.top_mlp.forward(combined).reshape(-1)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Click probabilities (inference path; no caching side effects)."""
        logits = self.forward(batch)
        self._clear_caches()
        return sigmoid(logits)

    def train_step(self, batch: Batch) -> StepResult:
        """One synchronous forward/backward/update step."""
        logits = self.forward(batch)
        loss = bce_with_logits(logits, batch.labels)
        grad_logits = bce_grad(logits, batch.labels).reshape(-1, 1)

        grad_combined = self.top_mlp.backward(grad_logits)
        grad_dense, grad_embs = self.interaction.backward(grad_combined)
        self.bottom_mlp.backward(grad_dense, input_grad=False)
        sparse_grads = self.embeddings.backward(grad_embs)

        self.dense_optimizer.step(
            self._dense_params, self._dense_grads, self.dense_parameters
        )
        self._dense_grads.fill(0.0)

        touched: dict[int, np.ndarray] = {}
        for table_id, (optimizer, grad) in enumerate(
            zip(self.sparse_optimizers, sparse_grads)
        ):
            touched[table_id] = optimizer.step(grad)

        self.samples_trained += batch.num_samples
        self.batches_trained += 1
        return StepResult(
            loss=loss, touched_rows=touched, batch_index=batch.batch_index
        )

    def _clear_caches(self) -> None:
        for table in self.embeddings.tables:
            table._last_indices = None

    # ------------------------------------------------------------------
    # State surface for checkpointing
    # ------------------------------------------------------------------

    def dense_parameters(self) -> dict[str, np.ndarray]:
        params = self.bottom_mlp.parameters("bottom")
        params.update(self.top_mlp.parameters("top"))
        return params

    def dense_state(self) -> dict[str, np.ndarray]:
        """Everything replicated across devices: MLPs + dense optimizer."""
        state = {
            name: arr.copy() for name, arr in self.dense_parameters().items()
        }
        for name, arr in self.dense_optimizer.state_dict().items():
            state[f"optim.{name}"] = arr
        return state

    def load_dense_state(self, state: dict[str, np.ndarray]) -> None:
        params = {k: v for k, v in state.items() if not k.startswith("optim.")}
        self.bottom_mlp.load_parameters("bottom", params)
        self.top_mlp.load_parameters("top", params)
        optim_state = {
            k[len("optim.") :]: v
            for k, v in state.items()
            if k.startswith("optim.")
        }
        self.dense_optimizer.load_state_dict(optim_state)

    def table_weight(self, table_id: int) -> np.ndarray:
        """The live (mutable) weight array for one table."""
        return self.embeddings[table_id].weight

    def table_accumulator(self, table_id: int) -> np.ndarray:
        """The live row-wise Adagrad accumulator for one table."""
        return self.sparse_optimizers[table_id].accumulator

    def load_table_rows(
        self,
        table_id: int,
        rows: "np.ndarray | slice",
        weights: np.ndarray,
        accumulator: np.ndarray | None = None,
    ) -> None:
        """Overwrite specific rows of a table (restore path): ids, or a
        slice for a contiguous range."""
        table = self.embeddings[table_id]
        if isinstance(rows, slice):
            count = len(range(table.weight.shape[0])[rows])
        else:
            count = rows.shape[0]
        if weights.shape != (count, table.dim):
            raise TrainingError(
                f"restore shape mismatch for table {table_id}: "
                f"{weights.shape} vs ({count}, {table.dim})"
            )
        if accumulator is not None and accumulator.shape != (count,):
            raise TrainingError(
                f"restore accumulator mismatch for table {table_id}: "
                f"{accumulator.shape} vs ({count},)"
            )
        table.weight[rows] = weights
        if accumulator is not None:
            self.sparse_optimizers[table_id].accumulator[rows] = accumulator

    @property
    def num_tables(self) -> int:
        return len(self.embeddings)

    def clone_config_model(self) -> "DLRM":
        """A fresh model with identical config (and therefore init)."""
        return DLRM(self.config, self.dense_optimizer.learning_rate)

    def reinitialize(self) -> None:
        """Reset all state in place to the deterministic initial values.

        Models a from-scratch job restart when no checkpoint survived:
        the same arrays are overwritten so views held by trainers and
        snapshots stay valid.
        """
        fresh = self.clone_config_model()
        np.copyto(self._dense_params, fresh._dense_params)
        self.dense_optimizer.load_state_dict(
            fresh.dense_optimizer.state_dict()
        )
        for table_id in range(self.num_tables):
            np.copyto(
                self.table_weight(table_id), fresh.table_weight(table_id)
            )
            self.sparse_optimizers[table_id].accumulator.fill(0.0)
        self.samples_trained = 0
        self.batches_trained = 0
