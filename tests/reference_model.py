"""The numpy DLRM step and synthetic batch path, kept verbatim as the
test oracle.

These are the bodies ``src/repro/model/`` and ``src/repro/data/`` used
before the training step was rewritten around flat dense buffers, a
1-D embedding scatter and fused loss kernels: per-array dense Adagrad
over name-keyed dicts, ``np.unique`` + 2-D ``np.add.at``, masked
gathers in ``sigmoid``, ``np.mean``, defensive ``astype`` copies. They
define what "bit-identical" means for
``tests/test_model_step_differential.py`` and must not be edited to
follow the shipped code — only the value objects they share with it
(configs, ``Batch``, the error types) are imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.config import DataConfig, ModelConfig
from repro.data.batch import Batch
from repro.errors import ReaderError, TrainingError

# ----------------------------------------------------------------------
# model/initializers.py
# ----------------------------------------------------------------------


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot-uniform weight matrix of shape (fan_in, fan_out)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(
        np.float32
    )


def embedding_uniform(
    rows: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """DLRM-style embedding init: U(-1/sqrt(rows), 1/sqrt(rows))."""
    limit = 1.0 / np.sqrt(rows)
    return rng.uniform(-limit, limit, size=(rows, dim)).astype(np.float32)


def zeros(*shape: int) -> np.ndarray:
    """fp32 zeros — bias initialisation."""
    return np.zeros(shape, dtype=np.float32)


# ----------------------------------------------------------------------
# model/embedding.py
# ----------------------------------------------------------------------


@dataclass
class SparseGrad:
    rows: np.ndarray
    values: np.ndarray


class EmbeddingTable:
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
        return self.weight[indices].sum(axis=1)

    def backward(self, grad_out: np.ndarray) -> SparseGrad:
        if self._last_indices is None:
            raise TrainingError("backward called before forward")
        indices = self._last_indices
        batch, hotness = indices.shape
        flat_rows = indices.reshape(-1)
        flat_grads = np.repeat(grad_out, hotness, axis=0)
        unique_rows, inverse = np.unique(flat_rows, return_inverse=True)
        values = np.zeros(
            (unique_rows.shape[0], self.dim), dtype=np.float32
        )
        np.add.at(values, inverse, flat_grads)
        self._last_indices = None
        return SparseGrad(rows=unique_rows, values=values)


class EmbeddingCollection:
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

    def __getitem__(self, table_id: int) -> EmbeddingTable:
        return self.tables[table_id]

    def forward(self, indices_per_table: list[np.ndarray]) -> list[np.ndarray]:
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
        return [
            table.backward(grad)
            for table, grad in zip(self.tables, grads_per_table)
        ]


# ----------------------------------------------------------------------
# model/mlp.py
# ----------------------------------------------------------------------


class Linear:
    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise TrainingError("layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = xavier_uniform(in_features, out_features, rng)
        self.bias = zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise TrainingError(
                f"Linear({self.in_features}->{self.out_features}) got "
                f"input of shape {x.shape}"
            )
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise TrainingError("backward called before forward")
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight.T
        self._input = None
        return grad_in

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)


class ReLU:
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise TrainingError("backward called before forward")
        grad_in = np.where(self._mask, grad_out, 0.0).astype(np.float32)
        self._mask = None
        return grad_in


class MLP:
    def __init__(
        self, layer_sizes: tuple[int, ...], rng: np.random.Generator
    ) -> None:
        if len(layer_sizes) < 2:
            raise TrainingError("MLP needs at least input and output sizes")
        self.layer_sizes = tuple(layer_sizes)
        self.linears: list[Linear] = []
        self.activations: list[ReLU] = []
        for i in range(len(layer_sizes) - 1):
            self.linears.append(
                Linear(layer_sizes[i], layer_sizes[i + 1], rng)
            )
            if i < len(layer_sizes) - 2:
                self.activations.append(ReLU())

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for i, linear in enumerate(self.linears):
            out = linear.forward(out)
            if i < len(self.activations):
                out = self.activations[i].forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for i in range(len(self.linears) - 1, -1, -1):
            if i < len(self.activations):
                grad = self.activations[i].backward(grad)
            grad = self.linears[i].backward(grad)
        return grad

    def zero_grad(self) -> None:
        for linear in self.linears:
            linear.zero_grad()

    def parameters(self, prefix: str) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for i, linear in enumerate(self.linears):
            params[f"{prefix}.{i}.weight"] = linear.weight
            params[f"{prefix}.{i}.bias"] = linear.bias
        return params

    def gradients(self, prefix: str) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        for i, linear in enumerate(self.linears):
            grads[f"{prefix}.{i}.weight"] = linear.grad_weight
            grads[f"{prefix}.{i}.bias"] = linear.grad_bias
        return grads

    def load_parameters(
        self, prefix: str, params: dict[str, np.ndarray]
    ) -> None:
        for i, linear in enumerate(self.linears):
            weight = params[f"{prefix}.{i}.weight"]
            bias = params[f"{prefix}.{i}.bias"]
            if weight.shape != linear.weight.shape:
                raise TrainingError(
                    f"shape mismatch loading {prefix}.{i}.weight: "
                    f"{weight.shape} vs {linear.weight.shape}"
                )
            np.copyto(linear.weight, weight)
            np.copyto(linear.bias, bias)


# ----------------------------------------------------------------------
# model/optim.py
# ----------------------------------------------------------------------


class DenseAdagrad:
    def __init__(self, learning_rate: float = 0.05, eps: float = 1e-8):
        if learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        self.learning_rate = learning_rate
        self.eps = eps
        self._accum: dict[str, np.ndarray] = {}

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]
    ) -> None:
        for name, param in params.items():
            grad = grads[name]
            if name not in self._accum:
                self._accum[name] = np.zeros_like(param)
            accum = self._accum[name]
            accum += grad * grad
            param -= self.learning_rate * grad / (np.sqrt(accum) + self.eps)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self._accum.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._accum = {name: arr.copy() for name, arr in state.items()}


class SparseRowWiseAdagrad:
    def __init__(
        self,
        table: EmbeddingTable,
        learning_rate: float = 0.05,
        eps: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise TrainingError("learning rate must be positive")
        self.table = table
        self.learning_rate = learning_rate
        self.eps = eps
        self.accumulator = np.zeros(table.rows, dtype=np.float32)

    def step(self, grad: SparseGrad) -> np.ndarray:
        if grad.rows.size == 0:
            return grad.rows
        mean_sq = np.mean(
            grad.values.astype(np.float64) ** 2, axis=1
        ).astype(np.float32)
        self.accumulator[grad.rows] += mean_sq
        denom = np.sqrt(self.accumulator[grad.rows]) + self.eps
        update = self.learning_rate * grad.values / denom[:, None]
        self.table.weight[grad.rows] -= update
        return grad.rows


# ----------------------------------------------------------------------
# model/interaction.py
# ----------------------------------------------------------------------


@lru_cache(maxsize=32)
def _lower_triangle(features: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = np.tril_indices(features, k=-1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class DotInteraction:
    def __init__(self) -> None:
        self._stacked: np.ndarray | None = None

    def output_width(self, num_tables: int, dim: int) -> int:
        features = num_tables + 1
        return dim + features * (features - 1) // 2

    def forward(
        self, dense: np.ndarray, embeddings: list[np.ndarray]
    ) -> np.ndarray:
        if not embeddings:
            raise TrainingError("interaction requires at least one table")
        for i, emb in enumerate(embeddings):
            if emb.shape != dense.shape:
                raise TrainingError(
                    f"embedding {i} shape {emb.shape} != dense shape "
                    f"{dense.shape}"
                )
        stacked = np.stack([dense] + list(embeddings), axis=1)
        features = stacked.shape[1]
        rows, cols = _lower_triangle(features)
        gram = np.einsum("bif,bjf->bij", stacked, stacked)
        interactions = gram[:, rows, cols]
        self._stacked = stacked
        return np.concatenate([dense, interactions], axis=1).astype(
            np.float32
        )

    def backward(
        self, grad_out: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        if self._stacked is None:
            raise TrainingError("backward called before forward")
        stacked = self._stacked
        batch, features, dim = stacked.shape
        rows, cols = _lower_triangle(features)

        grad_dense_direct = grad_out[:, :dim]
        grad_pairs = grad_out[:, dim:]

        gram_grad = np.zeros((batch, features, features), dtype=np.float32)
        gram_grad[:, rows, cols] = grad_pairs
        sym = gram_grad + gram_grad.transpose(0, 2, 1)
        grad_stacked = np.einsum("bij,bjf->bif", sym, stacked)

        grad_dense = grad_stacked[:, 0, :] + grad_dense_direct
        grad_embeddings = [
            grad_stacked[:, t, :].astype(np.float32)
            for t in range(1, features)
        ]
        self._stacked = None
        return grad_dense.astype(np.float32), grad_embeddings


# ----------------------------------------------------------------------
# model/loss.py
# ----------------------------------------------------------------------


def sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits, dtype=np.float64)
    pos = logits >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    ex = np.exp(logits[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    if logits.shape != labels.shape:
        raise TrainingError(
            f"logits/labels shape mismatch: {logits.shape} vs {labels.shape}"
        )
    z = logits.astype(np.float64)
    y = labels.astype(np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(loss))


def bce_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    if logits.shape != labels.shape:
        raise TrainingError(
            f"logits/labels shape mismatch: {logits.shape} vs {labels.shape}"
        )
    batch = logits.shape[0]
    return ((sigmoid(logits) - labels.astype(np.float64)) / batch).astype(
        np.float32
    )


# ----------------------------------------------------------------------
# model/dlrm.py
# ----------------------------------------------------------------------


@dataclass
class StepResult:
    loss: float
    touched_rows: dict[int, np.ndarray]
    batch_index: int


class DLRM:
    def __init__(
        self, config: ModelConfig, learning_rate: float = 0.05
    ) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.bottom_mlp = MLP(
            (config.num_dense_features,) + config.bottom_mlp, rng
        )
        self.embeddings = EmbeddingCollection(
            config.rows_per_table, config.embedding_dim, rng
        )
        self.interaction = DotInteraction()
        interaction_width = self.interaction.output_width(
            config.num_tables, config.embedding_dim
        )
        self.top_mlp = MLP((interaction_width,) + config.top_mlp, rng)
        self.dense_optimizer = DenseAdagrad(learning_rate)
        self.sparse_optimizers = [
            SparseRowWiseAdagrad(table, learning_rate)
            for table in self.embeddings.tables
        ]
        self.samples_trained = 0
        self.batches_trained = 0

    def forward(self, batch: Batch) -> np.ndarray:
        dense_out = self.bottom_mlp.forward(batch.dense)
        emb_out = self.embeddings.forward(batch.sparse)
        combined = self.interaction.forward(dense_out, emb_out)
        return self.top_mlp.forward(combined).reshape(-1)

    def predict_proba(self, batch: Batch) -> np.ndarray:
        logits = self.forward(batch)
        for table in self.embeddings.tables:
            table._last_indices = None
        return sigmoid(logits)

    def train_step(self, batch: Batch) -> StepResult:
        logits = self.forward(batch)
        loss = bce_with_logits(logits, batch.labels)
        grad_logits = bce_grad(logits, batch.labels).reshape(-1, 1)

        grad_combined = self.top_mlp.backward(grad_logits)
        grad_dense, grad_embs = self.interaction.backward(grad_combined)
        self.bottom_mlp.backward(grad_dense)
        sparse_grads = self.embeddings.backward(grad_embs)

        dense_params = self.dense_parameters()
        dense_grads = self.dense_gradients()
        self.dense_optimizer.step(dense_params, dense_grads)
        self.bottom_mlp.zero_grad()
        self.top_mlp.zero_grad()

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

    def dense_parameters(self) -> dict[str, np.ndarray]:
        params = self.bottom_mlp.parameters("bottom")
        params.update(self.top_mlp.parameters("top"))
        return params

    def dense_gradients(self) -> dict[str, np.ndarray]:
        grads = self.bottom_mlp.gradients("bottom")
        grads.update(self.top_mlp.gradients("top"))
        return grads

    def dense_state(self) -> dict[str, np.ndarray]:
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
        return self.embeddings[table_id].weight

    def table_accumulator(self, table_id: int) -> np.ndarray:
        return self.sparse_optimizers[table_id].accumulator

    def reinitialize(self) -> None:
        fresh = DLRM(self.config, self.dense_optimizer.learning_rate)
        for name, arr in fresh.dense_parameters().items():
            np.copyto(self.dense_parameters()[name], arr)
        self.dense_optimizer.load_state_dict(
            fresh.dense_optimizer.state_dict()
        )
        for table_id in range(len(self.embeddings.tables)):
            np.copyto(
                self.table_weight(table_id), fresh.table_weight(table_id)
            )
            self.sparse_optimizers[table_id].accumulator.fill(0.0)
        self.samples_trained = 0
        self.batches_trained = 0


# ----------------------------------------------------------------------
# data/synthetic.py
# ----------------------------------------------------------------------


class ZipfianSampler:
    def __init__(self, rows: int, alpha: float, seed: int) -> None:
        if rows < 1:
            raise ReaderError("sampler needs at least one row")
        if alpha <= 0:
            raise ReaderError("zipf alpha must be positive")
        self.rows = rows
        self.alpha = alpha
        ranks = np.arange(1, rows + 1, dtype=np.float64)
        pmf = ranks**-alpha
        pmf /= pmf.sum()
        self._cdf = np.cumsum(pmf)
        self._cdf[-1] = 1.0
        rng = np.random.default_rng(seed)
        self._rank_to_row = rng.permutation(rows)

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator):
        uniforms = rng.random(size=shape)
        ranks = np.searchsorted(self._cdf, uniforms, side="right")
        return self._rank_to_row[ranks].astype(np.int64)


class SyntheticClickDataset:
    def __init__(self, model_config: ModelConfig, data_config: DataConfig):
        self.model_config = model_config
        self.data_config = data_config
        base_seed = data_config.seed
        self.samplers = [
            ZipfianSampler(
                rows,
                data_config.zipf_alpha,
                seed=base_seed + 31 * table_id,
            )
            for table_id, rows in enumerate(model_config.rows_per_table)
        ]
        planted_rng = np.random.default_rng(base_seed ^ 0xBEEF)
        self._dense_weights = planted_rng.normal(
            0.0,
            data_config.dense_signal_scale
            / np.sqrt(model_config.num_dense_features),
            size=model_config.num_dense_features,
        )
        self._row_quality = [
            planted_rng.normal(
                0.0, data_config.sparse_signal_scale, size=rows
            )
            for rows in model_config.rows_per_table
        ]
        self._bias = -1.5

    def _rng_for_batch(self, batch_index: int) -> np.random.Generator:
        return np.random.default_rng(
            (self.data_config.seed * 0x9E3779B1 + batch_index) & 0x7FFFFFFF
        )

    def batch(self, batch_index: int) -> Batch:
        if batch_index < 0:
            raise ReaderError(f"negative batch index {batch_index}")
        cfg = self.model_config
        rng = self._rng_for_batch(batch_index)
        size = self.data_config.batch_size

        dense = rng.normal(
            0.0, 1.0, size=(size, cfg.num_dense_features)
        ).astype(np.float32)
        sparse = [
            sampler.sample((size, cfg.hotness), rng)
            for sampler in self.samplers
        ]

        score = dense @ self._dense_weights + self._bias
        for table_id, indices in enumerate(sparse):
            score = score + self._row_quality[table_id][indices].mean(axis=1)
        prob = 1.0 / (1.0 + np.exp(-score))
        labels = (rng.random(size) < prob).astype(np.float32)
        if self.data_config.label_noise > 0:
            flips = rng.random(size) < self.data_config.label_noise
            labels = np.where(flips, 1.0 - labels, labels).astype(np.float32)

        return Batch(
            dense=dense, sparse=sparse, labels=labels,
            batch_index=batch_index,
        )
