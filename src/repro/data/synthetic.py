"""Synthetic Zipfian click-log generator — the training-data substrate.

The paper trains on production click logs whose categorical features are
heavily skewed: a few IDs are extremely hot, the long tail is cold. That
skew is what makes incremental checkpointing work (Figs 5/6: only ~26%
of rows touched per 30-minute interval, ~52% after 11B samples), so the
generator's central job is to reproduce it with per-table Zipfian index
distributions.

Labels come from a *planted* logistic model over the dense features and
a per-row quality score, so that training measurably reduces loss and
quantization-induced degradation (Fig 14) is observable.

Batches are generated *statelessly*: ``batch(i)`` derives its randomness
from ``(seed, i)``, so any reader can deterministically re-produce any
batch — the property the reader-state/resume machinery tests rely on.
"""

from __future__ import annotations

import numpy as np

from ..config import DataConfig, ModelConfig
from ..errors import ReaderError
from .batch import Batch

#: First batch index of the held-out evaluation stream, far past any
#: training run's batches.
EVAL_BATCH_OFFSET = 1 << 30


class ZipfianSampler:
    """Draws category IDs with Zipf(alpha) popularity over ``rows`` IDs.

    Sampling is inverse-CDF over the exact (finite) Zipf pmf:
    p(k) ~ 1 / (k + 1)^alpha for rank k. A fixed random permutation maps
    popularity ranks to table row ids so hot rows are scattered across
    the table the way hash-bucketed production IDs are.
    """

    def __init__(self, rows: int, alpha: float, seed: int) -> None:
        if rows < 1:
            raise ReaderError("sampler needs at least one row")
        if alpha <= 0:
            raise ReaderError("zipf alpha must be positive")
        self.rows = rows
        ranks = np.arange(1, rows + 1, dtype=np.float64)
        pmf = ranks**-alpha
        pmf /= pmf.sum()
        self._cdf = np.cumsum(pmf)
        self._cdf[-1] = 1.0  # guard against float round-off
        rng = np.random.default_rng(seed)
        self._rank_to_row = rng.permutation(rows).astype(np.int64, copy=False)

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator):
        """Draw row ids (int64) of the given shape."""
        uniforms = rng.random(size=shape)
        ranks = np.searchsorted(self._cdf, uniforms, side="right")
        return self._rank_to_row[ranks]


class SyntheticClickDataset:
    """Deterministic, stateless synthetic click-log stream.

    The dataset is conceptually infinite (batch indices are unbounded);
    experiments decide how many batches constitute a "run".
    """

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
        # A per-table "quality" signal per row links sparse IDs to
        # labels, so embeddings carry real information worth learning.
        self._row_quality = [
            planted_rng.normal(
                0.0, data_config.sparse_signal_scale, size=rows
            )
            for rows in model_config.rows_per_table
        ]
        self._bias = -1.5  # pushes base CTR into a realistic ~0.2 zone

    def _rng_for_batch(self, batch_index: int) -> np.random.Generator:
        return np.random.default_rng(
            (self.data_config.seed * 0x9E3779B1 + batch_index) & 0x7FFFFFFF
        )

    def batch(self, batch_index: int) -> Batch:
        """Generate the ``batch_index``-th batch (stateless, repeatable)."""
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
            # np.mean's arithmetic, minus its Python-level dispatch.
            score += (
                np.add.reduce(self._row_quality[table_id][indices], axis=1)
                / cfg.hotness
            )
        prob = 1.0 / (1.0 + np.exp(-score))
        clicks = rng.random(size) < prob
        if self.data_config.label_noise > 0:
            clicks ^= rng.random(size) < self.data_config.label_noise
        labels = clicks.astype(np.float32)

        return Batch(
            dense=dense, sparse=sparse, labels=labels,
            batch_index=batch_index,
        )

    def batches(self, start: int, count: int) -> list[Batch]:
        """Materialise ``count`` consecutive batches from ``start``."""
        if count < 0:
            raise ReaderError(f"negative batch count {count}")
        return [self.batch(i) for i in range(start, start + count)]

    def eval_batches(self, count: int) -> list[Batch]:
        """A held-out evaluation stream (disjoint batch-index range)."""
        return self.batches(EVAL_BATCH_OFFSET, count)

    @property
    def samples_per_batch(self) -> int:
        return self.data_config.batch_size
