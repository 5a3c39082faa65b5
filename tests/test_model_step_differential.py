"""The shipped DLRM step and batch path against ``reference_model``.

The training step was rewritten for speed (dense parameters, gradients
and Adagrad accumulators as views of one flat buffer each, a 1-D
embedding scatter, one ``exp`` per ``sigmoid``, no defensive copies)
under the promise that no trained bit moves: every ``sim_*`` value,
digest and golden downstream hangs off these weights. The pre-rewrite
bodies live on verbatim in ``tests/reference_model.py``; everything
here asserts *bitwise* equality with them — dtype, shape and raw bytes,
so ``-0.0`` vs ``0.0`` or a summation-order change in the scatter fails
loudly instead of surfacing as a drifting digest.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_model as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DataConfig, ModelConfig
from repro.data.batch import Batch
from repro.data.synthetic import SyntheticClickDataset
from repro.model import loss
from repro.model.dlrm import DLRM
from repro.model.embedding import EmbeddingTable
from repro.model.interaction import DotInteraction
from repro.model.mlp import ReLU
from repro.model.optim import DenseAdagrad, SparseRowWiseAdagrad


def assert_same(actual, expected, what: str = "") -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_same_state(model: DLRM, oracle: ref.DLRM) -> None:
    """Weights, accumulators, dense params and optimizer state."""
    for t in range(model.num_tables):
        assert_same(model.table_weight(t), oracle.table_weight(t), t)
        assert_same(
            model.table_accumulator(t), oracle.table_accumulator(t), t
        )
    ours, theirs = model.dense_state(), oracle.dense_state()
    assert list(ours) == list(theirs)
    for name in theirs:
        assert_same(ours[name], theirs[name], name)
    assert list(model.dense_optimizer.state_dict()) == list(
        oracle.dense_optimizer.state_dict()
    )


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _config(tables: int, rows: int, dim: int, hotness: int, seed: int):
    return ModelConfig(
        num_tables=tables,
        rows_per_table=tuple(rows + 3 * t for t in range(tables)),
        embedding_dim=dim,
        num_dense_features=5,
        bottom_mlp=(7, dim),
        top_mlp=(6, 1),
        hotness=hotness,
        seed=seed,
    )


def _batch(
    config: ModelConfig,
    batch_size: int,
    index: int,
    rng: np.random.Generator,
    hot_row: bool,
    saturate: bool,
) -> Batch:
    """A batch with optional pile-ups on one row and saturated logits.

    ``hot_row`` sends half the lookups of table 0 to row 0 (a Zipf
    head); ``saturate`` scales the dense features so the sigmoid
    saturates and zero gradients — and with them ``-0.0`` — reach the
    MLPs, the interaction and the scatter.
    """
    dense = rng.normal(size=(batch_size, config.num_dense_features))
    dense[rng.random(dense.shape) < 0.2] = -0.0
    if saturate:
        dense *= 1e4
    sparse = []
    for table_id, rows in enumerate(config.rows_per_table):
        idx = rng.integers(0, rows, size=(batch_size, config.hotness))
        if hot_row and table_id == 0:
            idx[rng.random(idx.shape) < 0.5] = 0
        sparse.append(idx.astype(np.int64))
    labels = (rng.random(batch_size) < 0.3).astype(np.float32)
    return Batch(dense.astype(np.float32), sparse, labels, index)


def _train_both(config, batches):
    model, oracle = DLRM(config), ref.DLRM(config)
    assert_same_state(model, oracle)
    for batch in batches:
        ours, theirs = model.train_step(batch), oracle.train_step(batch)
        assert_same(np.float64(ours.loss), np.float64(theirs.loss), "loss")
        assert type(ours.loss) is type(theirs.loss)
        assert list(ours.touched_rows) == list(theirs.touched_rows)
        for t, rows in theirs.touched_rows.items():
            assert_same(ours.touched_rows[t], rows, f"touched {t}")
        assert ours.batch_index == theirs.batch_index
    assert_same_state(model, oracle)
    assert (model.batches_trained, model.samples_trained) == (
        oracle.batches_trained,
        oracle.samples_trained,
    )
    return model, oracle


# ----------------------------------------------------------------------
# Whole steps
# ----------------------------------------------------------------------


@given(
    tables=st.integers(1, 4),
    rows=st.integers(1, 40),
    dim=st.sampled_from([1, 2, 4, 33]),
    hotness=st.integers(1, 5),
    batch_size=st.integers(1, 24),
    steps=st.integers(1, 6),
    hot_row=st.booleans(),
    saturate=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_steps_bit_identical(
    tables, rows, dim, hotness, batch_size, steps, hot_row, saturate, seed
):
    config = _config(tables, rows, dim, hotness, seed)
    rng = np.random.default_rng(seed)
    batches = [
        _batch(config, batch_size, i, rng, hot_row, saturate)
        for i in range(steps)
    ]
    model, oracle = _train_both(config, batches)
    assert_same(
        model.predict_proba(batches[0]), oracle.predict_proba(batches[0])
    )


@pytest.mark.parametrize(
    "tables,rows,dim,batch_size",
    [(1, 64, 4, 4), (3, 512, 16, 64), (2, 256, 8, 64), (4, 1024, 8, 32)],
)
def test_synthetic_training_bit_identical(tables, rows, dim, batch_size):
    """The fleet, storm-like, serving and single-job shapes on the real
    Zipfian stream, long enough for the dense accumulators to matter."""
    config = ModelConfig(
        num_tables=tables,
        rows_per_table=(rows,) * tables,
        embedding_dim=dim,
        bottom_mlp=(16, dim),
        top_mlp=(16, 1),
        hotness=4,
        seed=rows + dim,
    )
    data = SyntheticClickDataset(config, DataConfig(batch_size=batch_size))
    _train_both(config, data.batches(0, 60))


def _heavy_row_case():
    """~460 of 512 lookups on row 0: a Zipf head with more than 400
    duplicates, gradients of mixed sign and magnitude."""
    rng = np.random.default_rng(426)
    indices = np.zeros((128, 4), dtype=np.int64)
    indices[rng.random(indices.shape) < 0.1] = 3
    grad_out = (
        rng.normal(size=(128, 5)) * 10.0 ** rng.integers(-3, 3, (128, 5))
    ).astype(np.float32)
    return indices, grad_out


def test_heavy_row_scatter_keeps_add_at_order():
    indices, grad_out = _heavy_row_case()
    ours = EmbeddingTable(8, 5, np.random.default_rng(0))
    theirs = ref.EmbeddingTable(8, 5, np.random.default_rng(0))
    ours.forward(indices)
    theirs.forward(indices)
    got, want = ours.backward(grad_out), theirs.backward(grad_out)
    assert_same(got.rows, want.rows)
    assert_same(got.values, want.values)
    # The case is sharp: a segment sum over the sorted duplicates
    # (np.add.reduceat adds pairwise) lands on other bits.
    flat = np.repeat(grad_out, 4, axis=0)[indices.reshape(-1) == 0]
    assert flat.shape[0] >= 400
    segment = np.add.reduceat(flat, [0], axis=0)[0]
    assert segment.tobytes() != want.values[0].tobytes()


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

_signed_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1e4, -1e4]),
    st.floats(-50.0, 50.0, width=32),
)


@given(
    st.lists(_signed_floats, min_size=1, max_size=40),
    st.sampled_from([np.float32, np.float64]),
)
@settings(max_examples=150, deadline=None)
def test_loss_kernels_bit_identical(values, dtype):
    logits = np.array(values, dtype=dtype)
    labels = (np.arange(logits.size) % 3 == 0).astype(np.float32)
    assert_same(loss.sigmoid(logits), ref.sigmoid(logits))
    assert_same(loss.bce_grad(logits, labels), ref.bce_grad(logits, labels))
    assert_same(
        np.float64(loss.bce_with_logits(logits, labels)),
        np.float64(ref.bce_with_logits(logits, labels)),
    )


@given(st.lists(_signed_floats, min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_relu_bit_identical(values):
    x = np.array(values, dtype=np.float32).reshape(1, -1)
    ours, theirs = ReLU(), ref.ReLU()
    assert_same(ours.forward(x), theirs.forward(x))
    assert_same(ours.backward(-x), theirs.backward(-x))


@given(
    batch=st.integers(1, 9),
    tables=st.integers(1, 4),
    dim=st.sampled_from([1, 3, 33]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_interaction_bit_identical(batch, tables, dim, seed):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(batch, dim)).astype(np.float32)
    embs = [
        rng.normal(size=(batch, dim)).astype(np.float32)
        for _ in range(tables)
    ]
    ours, theirs = DotInteraction(), ref.DotInteraction()
    assert_same(ours.forward(dense, embs), theirs.forward(dense, embs))
    width = dim + (tables + 1) * tables // 2
    grad = rng.normal(size=(batch, width)).astype(np.float32)
    grad[rng.random(grad.shape) < 0.3] = -0.0
    got, want = ours.backward(grad), theirs.backward(grad)
    assert_same(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert_same(a, b)


@given(
    rows=st.integers(1, 30),
    dim=st.sampled_from([1, 2, 33]),
    batch=st.integers(1, 20),
    hotness=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_embedding_and_rowwise_adagrad_bit_identical(
    rows, dim, batch, hotness, seed
):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, rows, size=(batch, hotness))
    grad_out = rng.normal(size=(batch, dim)).astype(np.float32)
    grad_out[rng.random(grad_out.shape) < 0.3] = -0.0
    ours = EmbeddingTable(rows, dim, np.random.default_rng(seed))
    theirs = ref.EmbeddingTable(rows, dim, np.random.default_rng(seed))
    assert_same(ours.forward(indices), theirs.forward(indices))
    got, want = ours.backward(grad_out), theirs.backward(grad_out)
    assert_same(got.rows, want.rows)
    assert_same(got.values, want.values)
    opt, oracle = SparseRowWiseAdagrad(ours), ref.SparseRowWiseAdagrad(theirs)
    for _ in range(2):
        assert_same(opt.step(got), oracle.step(want))
        assert_same(opt.accumulator, oracle.accumulator)
        assert_same(ours.weight, theirs.weight)


def test_dense_adagrad_bit_identical():
    """The flat update against the per-array one, -0.0 gradients too."""
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (4,), "c": (1, 1)}
    flat = rng.normal(size=17).astype(np.float32)

    def named(buf):
        pieces = np.split(buf, [12, 16])
        return {n: p.reshape(s) for (n, s), p in zip(shapes.items(), pieces)}

    ours, theirs = DenseAdagrad(0.1), ref.DenseAdagrad(0.1)
    mirror = {n: a.copy() for n, a in named(flat).items()}
    for _ in range(3):
        grad = rng.normal(size=17).astype(np.float32)
        grad[12] = -0.0
        ours.step(flat, grad, lambda: named(flat))
        theirs.step(mirror, named(grad))
    assert_same(flat, np.concatenate([a.reshape(-1) for a in mirror.values()]))
    assert list(ours.state_dict()) == list(theirs.state_dict())
    for name in shapes:
        assert_same(ours.state_dict()[name], theirs.state_dict()[name], name)


# ----------------------------------------------------------------------
# Dense state round trip
# ----------------------------------------------------------------------


def test_dense_state_roundtrip_and_reinitialize(
    tiny_model_config, tiny_dataset
):
    model, oracle = DLRM(tiny_model_config), ref.DLRM(tiny_model_config)
    # Nothing to checkpoint for the dense optimizer before its first step.
    assert model.dense_optimizer.state_dict() == {}
    assert list(model.dense_state()) == list(oracle.dense_state())
    batches = tiny_dataset.batches(0, 4)
    for batch in batches:
        model.train_step(batch)
        oracle.train_step(batch)
    assert_same_state(model, oracle)

    state = model.dense_state()
    assert any(k.startswith("optim.") for k in state)
    restored, restored_oracle = (
        DLRM(tiny_model_config),
        ref.DLRM(tiny_model_config),
    )
    restored.load_dense_state(state)
    restored_oracle.load_dense_state(oracle.dense_state())
    for t in range(model.num_tables):
        np.copyto(restored.table_weight(t), model.table_weight(t))
        np.copyto(restored_oracle.table_weight(t), oracle.table_weight(t))
        np.copyto(restored.table_accumulator(t), model.table_accumulator(t))
        np.copyto(
            restored_oracle.table_accumulator(t), oracle.table_accumulator(t)
        )
    assert_same_state(restored, restored_oracle)
    # Training on from a loaded state continues bit for bit.
    for batch in tiny_dataset.batches(4, 3):
        restored.train_step(batch)
        restored_oracle.train_step(batch)
    assert_same_state(restored, restored_oracle)

    restored.reinitialize()
    restored_oracle.reinitialize()
    assert restored.dense_optimizer.state_dict() == {}
    assert_same_state(restored, restored_oracle)
    # A reinitialized model trains like a fresh one.
    for batch in batches:
        restored.train_step(batch)
        restored_oracle.train_step(batch)
    assert_same_state(restored, restored_oracle)

    # An empty optimizer state loads back to "not started".
    restored.load_dense_state(DLRM(tiny_model_config).dense_state())
    assert restored.dense_optimizer.state_dict() == {}


# ----------------------------------------------------------------------
# Batch path
# ----------------------------------------------------------------------


@given(
    tables=st.integers(1, 4),
    rows=st.integers(1, 300),
    hotness=st.integers(1, 5),
    batch_size=st.integers(1, 40),
    label_noise=st.sampled_from([0.0, 0.05, 0.3]),
    alpha=st.sampled_from([0.5, 1.05, 2.0]),
    seed=st.integers(0, 2**20),
    index=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_synthetic_batches_bit_identical(
    tables, rows, hotness, batch_size, label_noise, alpha, seed, index
):
    model_config = ModelConfig(
        num_tables=tables,
        rows_per_table=tuple(rows + t for t in range(tables)),
        embedding_dim=4,
        bottom_mlp=(8, 4),
        hotness=hotness,
    )
    data_config = DataConfig(
        batch_size=batch_size,
        zipf_alpha=alpha,
        label_noise=label_noise,
        seed=seed,
    )
    ours = SyntheticClickDataset(model_config, data_config).batch(index)
    theirs = ref.SyntheticClickDataset(model_config, data_config).batch(
        index
    )
    assert_same(ours.dense, theirs.dense)
    assert_same(ours.labels, theirs.labels)
    assert len(ours.sparse) == len(theirs.sparse)
    for a, b in zip(ours.sparse, theirs.sparse):
        assert_same(a, b)
    assert ours.batch_index == theirs.batch_index
