"""Unit tests for optimizers and the assembled DLRM."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.model.dlrm import DLRM
from repro.model.embedding import EmbeddingTable, SparseGrad
from repro.model.optim import DenseAdagrad, SparseRowWiseAdagrad


class TestDenseOptimizers:
    def test_adagrad_scales_by_history(self):
        opt = DenseAdagrad(learning_rate=1.0)
        p = np.array([0.0], dtype=np.float32)
        g = np.array([2.0], dtype=np.float32)
        opt.step(p, g, lambda: {"w": p})  # accum=4, update = 2/2 = 1
        np.testing.assert_allclose(p, [-1.0])
        opt.step(p, g, lambda: {"w": p})  # accum=8, update = 2/sqrt(8)
        np.testing.assert_allclose(p, [-1.0 - 2 / np.sqrt(8)])

    def test_adagrad_state_roundtrip(self):
        opt = DenseAdagrad()
        assert opt.state_dict() == {}
        p, g = np.ones(9, dtype=np.float32), np.ones(9, dtype=np.float32)

        def named(buf):
            return lambda: {"w": buf[:6].reshape(2, 3), "b": buf[6:]}

        opt.step(p, g, named(p))
        state = opt.state_dict()
        assert {k: v.shape for k, v in state.items()} == {
            "w": (2, 3),
            "b": (3,),
        }
        fresh = DenseAdagrad()
        fresh.load_state_dict(state)
        np.testing.assert_allclose(fresh.state_dict()["w"], state["w"])
        # A loaded state moves into the flat buffer on the next step.
        q = p.copy()
        opt.step(p, g, named(p))
        fresh.step(q, g, named(q))
        np.testing.assert_array_equal(q, p)

    @pytest.mark.parametrize(
        "state", [{"w": np.zeros(2, np.float32)}, {"v": np.zeros(3)}]
    )
    def test_flat_step_rejects_a_mismatched_loaded_state(self, state):
        opt = DenseAdagrad()
        opt.load_state_dict(state)
        buf = np.ones(3, dtype=np.float32)
        with pytest.raises(TrainingError, match="does not match"):
            opt.step(buf, buf.copy(), lambda: {"w": buf})

    def test_bad_learning_rate(self):
        with pytest.raises(TrainingError):
            DenseAdagrad(learning_rate=-1.0)


class TestSparseOptimizers:
    @pytest.fixture
    def table(self, rng):
        return EmbeddingTable(rows=16, dim=4, rng=rng)

    def test_rowwise_adagrad_only_touches_given_rows(self, table):
        opt = SparseRowWiseAdagrad(table, learning_rate=0.1)
        before = table.weight.copy()
        grad = SparseGrad(
            rows=np.array([2, 5]),
            values=np.ones((2, 4), dtype=np.float32),
        )
        modified = opt.step(grad)
        np.testing.assert_array_equal(modified, [2, 5])
        untouched = np.delete(np.arange(16), [2, 5])
        np.testing.assert_array_equal(
            table.weight[untouched], before[untouched]
        )
        assert not np.allclose(table.weight[2], before[2])

    def test_rowwise_accumulator_uses_mean_square(self, table):
        opt = SparseRowWiseAdagrad(table, learning_rate=0.1)
        values = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        opt.step(SparseGrad(rows=np.array([3]), values=values))
        expected = np.mean(values**2)
        assert opt.accumulator[3] == pytest.approx(expected)
        assert opt.accumulator[0] == 0.0

    def test_empty_grad_is_noop(self, table):
        opt = SparseRowWiseAdagrad(table)
        before = table.weight.copy()
        opt.step(
            SparseGrad(
                rows=np.zeros(0, dtype=np.int64),
                values=np.zeros((0, 4), dtype=np.float32),
            )
        )
        np.testing.assert_array_equal(table.weight, before)


class TestDLRM:
    def test_deterministic_construction(self, tiny_model_config):
        a = DLRM(tiny_model_config)
        b = DLRM(tiny_model_config)
        np.testing.assert_array_equal(a.table_weight(0), b.table_weight(0))
        for name, arr in a.dense_parameters().items():
            np.testing.assert_array_equal(arr, b.dense_parameters()[name])

    def test_training_reduces_loss(self, tiny_model, tiny_dataset):
        losses = [
            tiny_model.train_step(tiny_dataset.batch(i)).loss
            for i in range(60)
        ]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_step_reports_touched_rows(self, tiny_model, tiny_dataset):
        batch = tiny_dataset.batch(0)
        result = tiny_model.train_step(batch)
        for table_id, rows in result.touched_rows.items():
            looked_up = np.unique(batch.sparse[table_id])
            np.testing.assert_array_equal(rows, looked_up)

    def test_untouched_rows_unchanged(self, tiny_model, tiny_dataset):
        batch = tiny_dataset.batch(0)
        before = tiny_model.table_weight(0).copy()
        result = tiny_model.train_step(batch)
        touched = result.touched_rows[0]
        untouched = np.setdiff1d(np.arange(before.shape[0]), touched)
        np.testing.assert_array_equal(
            tiny_model.table_weight(0)[untouched], before[untouched]
        )

    def test_dense_state_roundtrip(self, tiny_model_config, tiny_dataset):
        a = DLRM(tiny_model_config)
        for i in range(5):
            a.train_step(tiny_dataset.batch(i))
        state = a.dense_state()
        b = DLRM(tiny_model_config)
        b.load_dense_state(state)
        for name, arr in a.dense_parameters().items():
            np.testing.assert_array_equal(arr, b.dense_parameters()[name])
        # With embeddings copied over too, predictions must agree.
        for t in range(a.num_tables):
            np.copyto(b.table_weight(t), a.table_weight(t))
        batch = tiny_dataset.batch(100)
        np.testing.assert_allclose(
            a.predict_proba(batch), b.predict_proba(batch), rtol=1e-6
        )

    def test_load_table_rows(self, tiny_model):
        rows = np.array([1, 3])
        weights = np.full((2, 8), 7.0, dtype=np.float32)
        accum = np.array([0.5, 0.25], dtype=np.float32)
        tiny_model.load_table_rows(0, rows, weights, accum)
        np.testing.assert_array_equal(tiny_model.table_weight(0)[1], weights[0])
        assert tiny_model.table_accumulator(0)[3] == 0.25

    def test_load_table_rows_shape_mismatch(self, tiny_model):
        with pytest.raises(TrainingError, match="mismatch"):
            tiny_model.load_table_rows(
                0, np.array([0]), np.zeros((2, 8), dtype=np.float32)
            )

    @pytest.mark.parametrize("count", [1, 3])
    def test_load_table_rows_accumulator_mismatch(self, tiny_model, count):
        """One value must not broadcast into every row's accumulator."""
        before = tiny_model.table_accumulator(0).copy()
        with pytest.raises(TrainingError, match="accumulator mismatch"):
            tiny_model.load_table_rows(
                0,
                np.array([1, 3]),
                np.zeros((2, 8), dtype=np.float32),
                np.full(count, 7.0, dtype=np.float32),
            )
        np.testing.assert_array_equal(tiny_model.table_accumulator(0), before)

    def test_reinitialize_restores_initial_state(
        self, tiny_model_config, tiny_dataset
    ):
        model = DLRM(tiny_model_config)
        pristine = DLRM(tiny_model_config)
        for i in range(5):
            model.train_step(tiny_dataset.batch(i))
        model.reinitialize()
        np.testing.assert_array_equal(
            model.table_weight(0), pristine.table_weight(0)
        )
        assert model.batches_trained == 0
        assert np.all(model.table_accumulator(0) == 0)

    def test_predict_proba_has_no_side_effects(
        self, tiny_model, tiny_dataset
    ):
        batch = tiny_dataset.batch(0)
        tiny_model.predict_proba(batch)
        # A training step afterwards must work (caches were cleared).
        tiny_model.train_step(tiny_dataset.batch(1))
