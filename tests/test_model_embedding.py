"""Unit tests for embedding tables and sparse gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.model.embedding import EmbeddingCollection, EmbeddingTable


@pytest.fixture
def table(rng) -> EmbeddingTable:
    return EmbeddingTable(rows=32, dim=4, rng=rng, table_id=0)


class TestForward:
    def test_single_hot_lookup(self, table):
        idx = np.array([[3], [7]], dtype=np.int64)
        out = table.forward(idx)
        np.testing.assert_allclose(out[0], table.weight[3])
        np.testing.assert_allclose(out[1], table.weight[7])

    def test_multi_hot_sum_pooling(self, table):
        idx = np.array([[1, 2, 3]], dtype=np.int64)
        out = table.forward(idx)
        expected = table.weight[1] + table.weight[2] + table.weight[3]
        np.testing.assert_allclose(out[0], expected, rtol=1e-6)

    def test_duplicate_indices_in_bag_count_twice(self, table):
        idx = np.array([[5, 5]], dtype=np.int64)
        out = table.forward(idx)
        np.testing.assert_allclose(out[0], 2 * table.weight[5], rtol=1e-6)

    def test_out_of_range_rejected(self, table):
        with pytest.raises(TrainingError, match="out of range"):
            table.forward(np.array([[32]], dtype=np.int64))
        with pytest.raises(TrainingError, match="out of range"):
            table.forward(np.array([[-1]], dtype=np.int64))

    def test_1d_indices_rejected(self, table):
        with pytest.raises(TrainingError, match="batch, hotness"):
            table.forward(np.array([1, 2], dtype=np.int64))


class TestBackward:
    def test_unique_rows_and_aggregation(self, table):
        idx = np.array([[1, 2], [2, 3]], dtype=np.int64)
        table.forward(idx)
        grad_out = np.ones((2, 4), dtype=np.float32)
        sparse = table.backward(grad_out)
        np.testing.assert_array_equal(sparse.rows, [1, 2, 3])
        # Row 2 appears in both samples: gradient doubles.
        np.testing.assert_allclose(sparse.values[0], np.ones(4))
        np.testing.assert_allclose(sparse.values[1], 2 * np.ones(4))
        np.testing.assert_allclose(sparse.values[2], np.ones(4))

    def test_duplicate_within_bag_accumulates(self, table):
        idx = np.array([[5, 5]], dtype=np.int64)
        table.forward(idx)
        sparse = table.backward(np.ones((1, 4), dtype=np.float32))
        np.testing.assert_allclose(sparse.values[0], 2 * np.ones(4))

    def test_backward_before_forward_rejected(self, table):
        with pytest.raises(TrainingError, match="before forward"):
            table.backward(np.ones((1, 4), dtype=np.float32))

    def test_backward_clears_cache(self, table):
        table.forward(np.array([[0]], dtype=np.int64))
        table.backward(np.ones((1, 4), dtype=np.float32))
        with pytest.raises(TrainingError):
            table.backward(np.ones((1, 4), dtype=np.float32))

    def test_gradient_matches_numerical(self, table, rng):
        """d(sum(out^2))/d(weight[r]) via central differences."""
        idx = np.array([[1, 2]], dtype=np.int64)

        def loss() -> float:
            return float(np.sum(table.forward(idx) ** 2))

        out = table.forward(idx)
        sparse = table.backward((2 * out).astype(np.float32))
        eps = 1e-3
        for i, row in enumerate(sparse.rows):
            for d in range(table.dim):
                orig = table.weight[row, d]
                table.weight[row, d] = orig + eps
                up = loss()
                table.weight[row, d] = orig - eps
                down = loss()
                table.weight[row, d] = orig
                numeric = (up - down) / (2 * eps)
                assert sparse.values[i, d] == pytest.approx(
                    numeric, rel=2e-2, abs=1e-3
                )


class TestCollection:
    def test_forward_backward_all_tables(self, rng):
        coll = EmbeddingCollection((16, 8), dim=4, rng=rng)
        idx = [
            np.array([[0, 1]], dtype=np.int64),
            np.array([[2, 3]], dtype=np.int64),
        ]
        outs = coll.forward(idx)
        assert len(outs) == 2
        grads = coll.backward(
            [np.ones((1, 4), dtype=np.float32)] * 2
        )
        assert len(grads) == 2
        np.testing.assert_array_equal(grads[1].rows, [2, 3])

    def test_wrong_table_count_rejected(self, rng):
        coll = EmbeddingCollection((16, 8), dim=4, rng=rng)
        with pytest.raises(TrainingError, match="tables"):
            coll.forward([np.array([[0]], dtype=np.int64)])
