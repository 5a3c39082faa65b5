"""Unit tests for the data substrate: batches, synthetic data, reader."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DataConfig, ModelConfig, ReaderConfig
from repro.data.batch import Batch
from repro.data.reader import ReaderMaster, ReaderWorker
from repro.data.state import ReaderState
from repro.data.synthetic import SyntheticClickDataset, ZipfianSampler
from repro.errors import ReaderError, ReaderQuotaExceededError


class TestBatch:
    def test_valid_batch(self, tiny_dataset):
        batch = tiny_dataset.batch(0)
        assert batch.num_samples == 16
        assert batch.num_tables == 3

    def test_label_shape_validated(self):
        with pytest.raises(ReaderError, match="labels"):
            Batch(
                dense=np.zeros((4, 2), dtype=np.float32),
                sparse=[],
                labels=np.zeros(3, dtype=np.float32),
                batch_index=0,
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ReaderError, match="negative"):
            Batch(
                dense=np.zeros((1, 1), dtype=np.float32),
                sparse=[],
                labels=np.zeros(1, dtype=np.float32),
                batch_index=-1,
            )


class TestZipfianSampler:
    def test_samples_in_range(self, rng):
        sampler = ZipfianSampler(100, alpha=1.1, seed=2)
        draws = sampler.sample((1000,), rng)
        assert draws.min() >= 0
        assert draws.max() < 100

    def test_hot_rows_dominate(self, rng):
        sampler = ZipfianSampler(10_000, alpha=1.2, seed=3)
        draws = sampler.sample((100_000,), rng)
        unique = np.unique(draws).size
        assert unique < 10_000 * 0.8  # far from uniform coverage

    def test_deterministic_permutation(self, rng):
        a = ZipfianSampler(50, alpha=1.0, seed=9)
        b = ZipfianSampler(50, alpha=1.0, seed=9)
        d1 = a.sample((100,), np.random.default_rng(5))
        d2 = b.sample((100,), np.random.default_rng(5))
        np.testing.assert_array_equal(d1, d2)

    def test_invalid_args(self):
        with pytest.raises(ReaderError):
            ZipfianSampler(0, 1.0, 0)
        with pytest.raises(ReaderError):
            ZipfianSampler(10, 0.0, 0)


class TestSyntheticDataset:
    def test_batches_are_deterministic(self, tiny_dataset):
        a = tiny_dataset.batch(17)
        b = tiny_dataset.batch(17)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.labels, b.labels)
        for s1, s2 in zip(a.sparse, b.sparse):
            np.testing.assert_array_equal(s1, s2)

    def test_different_indices_differ(self, tiny_dataset):
        a = tiny_dataset.batch(0)
        b = tiny_dataset.batch(1)
        assert not np.array_equal(a.dense, b.dense)

    def test_stateless_regeneration(self, tiny_model_config, tiny_data_config):
        """Two dataset instances with the same config agree batch-wise —
        the property reader resume depends on."""
        d1 = SyntheticClickDataset(tiny_model_config, tiny_data_config)
        d2 = SyntheticClickDataset(tiny_model_config, tiny_data_config)
        np.testing.assert_array_equal(
            d1.batch(42).labels, d2.batch(42).labels
        )

    def test_labels_correlate_with_features(self, tiny_model_config):
        """The planted model must make labels learnable."""
        config = DataConfig(batch_size=4096, label_noise=0.0)
        dataset = SyntheticClickDataset(tiny_model_config, config)
        batch = dataset.batch(0)
        ctr = batch.labels.mean()
        assert 0.02 < ctr < 0.98  # neither degenerate class

    def test_indices_within_table_ranges(self, tiny_dataset, tiny_model_config):
        batch = tiny_dataset.batch(3)
        for table_id, idx in enumerate(batch.sparse):
            assert idx.min() >= 0
            assert idx.max() < tiny_model_config.rows_per_table[table_id]

    def test_eval_batches_disjoint_from_training(self, tiny_dataset):
        eval_batches = tiny_dataset.eval_batches(2)
        assert eval_batches[0].batch_index >= 1 << 30

    def test_negative_index_rejected(self, tiny_dataset):
        with pytest.raises(ReaderError):
            tiny_dataset.batch(-1)


class TestReaderWorker:
    def test_ownership_striping(self, tiny_dataset):
        worker = ReaderWorker(tiny_dataset, worker_id=1, num_workers=4)
        assert worker.owns(1)
        assert worker.owns(5)
        assert not worker.owns(0)

    def test_foreign_batch_rejected(self, tiny_dataset):
        worker = ReaderWorker(tiny_dataset, worker_id=1, num_workers=4)
        with pytest.raises(ReaderError, match="foreign"):
            worker.read(0)


class TestCoordinatedReader:
    @pytest.fixture
    def reader(self, tiny_dataset):
        return ReaderMaster(
            tiny_dataset,
            ReaderConfig(num_workers=3, prefetch_depth=4, coordinated=True),
        )

    def test_batches_delivered_in_order(self, reader):
        reader.begin_interval(10)
        indices = [reader.next_batch().batch_index for _ in range(10)]
        assert indices == list(range(10))

    def test_quota_enforced(self, reader):
        reader.begin_interval(3)
        for _ in range(3):
            reader.next_batch()
        with pytest.raises(ReaderQuotaExceededError):
            reader.next_batch()

    def test_state_clean_at_interval_end(self, reader):
        reader.begin_interval(5)
        for _ in range(5):
            reader.next_batch()
        state = reader.collect_state()
        assert state.in_flight == 0
        assert state.next_batch_index == 5
        assert state.batches_delivered == 5

    def test_state_collection_with_inflight_rejected(self, reader):
        reader.begin_interval(8)
        reader.next_batch()  # prefetch has filled the queue
        assert reader.in_flight > 0
        with pytest.raises(ReaderError, match="in-flight"):
            reader.collect_state()

    def test_restore_resumes_exactly(self, reader):
        reader.begin_interval(4)
        for _ in range(4):
            reader.next_batch()
        state = reader.collect_state()
        reader.restore(state)
        reader.begin_interval(2)
        assert reader.next_batch().batch_index == 4

    def test_begin_interval_accumulates(self, reader):
        reader.begin_interval(2)
        reader.begin_interval(3)
        for expected in range(5):
            assert reader.next_batch().batch_index == expected

    def test_uncoordinated_begin_interval_rejected(self, tiny_dataset):
        reader = ReaderMaster(
            tiny_dataset, ReaderConfig(coordinated=False)
        )
        with pytest.raises(ReaderError, match="coordinated"):
            reader.begin_interval(5)


class TestUncoordinatedReader:
    @pytest.fixture
    def reader(self, tiny_dataset):
        return ReaderMaster(
            tiny_dataset,
            ReaderConfig(num_workers=2, prefetch_depth=6, coordinated=False),
        )

    def test_free_running_prefetch(self, reader):
        reader.next_batch()
        assert reader.in_flight == 6  # prefetch refilled after delivery

    def test_state_gap_exists(self, reader):
        """The paper's trainer-reader gap: the reader's recorded
        position is ahead of what the trainer consumed."""
        for _ in range(3):
            reader.next_batch()
        state = reader.collect_state()
        assert state.in_flight > 0
        assert state.next_batch_index > state.batches_delivered

    def test_resume_from_gapped_state_skips_batches(self, reader):
        for _ in range(3):
            reader.next_batch()  # trainer consumed 0,1,2
        state = reader.collect_state()  # reader position is 3 + in-flight
        reader.restore(state)
        next_index = reader.next_batch().batch_index
        assert next_index > 3  # batches were skipped, never trained


class TestReaderState:
    def test_roundtrip(self):
        state = ReaderState(
            next_batch_index=7, in_flight=2, batches_delivered=5
        )
        assert ReaderState.from_dict(state.to_dict()) == state

    def test_validation(self):
        with pytest.raises(ReaderError):
            ReaderState(next_batch_index=-1, in_flight=0, batches_delivered=0)
