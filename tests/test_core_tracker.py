"""Unit tests for modified-row tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tracker import ModifiedRowTracker, TrackerSet
from repro.distributed.sharding import Shard, ShardingPlan, plan_row_wise
from repro.distributed.topology import DeviceId, SimCluster
from repro.config import ClusterConfig, ModelConfig


@pytest.fixture
def shard() -> Shard:
    return Shard(0, 0, 100, 200, DeviceId(0, 0), 8)


class TestModifiedRowTracker:
    def test_marks_only_in_range_rows(self, shard):
        tracker = ModifiedRowTracker(shard)
        newly = tracker.mark_table_rows(np.array([50, 100, 150, 250]))
        assert newly == 2  # 100 and 150 fall in [100, 200)
        np.testing.assert_array_equal(
            tracker.modified_table_rows(), [100, 150]
        )

    def test_remarking_is_idempotent(self, shard):
        tracker = ModifiedRowTracker(shard)
        tracker.mark_table_rows(np.array([110, 120]))
        newly = tracker.mark_table_rows(np.array([110, 120, 130]))
        assert newly == 1
        assert tracker.modified_count == 3

    def test_duplicate_and_unsorted_rows_count_once(self, shard):
        """The newly-set count is per row, however the input lists it
        (``tracker.rows_marked`` in the repo benchmark reads it)."""
        tracker = ModifiedRowTracker(shard)
        tracker.mark_table_rows(np.array([150]))
        newly = tracker.mark_table_rows(
            np.array([180, 110, 110, 150, 180, 180, 99, 200, 120])
        )
        assert newly == 3  # 110, 120, 180; 150 was set, 99/200 outside
        assert tracker.modified_count == 4
        assert tracker.mark_table_rows(np.array([110, 110])) == 0

    def test_newly_set_count_matches_mask_growth(self, shard):
        rng = np.random.default_rng(3)
        tracker = ModifiedRowTracker(shard)
        for sorted_unique in (True, False):
            for _ in range(20):
                rows = rng.integers(80, 220, size=rng.integers(0, 40))
                if sorted_unique:
                    rows = np.unique(rows)
                before = tracker.modified_count
                newly = tracker.mark_table_rows(rows)
                assert newly == tracker.modified_count - before

    def test_empty_mark(self, shard):
        tracker = ModifiedRowTracker(shard)
        assert tracker.mark_table_rows(np.zeros(0, dtype=np.int64)) == 0

    def test_reset(self, shard):
        tracker = ModifiedRowTracker(shard)
        tracker.mark_table_rows(np.array([105]))
        tracker.reset()
        assert tracker.modified_count == 0
        assert tracker.fraction_modified == 0.0

    def test_local_rows_offset(self, shard):
        tracker = ModifiedRowTracker(shard)
        tracker.mark_table_rows(np.array([100, 199]))
        np.testing.assert_array_equal(
            tracker.modified_local_rows(), [0, 99]
        )

    def test_mask_copy_is_independent(self, shard):
        tracker = ModifiedRowTracker(shard)
        tracker.mark_table_rows(np.array([100]))
        mask = tracker.mask_copy()
        tracker.reset()
        assert mask[0]  # copy unaffected by reset


class TestTrackerSet:
    @pytest.fixture
    def plan_and_set(self):
        config = ModelConfig(
            num_tables=2,
            rows_per_table=(100, 60),
            embedding_dim=8,
            bottom_mlp=(16, 8),
            top_mlp=(8, 1),
        )
        cluster = SimCluster(ClusterConfig(num_nodes=1, devices_per_node=2))
        plan = plan_row_wise(config, cluster)
        return plan, TrackerSet(plan)

    def test_mark_spans_shards(self, plan_and_set):
        plan, tracker_set = plan_and_set
        # Table 0 is split at row 50 across two devices.
        tracker_set.mark_table_rows(0, np.array([10, 60]))
        assert tracker_set.modified_rows == 2

    def test_fraction_modified(self, plan_and_set):
        _, tracker_set = plan_and_set
        tracker_set.mark_table_rows(0, np.arange(100))
        assert tracker_set.fraction_modified == pytest.approx(100 / 160)

    def test_reset_all(self, plan_and_set):
        _, tracker_set = plan_and_set
        tracker_set.mark_table_rows(1, np.array([5]))
        tracker_set.reset_all()
        assert tracker_set.modified_rows == 0

    def test_mask_copies_keyed_by_shard(self, plan_and_set):
        plan, tracker_set = plan_and_set
        masks = tracker_set.mask_copies()
        assert set(masks) == {s.shard_id for s in plan.shards}

    def test_step_hook_sets_coincide(self, tiny_experiment):
        """``step_hook`` marks ``result.touched_rows`` in both modes
        instead of re-deriving the looked-up set: that is only right
        while every looked-up row receives a gradient row, i.e. while
        the two are the same sorted unique array."""
        exp = tiny_experiment
        exp.reader.begin_interval(3)
        seen = []
        exp.trainer.register_step_hook(
            lambda result, batch: seen.append((result, batch))
        )
        for _ in range(3):
            exp.trainer.train_one_batch()
        assert len(seen) == 3
        for result, batch in seen:
            assert sorted(result.touched_rows) == list(
                range(len(batch.sparse))
            )
            for table_id, indices in enumerate(batch.sparse):
                np.testing.assert_array_equal(
                    result.touched_rows[table_id], np.unique(indices)
                )
