"""Unit tests: dynamic bit-width selection and decoupled snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bitwidth import (
    FALLBACK_BIT_WIDTH,
    BitWidthController,
    select_bit_width,
)
from repro.core.snapshot import SnapshotManager
from repro.errors import CheckpointError


class TestSelectBitWidth:
    @pytest.mark.parametrize(
        "restores,bits",
        [
            (0, 2),
            (1, 2),
            (2, 3),
            (3, 3),
            (4, 4),
            (10, 4),
            (19, 4),
            (20, 8),
            (100, 8),
        ],
    )
    def test_paper_thresholds(self, restores, bits):
        """Section 6.2.1: 2-bit <= 1 restore, 3-bit <= 3, 4-bit < 20,
        8-bit beyond."""
        assert select_bit_width(restores) == bits

    def test_negative_rejected(self):
        with pytest.raises(CheckpointError):
            select_bit_width(-1)


class TestBitWidthController:
    def test_initial_selection(self):
        assert BitWidthController(1).bit_width == 2
        assert BitWidthController(15).bit_width == 4

    def test_fallback_on_excess_failures(self):
        controller = BitWidthController(expected_restores_estimate=1)
        assert controller.record_restore() == 2  # 1st, within budget
        assert controller.record_restore() == FALLBACK_BIT_WIDTH  # 2nd
        assert controller.fell_back

    def test_no_fallback_within_budget(self):
        controller = BitWidthController(3)
        for _ in range(3):
            controller.record_restore()
        assert controller.bit_width == 3
        assert not controller.fell_back


class TestSnapshot:
    def test_snapshot_is_deep_copy(self, tiny_experiment):
        exp = tiny_experiment
        exp.reader.begin_interval(2)
        exp.trainer.train_interval(2)
        manager = SnapshotManager(exp.trainer, exp.clock)
        state = exp.reader.collect_state()
        snapshot = manager.take_snapshot(
            0, exp.controller.tracker_set, state
        )
        shard = exp.plan.shards[0]
        before = snapshot.shards[shard.shard_id].weight.copy()
        exp.trainer.shard_weight(shard)[:] += 1.0  # mutate live model
        np.testing.assert_array_equal(
            snapshot.shards[shard.shard_id].weight, before
        )
        snapshot.release(exp.trainer)

    def test_snapshot_advances_clock_by_stall(self, tiny_experiment):
        exp = tiny_experiment
        manager = SnapshotManager(exp.trainer, exp.clock)
        before = exp.clock.now
        exp.reader.begin_interval(1)
        exp.trainer.train_interval(1)
        t0 = exp.clock.now
        snapshot = manager.take_snapshot(
            0, exp.controller.tracker_set, exp.reader.collect_state()
        )
        assert exp.clock.now - t0 == pytest.approx(snapshot.stall_time_s)
        assert exp.clock.total("snapshot_stall") > 0
        snapshot.release(exp.trainer)
        assert before < exp.clock.now

    def test_stall_time_is_max_over_nodes(self, tiny_experiment):
        exp = tiny_experiment
        manager = SnapshotManager(exp.trainer, exp.clock)
        per_node = [
            node.copy_time_s(exp.trainer.node_snapshot_bytes(node.node_id))
            for node in exp.cluster.nodes
        ]
        expected = max(per_node) + (
            exp.cluster.config.snapshot_fixed_overhead_s
        )
        assert manager.stall_time_s() == pytest.approx(expected)

    def test_host_memory_reserved_and_released(self, tiny_experiment):
        exp = tiny_experiment
        manager = SnapshotManager(exp.trainer, exp.clock)
        exp.reader.begin_interval(1)
        exp.trainer.train_interval(1)
        allocated_before = [n.host_allocated for n in exp.cluster.nodes]
        snapshot = manager.take_snapshot(
            0, exp.controller.tracker_set, exp.reader.collect_state()
        )
        assert any(
            n.host_allocated > b
            for n, b in zip(exp.cluster.nodes, allocated_before)
        )
        snapshot.release(exp.trainer)
        assert [
            n.host_allocated for n in exp.cluster.nodes
        ] == allocated_before

    def test_double_release_is_safe(self, tiny_experiment):
        exp = tiny_experiment
        manager = SnapshotManager(exp.trainer, exp.clock)
        exp.reader.begin_interval(1)
        exp.trainer.train_interval(1)
        snapshot = manager.take_snapshot(
            0, exp.controller.tracker_set, exp.reader.collect_state()
        )
        snapshot.release(exp.trainer)
        snapshot.release(exp.trainer)  # no error, no double free

    def test_snapshot_contains_reader_and_progress(self, tiny_experiment):
        exp = tiny_experiment
        exp.reader.begin_interval(3)
        exp.trainer.train_interval(3)
        manager = SnapshotManager(exp.trainer, exp.clock)
        snapshot = manager.take_snapshot(
            0, exp.controller.tracker_set, exp.reader.collect_state()
        )
        assert snapshot.reader_state.next_batch_index == 3
        assert snapshot.trainer_progress.batches_trained == 3
        snapshot.release(exp.trainer)
