"""Unit tests for the Check-N-Run controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import CheckpointConfig, StorageConfig
from repro.core.manifest import KIND_FULL, KIND_INCREMENTAL
from repro.errors import CheckpointError, CheckpointNotFoundError
from repro.experiments import build_experiment, small_config


class TestIntervalLoop:
    def test_first_checkpoint_is_full(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.run_intervals(1)
        events = exp.controller.stats.events
        assert events[0].manifest.kind == KIND_FULL

    def test_intermittent_takes_increments_then_refreshes(self):
        exp = build_experiment(
            small_config(
                policy="intermittent",
                num_tables=4,
                rows_per_table=8192,
                interval_batches=10,
                batch_size=64,
            )
        )
        exp.controller.run_intervals(8)
        kinds = [
            e.manifest.kind
            for e in exp.controller.stats.events
            if e.manifest
        ]
        assert kinds[0] == KIND_FULL
        assert KIND_INCREMENTAL in kinds[1:]

    def test_full_policy_all_full(self):
        exp = build_experiment(small_config(policy="full"))
        exp.controller.run_intervals(3)
        assert all(
            e.manifest.kind == KIND_FULL
            for e in exp.controller.stats.events
        )

    def test_consecutive_chains_to_previous(self):
        exp = build_experiment(small_config(policy="consecutive"))
        exp.controller.run_intervals(3)
        manifests = sorted(
            exp.controller.manifests.values(),
            key=lambda m: m.interval_index,
        )
        assert manifests[1].base_id == manifests[0].checkpoint_id
        assert manifests[2].base_id == manifests[1].checkpoint_id

    def test_one_shot_increments_point_at_baseline(self):
        exp = build_experiment(
            small_config(policy="one_shot", rows_per_table=8192)
        )
        exp.controller.run_intervals(3)
        manifests = sorted(
            exp.controller.manifests.values(),
            key=lambda m: m.interval_index,
        )
        base_id = manifests[0].checkpoint_id
        assert all(m.base_id == base_id for m in manifests[1:])

    def test_consecutive_increment_sizes_stay_flat(self):
        """Fig 15: consecutive increments are roughly constant size
        while one-shot increments grow."""
        consecutive = build_experiment(
            small_config(
                policy="consecutive",
                rows_per_table=16384,
                interval_batches=10,
            )
        )
        consecutive.controller.run_intervals(5)
        sizes = [
            e.report.logical_bytes
            for e in consecutive.controller.stats.events[1:]
            if e.report
        ]
        assert max(sizes) < 2.0 * min(sizes)

    def test_stall_fraction_accounted(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.run_intervals(2)
        assert 0 < exp.controller.stall_fraction() < 1

    def test_stall_fraction_is_the_snapshot_stalls_over_elapsed_time(
        self, tiny_experiment
    ):
        """Exactly: the clock's stall total adds the same floats in the
        same order as summing each snapshot's own stall."""
        exp = tiny_experiment
        manager = exp.controller.snapshot_manager
        take = manager.take_snapshot
        stalls = []

        def recording(*args, **kwargs):
            snapshot = take(*args, **kwargs)
            stalls.append(snapshot.stall_time_s)
            return snapshot

        manager.take_snapshot = recording
        exp.controller.run_intervals(4)
        assert len(stalls) == 4
        assert exp.controller.stall_fraction() == sum(stalls) / exp.clock.now

    def test_interval_counter_advances(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.run_intervals(3)
        assert exp.controller.interval_index == 3

    def test_zero_intervals_rejected(self, tiny_experiment):
        with pytest.raises(CheckpointError):
            tiny_experiment.controller.run_intervals(0)


class TestOverlapHandling:
    def _slow_store_config(self) -> StorageConfig:
        # So slow that one checkpoint write outlasts a whole interval.
        return StorageConfig(write_bandwidth=2_000.0, latency_s=0.0)

    def test_skip_new_on_overlap(self):
        config = small_config(interval_batches=3).with_overrides(
            storage=self._slow_store_config()
        )
        exp = build_experiment(config)
        exp.controller.run_intervals(3)
        assert exp.controller.stats.checkpoints_skipped >= 1


class TestRestoreFlow:
    def test_restore_latest_resumes_training(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.run_intervals(3)
        # Let the last write land.
        exp.clock.advance(1000.0, "drain")
        exp.model.reinitialize()
        report = exp.controller.restore_latest()
        assert exp.model.batches_trained == 15
        assert exp.controller.stats.restores == 1
        exp.controller.run_intervals(1)
        assert exp.model.batches_trained == 20

    def test_restore_without_checkpoints_raises(self, tiny_experiment):
        with pytest.raises(CheckpointNotFoundError):
            tiny_experiment.controller.restore_latest()

    def test_restore_skips_in_flight_checkpoint(self, tiny_experiment):
        exp = tiny_experiment
        exp.controller.run_intervals(2)
        # Immediately after the trigger the 2nd write is still in
        # flight; only the 1st (or none) is valid.
        valid = exp.controller.valid_manifests()
        all_manifests = exp.controller.manifests
        assert len(valid) < len(all_manifests)

    def test_tracker_rebuilt_after_restore_one_shot(self):
        exp = build_experiment(
            small_config(policy="one_shot", rows_per_table=4096)
        )
        exp.controller.run_intervals(3)
        exp.clock.advance(1000.0, "drain")
        exp.controller.restore_latest()
        # The restored increment's rows are re-marked so the next
        # increment still covers everything since the baseline.
        assert exp.controller.tracker_set.modified_rows > 0

    def test_dynamic_bitwidth_records_restore(self):
        exp = build_experiment(small_config(bit_width=None))
        exp.controller.run_intervals(2)
        exp.clock.advance(1000.0, "drain")
        before = exp.controller.bitwidth.observed
        exp.controller.restore_latest()
        assert exp.controller.bitwidth.observed == before + 1


class TestQuantizerSelection:
    def test_adaptive_downgrades_to_asymmetric_at_8bit(self):
        exp = build_experiment(
            small_config(quantizer="adaptive", bit_width=8)
        )
        quantizer = exp.controller._build_quantizer()
        assert quantizer.name == "asymmetric"

    def test_adaptive_kept_at_4bit(self):
        exp = build_experiment(
            small_config(quantizer="adaptive", bit_width=4)
        )
        assert exp.controller._build_quantizer().name == "adaptive"

    def test_dynamic_width_follows_expected_restores(self):
        config = small_config(bit_width=None)
        config = config.with_overrides(
            checkpoint=CheckpointConfig(
                interval_batches=config.checkpoint.interval_batches,
                policy=config.checkpoint.policy,
                quantizer=config.checkpoint.quantizer,
                bit_width=None,
                expected_restores=10,
            )
        )
        exp = build_experiment(config)
        assert exp.controller.current_bit_width() == 4


class TestRetentionIntegration:
    def test_old_checkpoints_deleted(self):
        exp = build_experiment(small_config(policy="full", keep_last=2))
        exp.controller.run_intervals(5)
        assert len(exp.controller.manifests) <= 3  # 2 kept + in-flight

    def test_baseline_survives_while_increment_retained(self):
        exp = build_experiment(
            small_config(policy="one_shot", keep_last=1)
        )
        exp.controller.run_intervals(4)
        manifests = exp.controller.manifests
        newest = max(
            manifests.values(), key=lambda m: m.interval_index
        )
        if newest.kind == KIND_INCREMENTAL:
            assert newest.base_id in manifests
