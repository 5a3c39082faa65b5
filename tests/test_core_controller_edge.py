"""Edge-case tests for controller behaviour under adverse conditions."""

from __future__ import annotations

import numpy as np

from repro.config import CheckpointConfig
from repro.core.bitwidth import FALLBACK_BIT_WIDTH
from repro.core.manifest import KIND_FULL
from repro.experiments import build_experiment, small_config


def drain(exp) -> None:
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


class TestBitWidthFallbackThroughController:
    def test_excess_restores_fall_back_to_8bit(self):
        """Section 6.2.1: exceeding the restore estimate flips future
        checkpoints to 8-bit quantization."""
        config = small_config(
            interval_batches=4,
            num_tables=2,
            rows_per_table=512,
            batch_size=32,
        )
        config = config.with_overrides(
            checkpoint=CheckpointConfig(
                interval_batches=4,
                policy="intermittent",
                quantizer="adaptive",
                bit_width=None,  # dynamic selection
                expected_restores=0,  # any restore exceeds the budget
            )
        )
        exp = build_experiment(config)
        assert exp.controller.current_bit_width() == 2  # L=0 -> 2-bit
        exp.controller.run_intervals(2)
        drain(exp)
        exp.controller.restore_latest()
        assert exp.controller.bitwidth.fell_back
        assert exp.controller.current_bit_width() == FALLBACK_BIT_WIDTH
        # The next checkpoint is written at 8 bits.
        exp.controller.run_intervals(1)
        last = exp.controller.stats.events[-1].manifest
        assert last.bit_width == FALLBACK_BIT_WIDTH

    def test_fixed_width_ignores_restores(self):
        exp = build_experiment(
            small_config(
                bit_width=4,
                interval_batches=4,
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
            )
        )
        exp.controller.run_intervals(2)
        drain(exp)
        exp.controller.restore_latest()
        assert exp.controller.current_bit_width() == 4


class TestRetentionUnderValidity:
    def test_no_window_without_valid_checkpoint(self):
        """While a write is in flight, the previous checkpoint must
        survive retention — a crash in that window still recovers."""
        exp = build_experiment(
            small_config(
                policy="full",
                keep_last=1,
                interval_batches=4,
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
            )
        )
        exp.controller.run_intervals(2)
        # Immediately after the 2nd trigger: its write is in flight and
        # the 1st checkpoint must still be restorable.
        valid = exp.controller.valid_manifests()
        assert len(valid) >= 1
        report = exp.controller.restore_latest()
        assert report.checkpoint_id == valid[-1].checkpoint_id

    def test_retention_eventually_prunes(self):
        exp = build_experiment(
            small_config(
                policy="full",
                keep_last=1,
                interval_batches=4,
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
            )
        )
        exp.controller.run_intervals(4)
        # At most: 1 kept valid + 1 in flight.
        assert len(exp.controller.manifests) <= 2


class TestCrashDuringWrite:
    def test_recovery_ignores_torn_checkpoint(self):
        """A checkpoint whose write was cut by the crash never became
        valid; recovery must use the previous one."""
        exp = build_experiment(
            small_config(
                quantizer="none",
                interval_batches=4,
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
            )
        )
        exp.controller.run_intervals(1)
        drain(exp)  # first checkpoint completes
        exp.controller.coordinator.grant_interval(4)
        exp.trainer.train_interval(4)
        exp.controller.checkpoint()  # second write begins (in flight)
        # Crash *now*: the 2nd checkpoint's manifest landed in the
        # backend but its validity time is in the future.
        report = exp.controller.restore_latest()
        assert report.checkpoint_id == "ckpt-000000"


class TestRestoreIdempotence:
    def test_double_restore_is_stable(self):
        exp = build_experiment(
            small_config(
                quantizer="none",
                interval_batches=4,
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
            )
        )
        exp.controller.run_intervals(2)
        drain(exp)
        exp.controller.restore_latest()
        first = exp.model.table_weight(0).copy()
        exp.controller.restore_latest()
        np.testing.assert_array_equal(exp.model.table_weight(0), first)
        assert exp.controller.stats.restores == 2
