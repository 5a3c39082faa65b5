"""Tests for time-based intervals."""

from __future__ import annotations

import pytest

from repro.errors import CheckpointError
from repro.experiments import build_experiment, small_config


class TestTimeBasedIntervals:
    def test_run_for_checkpoints_on_time(self):
        exp = build_experiment(
            small_config(
                num_tables=2, rows_per_table=512, batch_size=32
            )
        )
        # Steps take ~0.13 simulated seconds; a 1-second interval
        # means a checkpoint roughly every 7-8 batches.
        taken = exp.controller.run_for(10.0, interval_s=1.0)
        assert taken >= 5
        assert exp.controller.stats.checkpoints_written == taken
        # Checkpoint creation times are spaced at least interval apart.
        times = [
            e.manifest.created_at_s
            for e in exp.controller.stats.events
            if e.manifest
        ]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 1.0 for g in gaps)

    def test_run_for_respects_reader_protocol(self):
        exp = build_experiment(
            small_config(num_tables=2, rows_per_table=512, batch_size=32)
        )
        exp.controller.run_for(3.0, interval_s=1.0)
        # No in-flight batches at any point: the per-batch quota grant
        # keeps reader and trainer in lockstep.
        assert exp.reader.in_flight == 0

    def test_run_for_validation(self, tiny_experiment):
        with pytest.raises(CheckpointError):
            tiny_experiment.controller.run_for(0.0, interval_s=1.0)
        with pytest.raises(CheckpointError):
            tiny_experiment.controller.run_for(1.0, interval_s=0.0)

    def test_restore_after_time_based_run(self):
        exp = build_experiment(
            small_config(
                num_tables=2,
                rows_per_table=512,
                batch_size=32,
                quantizer="none",
            )
        )
        exp.controller.run_for(5.0, interval_s=1.0)
        exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")
        batches = exp.model.batches_trained
        exp.model.reinitialize()
        exp.controller.restore_latest()
        assert 0 < exp.model.batches_trained <= batches
