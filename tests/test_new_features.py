"""Tests for time-based intervals and the TCO model."""

from __future__ import annotations

import pytest

from repro.config import GiB
from repro.errors import CheckpointError, SimulationError
from repro.experiments import build_experiment, small_config
from repro.metrics.tco import (
    FleetProfile,
    compare_tco,
    fleet_demand,
)


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


class TestTcoModel:
    def test_fleet_demand_scales_linearly(self):
        profile = FleetProfile(concurrent_jobs=100)
        single = fleet_demand(
            FleetProfile(concurrent_jobs=1), 1.0, 2.0
        )
        hundred = fleet_demand(profile, 1.0, 2.0)
        assert hundred.write_bandwidth_bytes_per_s == pytest.approx(
            100 * single.write_bandwidth_bytes_per_s
        )
        assert hundred.storage_capacity_bytes == pytest.approx(
            100 * single.storage_capacity_bytes
        )

    def test_baseline_magnitudes_are_fleet_scale(self):
        """The paper's framing: petabytes of capacity, large bandwidth."""
        demand = fleet_demand(FleetProfile(), 1.0, 2.0)
        assert demand.storage_capacity_bytes > 1000 * 1024 * GiB  # > 1 PB
        assert demand.write_bandwidth_bytes_per_s > 100 * GiB / 100

    def test_comparison_reductions(self):
        comparison = compare_tco(FleetProfile())
        assert comparison.bandwidth_reduction == pytest.approx(12.0)
        assert comparison.capacity_reduction == pytest.approx(8.0)
        assert comparison.bandwidth_saved_bytes_per_s > 0
        assert comparison.capacity_saved_bytes > 0

    def test_replication_multiplies_demand(self):
        low = fleet_demand(
            FleetProfile(replication_factor=1), 1.0, 2.0
        )
        high = fleet_demand(
            FleetProfile(replication_factor=3), 1.0, 2.0
        )
        assert high.storage_capacity_bytes == pytest.approx(
            3 * low.storage_capacity_bytes
        )

    def test_validation(self):
        with pytest.raises(SimulationError):
            FleetProfile(concurrent_jobs=0)
        with pytest.raises(SimulationError):
            fleet_demand(FleetProfile(), 0.0, 1.0)
