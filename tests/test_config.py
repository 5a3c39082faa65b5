"""Unit tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.config import (
    GiB,
    MiB,
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    ExperimentConfig,
    FailureConfig,
    ModelConfig,
    ReaderConfig,
    StorageConfig,
)
from repro.errors import ConfigError


class TestModelConfig:
    def test_defaults_valid(self):
        config = ModelConfig()
        assert config.total_embedding_rows == 8 * 4096
        assert config.embedding_bytes == 8 * 4096 * 16 * 4

    def test_rows_default_expansion(self):
        config = ModelConfig(num_tables=3)
        assert len(config.rows_per_table) == 3

    def test_rows_length_mismatch(self):
        with pytest.raises(ConfigError, match="one entry per table"):
            ModelConfig(num_tables=3, rows_per_table=(10, 20))

    def test_bottom_mlp_must_match_embedding_dim(self):
        with pytest.raises(ConfigError, match="bottom MLP"):
            ModelConfig(embedding_dim=16, bottom_mlp=(32, 8))

    def test_top_mlp_must_end_in_logit(self):
        with pytest.raises(ConfigError, match="single logit"):
            ModelConfig(top_mlp=(32, 2))

    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigError, match="at least one row"):
            ModelConfig(num_tables=1, rows_per_table=(0,))


class TestDataConfig:
    def test_defaults_valid(self):
        DataConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"zipf_alpha": 0.0},
            {"label_noise": 0.5},
            {"dense_signal_scale": -1.0},
            {"sparse_signal_scale": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DataConfig(**kwargs)


class TestClusterConfig:
    def test_world_size(self):
        assert ClusterConfig(num_nodes=4, devices_per_node=2).world_size == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"devices_per_node": 0},
            {"hbm_bytes_per_device": 0},
            {"gpu_to_host_bandwidth": 0.0},
            {"fabric_bandwidth": -1.0},
            {"step_compute_time_s": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterConfig(**kwargs)


class TestStorageConfig:
    def test_defaults(self):
        config = StorageConfig()
        assert config.replication_factor == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"write_bandwidth": 0.0},
            {"read_bandwidth": -1.0},
            {"replication_factor": 0},
            {"max_retries": -1},
            {"retry_backoff_s": -0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            StorageConfig(**kwargs)


class TestCheckpointConfig:
    def test_paper_defaults(self):
        config = CheckpointConfig()
        assert config.policy == "intermittent"
        assert config.quantizer == "adaptive"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"interval_batches": 0},
            {"policy": "hourly"},
            {"quantizer": "zstd"},
            {"bit_width": 0},
            {"bit_width": 9},
            {"num_bins": 0},
            {"ratio": 0.0},
            {"ratio": 1.5},
            {"chunk_rows": 0},
            {"keep_last": 0},
            {"expected_restores": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CheckpointConfig(**kwargs)

    def test_dynamic_bit_width_allowed(self):
        assert CheckpointConfig(bit_width=None).bit_width is None


class TestFailureConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_time_to_failure_s": 0.0},
            {"weibull_shape": 0.0},
            {"min_failure_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            FailureConfig(**kwargs)


class TestReaderConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"num_workers": 0}, {"prefetch_depth": 0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ReaderConfig(**kwargs)


class TestExperimentConfig:
    def test_with_overrides(self):
        config = ExperimentConfig()
        out = config.with_overrides(
            storage=StorageConfig(write_bandwidth=1.0 * MiB)
        )
        assert out.storage.write_bandwidth == 1.0 * MiB
        assert out.model == config.model  # untouched sections shared

    def test_units(self):
        assert GiB == 1024 * MiB == 1024 * 1024 * 1024


class TestScheduledFailures:
    def test_replays_gaps_then_stops(self):
        import numpy as np

        from repro.failures import ScheduledFailures

        model = ScheduledFailures([10.0, 20.0])
        rng = np.random.default_rng(0)
        assert model.sample(rng) == 10.0
        assert model.remaining == 1
        assert model.sample(rng) == 20.0
        assert model.sample(rng) == float("inf")
        assert model.mean_s() == 15.0

    def test_negative_gap_rejected(self):
        from repro.errors import SimulationError
        from repro.failures import ScheduledFailures

        with pytest.raises(SimulationError):
            ScheduledFailures([-1.0])


class TestCompactMetadataEndToEnd:
    def test_controller_uses_compact_metadata(self):
        import numpy as np

        from repro.experiments import build_experiment, small_config

        base_config = small_config(
            quantizer="adaptive", bit_width=4, interval_batches=5,
            num_tables=2, rows_per_table=1024, batch_size=32,
        )
        compact_config = base_config.with_overrides(
            checkpoint=CheckpointConfig(
                interval_batches=5,
                policy=base_config.checkpoint.policy,
                quantizer="adaptive",
                bit_width=4,
                compact_metadata=True,
            )
        )
        plain = build_experiment(base_config)
        compact = build_experiment(compact_config)
        plain.controller.run_intervals(1)
        compact.controller.run_intervals(1)
        plain_bytes = plain.controller.stats.bytes_written_logical
        compact_bytes = compact.controller.stats.bytes_written_logical
        assert compact_bytes < plain_bytes

        # And the compact checkpoint still restores.
        compact.clock.advance_to(
            compact.store.timeline.free_at + 1.0, "drain"
        )
        expected = compact.model.table_weight(0).copy()
        compact.model.reinitialize()
        compact.controller.restore_latest()
        got = compact.model.table_weight(0)
        assert np.abs(got - expected).max() < 0.2  # 4-bit error bound
