"""Unit tests for accuracy, growth, latency metrics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, SimulationError, TrainingError
from repro.metrics.accuracy import evaluate
from repro.metrics.growth import growth_factor, model_growth_trace
from repro.metrics.latency import LatencyModel


class TestAccuracyMetrics:
    def test_evaluate_on_trained_model(self, tiny_model, tiny_dataset):
        for i in range(30):
            tiny_model.train_step(tiny_dataset.batch(i))
        result = evaluate(tiny_model, tiny_dataset.eval_batches(4))
        assert 0 < result.log_loss < 2.0
        assert 0 < result.normalized_entropy < 1.5
        assert 0.4 < result.auc <= 1.0
        assert result.num_samples == 4 * 16

    def test_training_improves_ne(self, tiny_model_config, tiny_dataset):
        from repro.model.dlrm import DLRM

        fresh = DLRM(tiny_model_config)
        eval_batches = tiny_dataset.eval_batches(4)
        before = evaluate(fresh, eval_batches)
        for i in range(60):
            fresh.train_step(tiny_dataset.batch(i))
        after = evaluate(fresh, eval_batches)
        assert after.normalized_entropy < before.normalized_entropy

    def test_empty_eval_rejected(self, tiny_model):
        with pytest.raises(TrainingError):
            evaluate(tiny_model, [])


class TestGrowth:
    def test_reaches_target_factor(self):
        trace = model_growth_trace(months=24, total_growth=3.2)
        assert growth_factor(trace) == pytest.approx(3.2, rel=1e-6)
        assert len(trace) == 25

    def test_monotone(self):
        trace = model_growth_trace()
        sizes = [p.relative_size for p in trace]
        assert sizes == sorted(sizes)

    def test_paper_claim_exceeds_3x_in_2_years(self):
        trace = model_growth_trace()
        assert growth_factor(trace) > 3.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            model_growth_trace(months=0)
        with pytest.raises(SimulationError):
            model_growth_trace(total_growth=0.9)


class TestLatencyModel:
    def test_paper_anchor_asymmetric(self):
        """One full reference checkpoint: <= 126 s asymmetric."""
        model = LatencyModel()
        assert model.asymmetric_s(125_000_000_000) == pytest.approx(126.0)

    def test_paper_anchor_adaptive_50_bins(self):
        model = LatencyModel()
        assert model.adaptive_s(
            125_000_000_000, num_bins=50, ratio=1.0
        ) == pytest.approx(126.0 + 49 / 50 * 474.0, rel=0.05)

    def test_adaptive_grows_with_bins_and_ratio(self):
        model = LatencyModel()
        base = model.adaptive_s(10**9, 10, 1.0)
        assert model.adaptive_s(10**9, 40, 1.0) > base
        assert model.adaptive_s(10**9, 40, 0.25) < model.adaptive_s(
            10**9, 40, 1.0
        )

    def test_kmeans_dwarfs_adaptive(self):
        """The paper's 48-hour k-means verdict at reference scale."""
        model = LatencyModel()
        kmeans = model.kmeans_s(125_000_000_000, bits=4)
        adaptive = model.adaptive_s(125_000_000_000, 50, 1.0)
        assert kmeans > 100 * adaptive
        assert kmeans == pytest.approx(48 * 3600.0, rel=0.01)

    def test_dispatch(self):
        model = LatencyModel()
        for name in ("none", "symmetric", "asymmetric", "adaptive",
                     "kmeans"):
            assert model.for_quantizer(name, 1000) >= 0.0
        with pytest.raises(ConfigError):
            model.for_quantizer("magic", 1000)

    def test_validation(self):
        model = LatencyModel()
        with pytest.raises(ConfigError):
            model.asymmetric_s(-1)
        with pytest.raises(ConfigError):
            model.adaptive_s(10, 0, 1.0)
