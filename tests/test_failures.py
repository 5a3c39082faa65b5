"""Unit tests for failure models, traces and the job-queue simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.failures import (
    HOUR_S,
    ExponentialFailures,
    FailureTrace,
    Job,
    JobQueueSim,
    WeibullFailures,
    make_job_batch,
    paper_failure_model,
)


class TestFailureModels:
    def test_exponential_mean(self, rng):
        model = ExponentialFailures(3600.0)
        samples = model.sample_many(20_000, rng)
        assert np.mean(samples) == pytest.approx(3600.0, rel=0.05)

    def test_paper_model_hits_published_points(self):
        """The fitted model reproduces the paper's P90/P99 exactly —
        as quantiles of the 5-minute-filtered distribution, which is
        what Fig 3 plots."""
        model = paper_failure_model()
        assert model.conditioned_quantile(0.90, 300.0) == pytest.approx(
            13.5 * HOUR_S, rel=1e-6
        )
        assert model.conditioned_quantile(0.99, 300.0) == pytest.approx(
            53.9 * HOUR_S, rel=1e-6
        )

    def test_weibull_heavy_tail_shape(self):
        model = paper_failure_model()
        assert model.shape < 1.0  # decreasing hazard, heavy tail

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            ExponentialFailures(0.0)
        with pytest.raises(SimulationError):
            WeibullFailures(0.0, 1.0)


class TestFailureTrace:
    def test_generate_filters_short_failures(self):
        model = ExponentialFailures(600.0)
        trace = FailureTrace.generate(
            model, 10_000, seed=1, min_failure_s=300.0
        )
        assert trace.times_s.min() >= 300.0
        assert trace.count < 10_000  # some were filtered

    def test_empirical_quantiles_near_model(self):
        model = paper_failure_model()
        trace = FailureTrace.generate(model, 50_000, seed=2)
        assert trace.quantile(0.90) == pytest.approx(
            13.5 * HOUR_S, rel=0.15
        )
        assert trace.quantile(0.99) == pytest.approx(
            53.9 * HOUR_S, rel=0.20
        )

    def test_cdf_monotone(self):
        trace = FailureTrace.generate(
            ExponentialFailures(1000.0), 5000, seed=3
        )
        cdf = trace.cdf(50)
        times = [p.time_s for p in cdf]
        fractions = [p.fraction for p in cdf]
        assert times == sorted(times)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


class TestJobQueueSim:
    def test_all_jobs_complete(self):
        scheduler = JobQueueSim(
            num_clusters=4,
            failure_model=ExponentialFailures(20 * HOUR_S * 3600 / 3600),
            checkpoint_interval_hours=0.5,
            seed=8,
        )
        jobs = make_job_batch(20, mean_required_hours=10.0, seed=9)
        report = scheduler.run(jobs)
        assert report.jobs_completed == 20
        assert report.makespan_hours > 0

    def test_waste_bounded_by_checkpoint_interval(self):
        model = ExponentialFailures(5 * 3600.0)
        scheduler = JobQueueSim(
            num_clusters=2,
            failure_model=model,
            checkpoint_interval_hours=0.5,
            seed=10,
        )
        jobs = make_job_batch(10, mean_required_hours=20.0, seed=11)
        report = scheduler.run(jobs)
        if report.total_failures:
            assert (
                report.total_wasted_hours
                <= report.total_failures * 0.5 + 1e-9
            )

    def test_smaller_interval_wastes_less(self):
        """The checkpoint-frequency trade-off the paper motivates."""
        model = ExponentialFailures(3 * 3600.0)
        results = {}
        for interval in (0.25, 2.0):
            scheduler = JobQueueSim(
                num_clusters=2,
                failure_model=model,
                checkpoint_interval_hours=interval,
                seed=12,
            )
            jobs = make_job_batch(15, mean_required_hours=15.0, seed=13)
            results[interval] = scheduler.run(jobs).total_wasted_hours
        assert results[0.25] < results[2.0]

    def test_failure_runtimes_recorded(self):
        model = ExponentialFailures(3600.0)
        scheduler = JobQueueSim(2, model, 0.5, seed=14)
        jobs = make_job_batch(10, mean_required_hours=5.0, seed=15)
        report = scheduler.run(jobs)
        assert len(report.failure_runtimes_h) == report.total_failures

    def test_validation(self):
        with pytest.raises(SimulationError):
            JobQueueSim(0, ExponentialFailures(1.0), 0.5)
        with pytest.raises(SimulationError):
            Job(priority=0, job_id="x", required_hours=0.0)
        with pytest.raises(SimulationError):
            make_job_batch(0)
