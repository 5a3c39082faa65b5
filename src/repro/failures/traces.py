"""Failure traces: generation, filtering, empirical CDFs (Fig 3).

A trace is a set of per-job time-to-failure observations. The paper
filters jobs failing within five minutes ("usually simple user setup
errors") before plotting the CDF; the same filter is applied here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from .models import HOUR_S, FailureModel


@dataclass(frozen=True)
class CdfPoint:
    """One point of an empirical CDF."""

    time_s: float
    fraction: float

    @property
    def time_hours(self) -> float:
        return self.time_s / HOUR_S


class FailureTrace:
    """Observed time-to-failure samples with CDF/quantile queries."""

    def __init__(self, times_s: np.ndarray) -> None:
        if times_s.ndim != 1:
            raise SimulationError("trace must be a 1-D array of seconds")
        if times_s.size == 0:
            raise SimulationError("trace must contain at least one sample")
        if np.any(times_s < 0):
            raise SimulationError("failure times must be non-negative")
        self.times_s = np.sort(times_s.astype(np.float64))

    @classmethod
    def generate(
        cls,
        model: FailureModel,
        num_jobs: int,
        seed: int = 0,
        min_failure_s: float = 300.0,
    ) -> "FailureTrace":
        """Sample a fleet month: ``num_jobs`` failures, short ones filtered."""
        if num_jobs < 1:
            raise SimulationError("need at least one job")
        rng = np.random.default_rng(seed)
        times = model.sample_many(num_jobs, rng)
        kept = times[times >= min_failure_s]
        if kept.size == 0:
            raise SimulationError(
                "every sampled failure fell under the filter threshold"
            )
        return cls(kept)

    def cdf(self, num_points: int = 100) -> list[CdfPoint]:
        """Evenly spaced empirical CDF points (the Fig 3 curve)."""
        if num_points < 2:
            raise SimulationError("need at least two CDF points")
        n = self.times_s.size
        fractions = np.linspace(1.0 / n, 1.0, num_points)
        indices = np.minimum(
            (fractions * n).astype(int), n - 1
        )
        return [
            CdfPoint(float(self.times_s[i]), float(f))
            for i, f in zip(indices, fractions)
        ]

    def quantile(self, p: float) -> float:
        """Empirical quantile in seconds (e.g. p=0.9 -> P90 runtime)."""
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"p must be in [0, 1], got {p}")
        return float(np.quantile(self.times_s, p))

    @property
    def count(self) -> int:
        return int(self.times_s.size)
