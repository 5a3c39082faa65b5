"""Failure-time models for the training fleet (paper section 3.1).

The paper's Fig 3 is a CDF of job time-to-failure across 21 clusters
over one month, with two published quantiles: the longest 10% of failed
jobs ran >= 13.5 hours, the top 1% >= 53.9 hours. A Weibull distribution
fits two quantiles exactly and its shape parameter < 1 captures the
heavy tail production fleets exhibit (many early failures, a long tail
of late ones).

Models sample *time to failure* in seconds; the trace machinery filters
sub-5-minute failures as the paper does ("usually simple user setup
errors").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..errors import SimulationError

HOUR_S = 3600.0

#: Fig 3's published quantiles of job time-to-failure.
PAPER_P90_S = 13.5 * HOUR_S
PAPER_P99_S = 53.9 * HOUR_S

#: Fig 3 drops jobs failing within five minutes before plotting.
PAPER_FILTER_S = 300.0


class FailureModel(ABC):
    """Distribution over time-to-failure (seconds)."""

    name: str = "abstract"

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one failure time in seconds."""

    @abstractmethod
    def mean_s(self) -> float:
        """Expected time to failure in seconds."""

    def sample_many(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` failure times (vectorised where possible)."""
        if count < 0:
            raise SimulationError(f"negative sample count {count}")
        return np.array([self.sample(rng) for _ in range(count)])


class ExponentialFailures(FailureModel):
    """Memoryless failures — the simplest fleet model."""

    name = "exponential"

    def __init__(self, mean_time_to_failure_s: float) -> None:
        if mean_time_to_failure_s <= 0:
            raise SimulationError("MTTF must be positive")
        self.mttf_s = mean_time_to_failure_s

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mttf_s))

    def sample_many(self, count, rng):
        if count < 0:
            raise SimulationError(f"negative sample count {count}")
        return rng.exponential(self.mttf_s, size=count)

    def mean_s(self) -> float:
        return self.mttf_s


class WeibullFailures(FailureModel):
    """Weibull time-to-failure; shape < 1 gives the heavy tail of Fig 3."""

    name = "weibull"

    def __init__(self, shape: float, scale_s: float) -> None:
        if shape <= 0 or scale_s <= 0:
            raise SimulationError("Weibull shape and scale must be positive")
        self.shape = shape
        self.scale_s = scale_s

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale_s * rng.weibull(self.shape))

    def sample_many(self, count, rng):
        if count < 0:
            raise SimulationError(f"negative sample count {count}")
        return self.scale_s * rng.weibull(self.shape, size=count)

    def mean_s(self) -> float:
        return self.scale_s * math.gamma(1.0 + 1.0 / self.shape)

    def conditioned_quantile(self, p: float, above_s: float) -> float:
        """Quantile of T | T >= above_s (the filtered Fig 3 CDF)."""
        if not 0.0 <= p < 1.0:
            raise SimulationError(f"quantile p must be in [0, 1), got {p}")
        if above_s < 0:
            raise SimulationError("conditioning threshold must be >= 0")
        base = (above_s / self.scale_s) ** self.shape
        return self.scale_s * (base - math.log(1.0 - p)) ** (
            1.0 / self.shape
        )


class ScheduledFailures(FailureModel):
    """Replays an explicit schedule of failure gaps (trace replay).

    Deterministic failure injection for tests and record/replay
    experiments: each ``sample`` pops the next inter-failure gap; once
    the schedule is exhausted, failures never occur again.
    """

    name = "scheduled"

    def __init__(self, gaps_s: list[float]) -> None:
        if any(g < 0 for g in gaps_s):
            raise SimulationError("failure gaps must be non-negative")
        self._gaps = list(gaps_s)
        self._index = 0

    def sample(self, rng: np.random.Generator) -> float:
        if self._index >= len(self._gaps):
            return float("inf")  # schedule exhausted: no more failures
        gap = self._gaps[self._index]
        self._index += 1
        return gap

    def mean_s(self) -> float:
        if not self._gaps:
            return float("inf")
        return float(np.mean(self._gaps))

    @property
    def remaining(self) -> int:
        return len(self._gaps) - self._index


def paper_failure_model() -> WeibullFailures:
    """The Fig 3 model: a Weibull whose *filtered* CDF hits the paper's
    published P90/P99.

    The paper's Fig 3 removes jobs failing within five minutes before
    plotting, so its published quantiles are quantiles of the
    distribution conditioned on ``T >= PAPER_FILTER_S``. For a Weibull,
    P(T <= t | T >= m) = p gives

        (t / scale)^shape - (m / scale)^shape = -ln(1 - p)

    Two quantiles yield ``t99^k + m^k = 2 t90^k`` (since
    -ln(0.01) = 2 * -ln(0.1)), solved for the shape ``k`` by bisection;
    the scale follows in closed form.
    """
    m = PAPER_FILTER_S

    def residual(k: float) -> float:
        return PAPER_P99_S**k + m**k - 2.0 * PAPER_P90_S**k

    lo, hi = 1e-3, 5.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if residual(lo) * residual(mid) <= 0:
            hi = mid
        else:
            lo = mid
    shape = (lo + hi) / 2.0
    scale = (
        (PAPER_P90_S**shape - m**shape) / math.log(10.0)
    ) ** (1.0 / shape)
    return WeibullFailures(shape=shape, scale_s=scale)
