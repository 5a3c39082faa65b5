"""Quantization latency model, calibrated to the paper's CPUs.

The quantizers in this repository run for real in numpy, but measured
laptop-seconds are not the paper's production-CPU-seconds on a
terabyte-scale checkpoint. For the latency figures (12/13 and the
k-means cost ablation) we therefore project *simulated* latencies from
per-element cost constants calibrated against two anchors the paper
states explicitly (section 6.1):

* plain asymmetric quantization of one checkpoint: <= 126 s;
* adaptive asymmetric at 50 bins, ratio 1.0: <= 600 s;
* k-means (15 iterations) on one checkpoint: > 48 hours.

With a reference checkpoint of ``REFERENCE_ELEMENTS`` fp32 values, the
constants below land on those anchors; the *shape* of the latency
curves (linear in ``bins * ratio``; k-means ~300x adaptive) is what the
benches verify, and they additionally report measured wall time of the
real numpy run for transparency.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

#: Elements in the paper-scale reference checkpoint used to calibrate
#: the constants (a multi-hundred-GB embedding snapshot).
REFERENCE_ELEMENTS = 125_000_000_000

#: Seconds per element for one plain asymmetric quantization pass.
ASYMMETRIC_COST_PER_ELEMENT_S = 126.0 / REFERENCE_ELEMENTS

#: Extra seconds per element per greedy iteration (two candidate
#: quantizations + error reductions). 126 + 50 * step = 600 at 50 bins.
ADAPTIVE_COST_PER_ELEMENT_PER_ITER_S = (
    (600.0 - 126.0) / 50.0 / REFERENCE_ELEMENTS
)

#: Lloyd iterations of the paper's k-means run (section 6.1).
KMEANS_ITERATIONS = 15

#: Seconds per element per Lloyd iteration per cluster. Calibrated so a
#: 4-bit (k=16), 15-iteration run on the reference checkpoint takes
#: ~48 hours: 48 * 3600 / (15 * 16) / REFERENCE_ELEMENTS.
KMEANS_COST_PER_ELEMENT_PER_ITER_PER_CLUSTER_S = (
    48.0 * 3600.0 / (KMEANS_ITERATIONS * 16.0) / REFERENCE_ELEMENTS
)

#: Symmetric quantization needs no min/max scan refinement; it is
#: slightly cheaper than asymmetric.
SYMMETRIC_COST_PER_ELEMENT_S = 0.8 * ASYMMETRIC_COST_PER_ELEMENT_S


@dataclass(frozen=True)
class LatencyModel:
    """Projects simulated quantization latency for a chunk of elements."""

    def asymmetric_s(self, elements: int) -> float:
        self._check(elements)
        return elements * ASYMMETRIC_COST_PER_ELEMENT_S

    def symmetric_s(self, elements: int) -> float:
        self._check(elements)
        return elements * SYMMETRIC_COST_PER_ELEMENT_S

    def adaptive_s(
        self, elements: int, num_bins: int, ratio: float
    ) -> float:
        """Base asymmetric pass + one candidate pair per greedy step."""
        self._check(elements)
        if num_bins < 1:
            raise ConfigError(f"num_bins must be >= 1, got {num_bins}")
        if not 0.0 < ratio <= 1.0:
            raise ConfigError(f"ratio must be in (0, 1], got {ratio}")
        iterations = min(int(num_bins * ratio), max(num_bins - 1, 0))
        return elements * (
            ASYMMETRIC_COST_PER_ELEMENT_S
            + iterations * ADAPTIVE_COST_PER_ELEMENT_PER_ITER_S
        )

    def kmeans_s(self, elements: int, bits: int):
        self._check(elements)
        if not 1 <= bits <= 8:
            raise ConfigError(f"bits must be in [1, 8], got {bits}")
        clusters = 1 << bits
        return (
            elements
            * KMEANS_ITERATIONS
            * clusters
            * KMEANS_COST_PER_ELEMENT_PER_ITER_PER_CLUSTER_S
        )

    def identity_s(self, elements: int) -> float:
        """The fp32 pass-through costs (approximately) a memcpy."""
        self._check(elements)
        return elements * 0.05 * ASYMMETRIC_COST_PER_ELEMENT_S

    def float16_s(self, elements: int) -> float:
        """A cast pass: one read + one narrowing write per element."""
        self._check(elements)
        return elements * 0.1 * ASYMMETRIC_COST_PER_ELEMENT_S

    def for_quantizer(
        self,
        name: str,
        elements: int,
        bits: int = 8,
        num_bins: int = 25,
        ratio: float = 1.0,
    ) -> float:
        """Dispatch by registry name."""
        if name == "none":
            return self.identity_s(elements)
        if name == "float16":
            return self.float16_s(elements)
        if name == "symmetric":
            return self.symmetric_s(elements)
        if name == "asymmetric":
            return self.asymmetric_s(elements)
        if name == "adaptive":
            return self.adaptive_s(elements, num_bins, ratio)
        if name == "kmeans":
            return self.kmeans_s(elements, bits)
        raise ConfigError(f"unknown quantizer {name!r} for latency model")

    @staticmethod
    def _check(elements: int) -> None:
        if elements < 0:
            raise ConfigError(f"negative element count {elements}")
