"""Accuracy, growth and latency metrics."""

from .accuracy import EvalResult, evaluate
from .growth import GrowthPoint, growth_factor, model_growth_trace
from .latency import LatencyModel

__all__ = [
    "EvalResult",
    "GrowthPoint",
    "LatencyModel",
    "evaluate",
    "growth_factor",
    "model_growth_trace",
]
