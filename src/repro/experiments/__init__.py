"""Reusable experiment drivers shared by benchmarks and examples."""

from .accuracy import DegradationCurve, accuracy_degradation_experiment
from .common import (
    Experiment,
    build_experiment,
    small_config,
    trained_embedding_matrix,
)
from .incremental import PolicyRun, incremental_policy_experiment
from .modified import (
    IntervalModifiedResult,
    ModifiedFractionCurve,
    interval_modified_experiment,
    modified_fraction_experiment,
)
from .overall import (
    PAPER_BANDS,
    ReductionRow,
    overall_reduction_experiment,
)
from .quanterr import (
    ImprovementPoint,
    QuantErrorRow,
    adaptive_bins_sweep,
    adaptive_ratio_sweep,
    optimal_bins,
    quant_error_comparison,
)
from .stall import (
    StallRow,
    TrackingOverheadResult,
    snapshot_stall_at_scale,
    tracking_overhead_experiment,
)

__all__ = [
    "PAPER_BANDS",
    "DegradationCurve",
    "Experiment",
    "ImprovementPoint",
    "IntervalModifiedResult",
    "ModifiedFractionCurve",
    "PolicyRun",
    "QuantErrorRow",
    "ReductionRow",
    "StallRow",
    "TrackingOverheadResult",
    "accuracy_degradation_experiment",
    "adaptive_bins_sweep",
    "adaptive_ratio_sweep",
    "build_experiment",
    "incremental_policy_experiment",
    "interval_modified_experiment",
    "modified_fraction_experiment",
    "optimal_bins",
    "overall_reduction_experiment",
    "quant_error_comparison",
    "small_config",
    "snapshot_stall_at_scale",
    "tracking_overhead_experiment",
    "trained_embedding_matrix",
]
