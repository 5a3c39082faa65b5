"""Check-N-Run: a checkpointing system for training deep learning
recommendation models — NSDI 2022 reproduction.

The public API re-exports the pieces a downstream user composes:

* configs (:mod:`repro.config`) — frozen dataclasses for every subsystem;
* the DLRM substrate (:mod:`repro.model`) and synthetic data
  (:mod:`repro.data`);
* the simulated cluster (:mod:`repro.distributed`) and object store
  (:mod:`repro.storage`);
* the Check-N-Run core (:mod:`repro.core`): controller, policies,
  tracker, snapshot, writer, restore;
* quantization (:mod:`repro.quant`) and failure machinery
  (:mod:`repro.failures`).

Quickstart::

    from repro.experiments import build_experiment, small_config

    exp = build_experiment(small_config())
    exp.controller.run_intervals(3)
    report = exp.controller.restore_latest()
"""

from .config import (
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    ExperimentConfig,
    FailureConfig,
    ModelConfig,
    ReaderConfig,
    StorageConfig,
)
from .core import CheckNRun
from .errors import ReproError
from .experiments import build_experiment, small_config
from .model import DLRM
from .quant import make_quantizer, mean_l2_error

__version__ = "1.0.0"

__all__ = [
    "CheckNRun",
    "CheckpointConfig",
    "ClusterConfig",
    "DLRM",
    "DataConfig",
    "ExperimentConfig",
    "FailureConfig",
    "ModelConfig",
    "ReaderConfig",
    "ReproError",
    "StorageConfig",
    "build_experiment",
    "make_quantizer",
    "mean_l2_error",
    "small_config",
    "__version__",
]
