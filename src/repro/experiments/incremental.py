"""Figs 15/16: incremental-policy bandwidth and capacity over intervals.

Runs the *real* controller stack (training, tracking, snapshotting,
writing to the bandwidth-accounted store) once per policy over the same
workload, then reads the per-interval checkpoint sizes (Fig 15's
bandwidth proxy) and the bytes each interval's restore chain needs
(Fig 16) out of the run's manifests.

Quantization is disabled here ("none") to isolate the incremental-view
effect, exactly as the paper's section 6.3.1 does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import (
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ReaderConfig,
    StorageConfig,
)
from ..errors import SimulationError
from .common import build_experiment


@dataclass(frozen=True)
class PolicyRun:
    """Per-interval series for one policy (one line of Figs 15/16)."""

    policy: str
    #: checkpoint logical size per interval / full-model checkpoint size
    size_fractions: tuple[float, ...]
    #: live stored capacity / full-model checkpoint size, after each
    #: interval's write completed
    capacity_fractions: tuple[float, ...]
    kinds: tuple[str, ...]


def _experiment_config(
    policy: str,
    intervals_batches: int,
    rows_per_table: int,
    num_tables: int,
    zipf_alpha: float,
) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(
            num_tables=num_tables,
            rows_per_table=(rows_per_table,) * num_tables,
            embedding_dim=16,
            bottom_mlp=(32, 16),
            top_mlp=(32, 1),
            hotness=4,
            seed=99,
        ),
        data=DataConfig(batch_size=256, zipf_alpha=zipf_alpha, seed=98),
        reader=ReaderConfig(coordinated=True),
        cluster=ClusterConfig(num_nodes=2, devices_per_node=4),
        storage=StorageConfig(),
        checkpoint=CheckpointConfig(
            interval_batches=intervals_batches,
            policy=policy,
            quantizer="none",
            keep_last=1_000_000,  # retention off: Fig 16 wants raw growth
        ),
    )


def incremental_policy_experiment(
    policies: tuple[str, ...] = (
        "one_shot",
        "intermittent",
        "consecutive",
    ),
    num_intervals: int = 12,
    interval_batches: int = 30,
    rows_per_table: int = 32768,
    num_tables: int = 4,
    zipf_alpha: float = 1.1,
) -> list[PolicyRun]:
    """Run the three policies over identical workloads (Figs 15/16)."""
    if num_intervals < 2:
        raise SimulationError("need at least two intervals")
    runs = []
    for policy in policies:
        exp = build_experiment(
            _experiment_config(
                policy,
                interval_batches,
                rows_per_table,
                num_tables,
                zipf_alpha,
            ),
            job_id=f"job-{policy}",
        )
        exp.controller.run_intervals(num_intervals)
        events = [
            e for e in exp.controller.stats.events if e.report is not None
        ]
        full_bytes = events[0].report.logical_bytes
        size_fractions = tuple(
            e.report.logical_bytes / full_bytes for e in events
        )
        kinds = tuple(e.manifest.kind for e in events)
        # Required capacity after each interval: the bytes of every
        # checkpoint the newest one's restore chain still needs — the
        # paper's definition (one-shot keeps baseline + latest;
        # consecutive must keep the whole chain). Retention is disabled
        # in this run so every manifest is still available to walk.
        manifests = exp.controller.manifests
        capacity = []
        for event in events:
            chain = exp.controller.policy.restore_chain(
                event.manifest, manifests
            )
            capacity.append(
                sum(m.logical_bytes for m in chain) / full_bytes
            )
        runs.append(
            PolicyRun(
                policy=policy,
                size_fractions=size_fractions,
                capacity_fractions=tuple(capacity),
                kinds=kinds,
            )
        )
    return runs
