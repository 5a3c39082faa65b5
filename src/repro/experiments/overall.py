"""Fig 17: overall bandwidth/capacity reduction of the full system.

For each restore-count band L the paper selects a quantization bit
width (section 6.2.1) and combines it with the intermittent incremental
policy; the reduction factors are measured against the baseline
checkpointing system "that uses neither quantization nor incremental
views" — i.e. the FULL policy at fp32.
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
from ..core.bitwidth import select_bit_width
from .common import build_experiment


@dataclass(frozen=True)
class ReductionRow:
    """One band of Fig 17."""

    band: str
    restores: int
    bit_width: int
    bandwidth_reduction: float
    capacity_reduction: float


#: The paper's Fig 17 x-axis bands and a representative L per band.
PAPER_BANDS: tuple[tuple[str, int], ...] = (
    ("L <= 1", 1),
    ("1 < L <= 3", 3),
    ("3 < L < 20", 10),
    ("20 <= L", 25),
)


def _config(
    policy: str,
    quantizer: str,
    bit_width: int | None,
    interval_batches: int,
    rows_per_table: int,
    num_tables: int,
) -> ExperimentConfig:
    return ExperimentConfig(
        model=ModelConfig(
            num_tables=num_tables,
            # dim 32: close enough to production vector widths that the
            # per-row quantization metadata stops dominating the savings
            # (the paper's vectors are ~64 wide, section 2.1).
            rows_per_table=(rows_per_table,) * num_tables,
            embedding_dim=32,
            bottom_mlp=(32, 32),
            top_mlp=(32, 1),
            hotness=4,
            seed=55,
        ),
        data=DataConfig(batch_size=256, zipf_alpha=1.1, seed=54),
        reader=ReaderConfig(coordinated=True),
        cluster=ClusterConfig(num_nodes=2, devices_per_node=4),
        storage=StorageConfig(),
        checkpoint=CheckpointConfig(
            interval_batches=interval_batches,
            policy=policy,
            quantizer=quantizer,
            bit_width=bit_width,
            keep_last=2,
        ),
    )


def _run(config: ExperimentConfig, job_id: str, intervals: int):
    exp = build_experiment(config, job_id=job_id)
    exp.controller.run_intervals(intervals)
    total_bytes = exp.controller.stats.bytes_written_logical
    duration = exp.clock.now
    peak = exp.store.stats().peak_logical_bytes
    return total_bytes / duration, peak


def overall_reduction_experiment(
    num_intervals: int = 12,
    interval_batches: int = 30,
    rows_per_table: int = 32768,
    num_tables: int = 4,
    bands: tuple[tuple[str, int], ...] = PAPER_BANDS,
) -> list[ReductionRow]:
    """Fig 17: reductions per restore-count band vs the fp32 baseline."""
    baseline_bw, baseline_peak = _run(
        _config(
            "full", "none", None, interval_batches, rows_per_table,
            num_tables,
        ),
        "baseline",
        num_intervals,
    )
    rows = []
    for band, restores in bands:
        bits = select_bit_width(restores)
        variant_bw, variant_peak = _run(
            _config(
                "intermittent",
                "adaptive",
                bits,
                interval_batches,
                rows_per_table,
                num_tables,
            ),
            f"band-{restores}",
            num_intervals,
        )
        rows.append(
            ReductionRow(
                band=band,
                restores=restores,
                bit_width=bits,
                bandwidth_reduction=baseline_bw / variant_bw,
                capacity_reduction=baseline_peak / variant_peak,
            )
        )
    return rows
