"""Checkpoint inspection over an object store.

Operational tooling a production checkpointing deployment needs:
listing a job's checkpoints with their lineage and summarising storage
usage per checkpoint. Verifying the stored bytes is
:func:`repro.core.integrity.scan_job` (``repro scan``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.restore import CheckpointRestorer
from ..storage.object_store import ObjectStore


@dataclass(frozen=True)
class CheckpointSummary:
    """One row of the inspection listing."""

    checkpoint_id: str
    kind: str
    base_id: str | None
    interval_index: int
    quantizer: str
    bit_width: int
    logical_bytes: int
    rows_stored: int
    valid_at_s: float


def summarize_job(
    store: ObjectStore, job_id: str
) -> list[CheckpointSummary]:
    """Manifest summaries for one job, oldest first."""
    manifests = CheckpointRestorer(store, store.clock).list_manifests(job_id)
    return [
        CheckpointSummary(
            checkpoint_id=m.checkpoint_id,
            kind=m.kind,
            base_id=m.base_id,
            interval_index=m.interval_index,
            quantizer=m.quantizer,
            bit_width=m.bit_width,
            logical_bytes=m.logical_bytes,
            rows_stored=m.embedding_rows_stored,
            valid_at_s=m.valid_at_s,
        )
        for m in sorted(
            manifests.values(), key=lambda m: m.interval_index
        )
    ]


def format_summaries(summaries: list[CheckpointSummary]) -> str:
    """Human-readable listing of checkpoint summaries."""
    if not summaries:
        return "(no checkpoints)"
    header = (
        f"{'checkpoint':14s} {'kind':12s} {'base':14s} {'ivl':>4s} "
        f"{'quant':10s} {'bits':>4s} {'KiB':>9s} {'rows':>9s}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s.checkpoint_id:14s} {s.kind:12s} "
            f"{s.base_id or '-':14s} {s.interval_index:4d} "
            f"{s.quantizer:10s} {s.bit_width:4d} "
            f"{s.logical_bytes / 1024:9.1f} {s.rows_stored:9d}"
        )
    return "\n".join(lines)
