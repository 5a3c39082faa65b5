"""Operational tooling: CLI, checkpoint inspection, docs.

The ``repro`` CLI (:mod:`.cli`) runs jobs and fleets and inspects
stores (``repro scan --no-quarantine`` is the read-only integrity
check); :mod:`.docscheck` is the markdown link checker CI runs over
``README.md`` and ``docs/*.md``.
"""

from .inspect import (
    CheckpointSummary,
    format_summaries,
    summarize_job,
)

__all__ = [
    "CheckpointSummary",
    "format_summaries",
    "summarize_job",
]
