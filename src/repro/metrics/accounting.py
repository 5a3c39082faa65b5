"""Capacity accounting over checkpoint runs: the peak of the object
store's live-capacity series, which Fig 17's capacity bars compare."""

from __future__ import annotations

from ..storage.object_store import CapacityPoint


def peak_capacity(series: list[CapacityPoint]) -> int:
    """Highest live logical byte count over a run."""
    return max((p.logical_bytes for p in series), default=0)
