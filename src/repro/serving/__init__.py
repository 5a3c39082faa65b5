"""Checkpoint-to-inference serving plane (paper sections 1, 5.1).

Online training's whole point is that freshly trained state reaches
inference quickly. This package closes that loop inside the simulation:
a :class:`~repro.serving.publisher.ServingPublisher` turns each vetted
checkpoint into a :class:`~repro.serving.version.PublishedVersion`
(row locator + modified-row set + tracker-derived hot rows), and a
fleet of :class:`~repro.serving.server.InferenceServer`\\ s answers
high-QPS embedding-row lookups against the latest version through
version-pinned :class:`~repro.serving.rowcache.RowCache`\\ s, flipping
atomically when a new version lands.
:class:`~repro.serving.fleet.ServingFleet` co-simulates the whole plane
against a live checkpointing training job on one shared link.
"""

from .chunks import DecodedChunkCache, decode_chunk_rows
from .fleet import (
    ServingConfig,
    ServingFleet,
    ServingReport,
    format_serving_report,
    run_serving,
)
from .publisher import ServingPublisher
from .rowcache import RowCache, RowCacheStats
from .server import InferenceServer, LookupRequest, LookupResult
from .version import PublishedVersion, RowRef, rows_changed_between

__all__ = [
    "DecodedChunkCache",
    "InferenceServer",
    "LookupRequest",
    "LookupResult",
    "PublishedVersion",
    "RowCache",
    "RowCacheStats",
    "RowRef",
    "ServingConfig",
    "ServingFleet",
    "ServingPublisher",
    "ServingReport",
    "decode_chunk_rows",
    "format_serving_report",
    "rows_changed_between",
    "run_serving",
]
