"""Pre-PR-18 ``RowCache.admit``, kept verbatim as the test oracle.

This is the body ``src/repro/serving/rowcache.py`` shipped before
``admit`` became the one-row case of ``admit_many``: one row per call,
``stats`` bumped in place, the ring re-measured after every insert. It
defines what "the same admission rule" means for
``tests/test_serving_read_path.py`` and must not be edited to follow
the shipped code.
"""

from __future__ import annotations

import numpy as np

from repro.serving import RowCache


def admit(
    cache: RowCache, table_id: int, row: int, value: np.ndarray
) -> None:
    """Insert one row into the LRU ring (no-op if pinned)."""
    key = (table_id, int(row))
    if key in cache._pinned:
        return
    ring_capacity = cache.capacity_rows - len(cache._pinned)
    if ring_capacity <= 0:
        return
    if key not in cache._lru:
        cache.stats.inserts += 1
    cache._lru[key] = value
    cache._lru.move_to_end(key)
    while len(cache._lru) > ring_capacity:
        cache._lru.popitem(last=False)
        cache.stats.evictions += 1
