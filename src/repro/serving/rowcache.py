"""The version-pinned embedding-row cache each inference server holds.

A :class:`RowCache` is pinned to exactly one published version: every
entry it returns is that version's value for the row, never anything
older or newer. Two mechanisms fill it:

* **LRU admission** — a lookup miss fetches the row's chunk; the rows
  around the wanted one *that the pinned version maps to that same
  chunk* are admitted as one block (:meth:`RowCache.admit_many`, the
  cheap side effect of a ranged GET), and the least-recently-used rows
  fall out under capacity pressure;
* **hot-row pinning** — the publisher's tracker-derived hot set is
  pinned outside the LRU ring, so the rows that dominate Zipf-skewed
  traffic can never be evicted by a burst of cold lookups.

Across an atomic version flip a *new* generation is built with
:meth:`RowCache.from_previous`: entries for rows the new version did
not modify are carried over (their bytes are identical in both
versions), modified rows are dropped, and the hot set re-warms. Stats
are shared across generations so hit rates describe the server, not
one version's lifetime.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..errors import ServingError


@dataclass
class RowCacheStats:
    """Cumulative counters shared across a server's cache generations."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    carried_rows: int = 0
    dropped_rows: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RowCache:
    """LRU row cache with pinned hot rows, bound to one version."""

    def __init__(
        self,
        capacity_rows: int,
        version_index: int,
        stats: RowCacheStats | None = None,
    ) -> None:
        if capacity_rows < 1:
            raise ServingError(
                f"row cache needs capacity >= 1, got {capacity_rows}"
            )
        self.capacity_rows = capacity_rows
        self.version_index = version_index
        self.stats = stats if stats is not None else RowCacheStats()
        self._pinned: dict[tuple[int, int], np.ndarray] = {}
        self._lru: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._pinned) + len(self._lru)

    @property
    def pinned_rows(self) -> int:
        return len(self._pinned)

    def contains(self, table_id: int, row: int) -> bool:
        """Presence probe without touching hit/miss stats or LRU order."""
        key = (table_id, int(row))
        return key in self._pinned or key in self._lru

    def peek(self, table_id: int, row: int) -> np.ndarray | None:
        """The cached value without stats or recency side effects.

        Flip warm-up uses this to re-pin carried entries: promoting a
        carried row to a pin is bookkeeping, not serving traffic, so it
        must not inflate the hit rate.
        """
        key = (table_id, int(row))
        value = self._pinned.get(key)
        if value is None:
            value = self._lru.get(key)
        return value

    # -- lookup / admission --------------------------------------------

    def lookup(self, table_id: int, row: int) -> np.ndarray | None:
        """The cached value, or ``None`` on a miss (stats counted)."""
        key = (table_id, int(row))
        value = self._pinned.get(key)
        if value is not None:
            self.stats.hits += 1
            return value
        value = self._lru.get(key)
        if value is not None:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return None

    def admit(self, table_id: int, row: int, value: np.ndarray) -> None:
        """Insert one row into the LRU ring (no-op if pinned)."""
        self.admit_many(table_id, ((int(row), value),))

    def admit_many(
        self, table_id: int, entries: Iterable[tuple[int, np.ndarray]]
    ) -> None:
        """Insert ``(row, value)`` pairs into the LRU ring, in order.

        Each pair is handled exactly as if it were admitted alone: a
        pinned row is skipped, a ring row is refreshed, a new row is
        inserted and the coldest entry evicted when that overflows the
        ring — so a batch larger than the ring leaves its own tail.
        Pinned rows own their capacity; the LRU ring gets whatever is
        left. When pins fill the whole cache, plain admissions bounce.
        Admitted values become read-only: a hit hands out the cache's
        own array, and a caller's write must not reach later hits.
        """
        pinned, lru = self._pinned, self._lru
        ring_capacity = self.capacity_rows - len(pinned)
        if ring_capacity <= 0:
            return
        # ``pin`` and ``from_previous`` never leave the ring over its
        # share, so only an insert can overflow it, by exactly one.
        ring_rows = len(lru)
        inserts = evictions = 0
        for row, value in entries:
            key = (table_id, row)
            if key in pinned:
                continue
            # Reading the flag is ~10x cheaper than writing it; block
            # callers pass views of an already frozen array.
            if value.flags.writeable:
                value.flags.writeable = False
            if key in lru:
                lru.move_to_end(key)
            else:
                inserts += 1
                if ring_rows == ring_capacity:
                    lru.popitem(last=False)
                    evictions += 1
                else:
                    ring_rows += 1
            lru[key] = value
        self.stats.inserts += inserts
        self.stats.evictions += evictions

    def pin(self, table_id: int, row: int, value: np.ndarray) -> bool:
        """Pin one hot row outside the LRU ring; False when full.

        A row already in the ring is promoted (its slot moves from ring
        to pin). Pins never exceed the cache's total capacity — hot
        sets larger than the cache pin a prefix and leave the rest to
        the LRU. Like an admitted value, ``value`` becomes read-only.
        """
        key = (table_id, int(row))
        value.flags.writeable = False
        if key in self._pinned:
            self._pinned[key] = value
            return True
        if len(self._pinned) >= self.capacity_rows:
            return False
        self._lru.pop(key, None)
        self._pinned[key] = value
        # Pinning shrinks the ring's share; spill the coldest entries.
        ring_capacity = self.capacity_rows - len(self._pinned)
        while len(self._lru) > ring_capacity:
            self._lru.popitem(last=False)
            self.stats.evictions += 1
        return True

    # -- version flips -------------------------------------------------

    @classmethod
    def from_previous(
        cls,
        previous: "RowCache",
        version_index: int,
        invalidate_rows: dict[int, np.ndarray],
    ) -> "RowCache":
        """The next generation: carry unmodified entries, drop the rest.

        ``invalidate_rows`` must cover every row any version between the
        generations modified (see
        :func:`~repro.serving.version.rows_changed_between`) — those
        values changed, so carrying them would serve torn reads. All
        other entries are byte-identical across the flip and carry over
        warm. Pins are *not* carried: the new version's hot set re-pins
        (and re-reads) explicitly, which is what the flip-stall metric
        measures.
        """
        cache = cls(
            previous.capacity_rows, version_index, stats=previous.stats
        )
        dropped: dict[int, set[int]] = {
            table_id: set(np.asarray(rows).tolist())
            for table_id, rows in invalidate_rows.items()
        }
        for (table_id, row), value in previous._lru.items():
            if row in dropped.get(table_id, ()):
                cache.stats.dropped_rows += 1
                continue
            cache._lru[(table_id, row)] = value
            cache.stats.carried_rows += 1
        for (table_id, row), value in previous._pinned.items():
            if row in dropped.get(table_id, ()):
                cache.stats.dropped_rows += 1
                continue
            # Still-valid pinned values re-enter as ring entries; the
            # new version's own hot set decides what gets pinned.
            cache._lru[(table_id, row)] = value
            cache.stats.carried_rows += 1
        while len(cache._lru) > cache.capacity_rows:
            cache._lru.popitem(last=False)
            cache.stats.evictions += 1
        return cache
