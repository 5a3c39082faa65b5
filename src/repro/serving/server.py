"""A simulated inference server answering row lookups from checkpoints.

Each :class:`InferenceServer` serves embedding-row lookups against
exactly one published version at a time, reading missed rows straight
from the version's checkpoint chunks through the shared object store
(its GETs ride the same bandwidth arbiter as training-side checkpoint
writes). Both the version flip and the lookup are *staged generators*
in the style of the core writer/restorer: they yield a
:class:`~repro.storage.engine.TransferStep` before every GET part and resume
to submit it, so the serving fleet driver can interleave many servers'
reads with training traffic on one simulated clock.

**Atomic flips.** ``current`` is a single reference to an immutable
``(version, cache)`` pair. A lookup captures the reference once, serves
every row of the request against that capture, and never re-reads
``current`` mid-request — so a flip landing while a lookup is in flight
leaves the old request on the old version (finishing cleanly) while the
next request sees the new one. No request ever mixes rows from two
versions; the fleet verifies this against golden per-version snapshots.

**Corruption fallback.** Every chunk read is digest-verified. A corrupt
chunk during a flip makes the server retry the flip against the next
older published version; during a lookup it poisons the current state,
falls back one version with a cold cache, and replays the whole request
there — a request is atomic even across a fallback.

**What a miss costs.** One GET and one sha256 of the bytes it returned,
always. The decode of those bytes is shared with every other read of
the same content through the plane's
:class:`~repro.serving.chunks.DecodedChunkCache`, and the window of
rows around the wanted one enters the row cache as one block
(:meth:`~repro.serving.rowcache.RowCache.admit_many`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import CheckpointCorruptError, ServingError
from ..storage.engine import read_steps
from ..storage.object_store import ObjectStore
from .chunks import DecodedChunkCache
from .publisher import ServingPublisher
from .rowcache import RowCache, RowCacheStats
from .version import PublishedVersion, RowRef, rows_changed_between

#: Fixed per-request service overhead (seconds) on top of storage reads.
LOOKUP_OVERHEAD_S = 0.0002


@dataclass(frozen=True)
class LookupRequest:
    """One inference-side embedding lookup: a batch of (table, row)."""

    request_id: int
    arrival_s: float
    rows: tuple[tuple[int, int], ...]


@dataclass
class LookupResult:
    """The served answer, pinned to one version end to end."""

    request_id: int
    server_id: str
    version_index: int
    arrival_s: float
    completed_s: float
    hits: int
    misses: int
    #: How many version fallbacks this request survived (0 = clean).
    fallback_depth: int
    values: dict[tuple[int, int], np.ndarray] = field(repr=False)

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.arrival_s


@dataclass
class _VersionState:
    """One immutable serving generation: a version plus its cache."""

    version: PublishedVersion
    cache: RowCache
    poisoned: bool = False
    #: chunk key -> :meth:`residency` of that chunk, kept from its
    #: first fetch (a version's locator never changes).
    resident: dict[str, np.ndarray] = field(default_factory=dict)

    def residency(self, ref: RowRef, rows: np.ndarray) -> np.ndarray:
        """Which of chunk ``ref``'s ``rows`` the version still maps to it.

        A boolean per chunk row: a full checkpoint's chunk carries stale
        copies of rows that later increments re-wrote, and those must
        never be admitted from it.
        """
        eligible = self.resident.get(ref.key)
        if eligible is None:
            locator = self.version.locator.get(ref.table_id, {})
            eligible = np.array(
                [
                    (at := locator.get(row)) is not None
                    and at.key == ref.key
                    for row in rows.tolist()
                ],
                dtype=bool,
            )
            self.resident[ref.key] = eligible
        return eligible


def _row_index(ref: RowRef, rows: np.ndarray, row: int) -> int:
    """Where ``row`` sits in the chunk its version maps it to."""
    found = np.flatnonzero(rows == int(row))
    if found.size == 0:
        raise CheckpointCorruptError(
            f"chunk {ref.key} is missing row {row} of table "
            f"{ref.table_id} its version maps to it"
        )
    return int(found[0])


class InferenceServer:
    """Serves row lookups against the latest flipped version."""

    def __init__(
        self,
        server_id: str,
        store: ObjectStore,
        publisher: ServingPublisher,
        cache_rows: int,
        stream: str = "",
        warm_pins: bool = True,
        decoded_chunks: DecodedChunkCache | None = None,
    ) -> None:
        self.server_id = server_id
        self.store = store
        self.publisher = publisher
        self.cache_rows = cache_rows
        self.stream = stream
        self.warm_pins = warm_pins
        #: The serving plane's shared decodes; a lone server has its own.
        self.decoded_chunks = (
            decoded_chunks
            if decoded_chunks is not None
            else DecodedChunkCache()
        )
        self.cache_stats = RowCacheStats()
        self.current: _VersionState | None = None
        self.rows_served = 0
        self.flips = 0
        self.flip_stall_total_s = 0.0
        self.flip_stall_max_s = 0.0
        self.version_fallbacks = 0

    @property
    def version_index(self) -> int:
        """The currently served version, -1 before the first flip."""
        return self.current.version.version_index if self.current else -1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _fetch_chunk(self, ref: RowRef, earliest: float):
        """Read + verify one chunk; decode it unless its bytes already were.

        ``earliest`` is server-local sequencing: a server handles one
        read at a time, so each read starts no earlier than the
        previous one finished. Returns read-only
        ``(rows, weights, completed_s)``.
        """
        blob, completed = yield from read_steps(
            self.store.stage_get(
                ref.key, earliest=earliest, stream=self.stream
            )
        )
        rows, weights = self.decoded_chunks.decode(
            ref.key, blob, ref.digest
        )
        return rows, weights, completed

    @staticmethod
    def _admit_resident(
        state: _VersionState,
        ref: RowRef,
        rows: np.ndarray,
        weights: np.ndarray,
        center_index: int,
    ) -> None:
        """Admit a bounded window of the chunk around the wanted row.

        Fetching one row pulls its whole chunk, but admitting *all* of
        it would let a single cold miss flush a cache smaller than the
        chunk. Instead a window around the requested row (an eighth of
        the cache on each side) is admitted — spatial prefetch without
        the flood. Only rows the served version's locator still maps to
        this very chunk are eligible: a full checkpoint's chunk carries
        stale copies of rows that later increments re-wrote, and
        admitting those would serve old values for them.
        """
        window = max(1, state.cache.capacity_rows // 8)
        lo = max(0, center_index - window)
        hi = min(rows.shape[0], center_index + window + 1)
        keep = state.residency(ref, rows)[lo:hi]
        # Boolean indexing copies: the admitted rows are views of one
        # private block (frozen once, here), not of the shared decode.
        block = weights[lo:hi][keep]
        block.flags.writeable = False
        state.cache.admit_many(
            ref.table_id, zip(rows[lo:hi][keep].tolist(), block)
        )

    # ------------------------------------------------------------------
    # Version flips
    # ------------------------------------------------------------------

    def flip_steps(self, version: PublishedVersion, notify_s: float):
        """Generator: atomically flip to ``version`` (or a fallback).

        Builds the next cache generation off-line (carrying entries the
        new version did not modify), warm-reads and pins the version's
        hot rows, and only then swaps ``current`` — in-flight lookups
        holding the old state finish undisturbed. A corrupt chunk while
        warming retries the whole flip against the next older published
        version (counted in ``version_fallbacks``); with no viable
        candidate an already-serving server simply stays put. Returns
        the simulated time the flip completed.
        """
        target = version.version_index
        current_index = self.version_index
        for candidate_index in range(target, current_index, -1):
            candidate = self.publisher.versions[candidate_index]
            try:
                state = _VersionState(
                    version=candidate, cache=self._next_cache(candidate)
                )
                ready = notify_s
                if self.warm_pins:
                    ready = yield from self._warm(state, notify_s)
                self.current = state
                self.flips += 1
                stall = max(0.0, ready - notify_s)
                self.flip_stall_total_s += stall
                self.flip_stall_max_s = max(self.flip_stall_max_s, stall)
                return ready
            except CheckpointCorruptError:
                self.version_fallbacks += 1
        if self.current is None:
            raise CheckpointCorruptError(
                f"server {self.server_id}: no published version could be "
                "verified for the initial flip"
            )
        return notify_s

    def _next_cache(self, candidate: PublishedVersion) -> RowCache:
        if self.current is None:
            return RowCache(
                self.cache_rows,
                candidate.version_index,
                stats=self.cache_stats,
            )
        return RowCache.from_previous(
            self.current.cache,
            candidate.version_index,
            rows_changed_between(
                self.publisher.versions,
                self.current.version.version_index,
                candidate.version_index,
            ),
        )

    def _warm(self, state: _VersionState, notify_s: float):
        """Generator: pin the version's hot rows, reading missing chunks."""
        version, cache = state.version, state.cache
        ready = notify_s
        missing: dict[str, tuple[RowRef, list[int]]] = {}
        for table_id in sorted(version.hot_rows):
            for row in version.hot_rows[table_id].tolist():
                carried = cache.peek(table_id, row)
                if carried is not None:
                    cache.pin(table_id, row, carried)
                    continue
                ref = version.row_ref(table_id, row)
                missing.setdefault(ref.key, (ref, []))[1].append(row)
        for key in sorted(missing):
            if cache.pinned_rows >= cache.capacity_rows:
                break  # pins exhausted the cache; stop prefetching
            ref, want = missing[key]
            rows, weights, completed = yield from self._fetch_chunk(
                ref, ready
            )
            ready = max(ready, completed)
            for row in want:
                index = _row_index(ref, rows, row)
                cache.pin(ref.table_id, row, weights[index].copy())
                # A window around each hot row rides along for free.
                self._admit_resident(state, ref, rows, weights, index)
        return ready

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def lookup_steps(self, request: LookupRequest, start_s: float | None = None):
        """Generator: serve one request, atomically on one version.

        Captures ``current`` once and serves the full batch against the
        captured version — a concurrent flip cannot tear the request. A
        digest failure mid-request poisons the captured state, drops the
        server one version (cold cache), and replays the request there.
        Returns the :class:`LookupResult`.

        ``start_s`` is when the server actually begins service (it may
        be later than the arrival when the request queued behind an
        earlier one); latency is still measured from the arrival, so
        queueing delay counts.
        """
        if self.current is None:
            raise ServingError(
                f"server {self.server_id} has no flipped version to serve"
            )
        start = request.arrival_s if start_s is None else start_s
        fallback_depth = 0
        for _ in range(len(self.publisher.versions) + 2):
            state = self.current
            try:
                values, hits, misses, done = yield from self._serve_on(
                    state, request, start
                )
            except CheckpointCorruptError:
                self.version_fallbacks += 1
                fallback_depth += 1
                if state is self.current:
                    older_index = state.version.version_index - 1
                    if older_index < 0:
                        raise
                    state.poisoned = True
                    self.current = _VersionState(
                        version=self.publisher.versions[older_index],
                        cache=RowCache(
                            self.cache_rows,
                            older_index,
                            stats=self.cache_stats,
                        ),
                    )
                continue
            completed = done + LOOKUP_OVERHEAD_S
            self.rows_served += len(request.rows)
            return LookupResult(
                request_id=request.request_id,
                server_id=self.server_id,
                version_index=state.version.version_index,
                arrival_s=request.arrival_s,
                completed_s=completed,
                hits=hits,
                misses=misses,
                fallback_depth=fallback_depth,
                values=values,
            )
        raise ServingError(
            f"server {self.server_id} exhausted fallback candidates for "
            f"request {request.request_id}"
        )

    def _serve_on(
        self, state: _VersionState, request: LookupRequest, start: float
    ):
        """Generator: answer every row of ``request`` from one state."""
        values: dict[tuple[int, int], np.ndarray] = {}
        hits = misses = 0
        earliest = start
        for table_id, row in request.rows:
            cached = state.cache.lookup(table_id, row)
            if cached is not None:
                hits += 1
                values[(table_id, int(row))] = cached
                continue
            misses += 1
            ref = state.version.row_ref(table_id, row)
            rows, weights, completed = yield from self._fetch_chunk(
                ref, earliest
            )
            earliest = max(earliest, completed)
            index = _row_index(ref, rows, row)
            value = weights[index].copy()
            value.flags.writeable = False
            values[(table_id, int(row))] = value
            self._admit_resident(state, ref, rows, weights, index)
        return values, hits, misses, earliest
