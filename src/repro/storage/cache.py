"""The near/far cache tier: an NVMe-class tier in front of any backend.

Check-N-Run writes to a single far tier (remote object storage), but
real deployments put an NVMe-class *near* tier in front of it —
TrainingCXL and FastPersist (PAPERS.md) both argue a mixed hierarchy is
what makes frequent checkpointing affordable. :class:`CacheTierBackend`
makes the :class:`~repro.storage.backends.Backend` interface
*composable*: it layers a capacity-bounded near tier (with its own
:class:`~repro.storage.requests.OpCostSuite`, so near GETs are cheap
and far PUTs stay expensive) over any existing backend — the S3-style
:class:`~repro.storage.remote.RemoteObjectBackend` in particular.

Two policies:

* ``write_through`` — every PUT lands in the far tier *before* the
  near copy is updated and the op is priced at far-PUT cost; the near
  tier only accelerates reads. A failed far write leaves neither tier
  updated.
* ``write_back`` — a PUT is acknowledged at *near*-tier cost; the
  object is marked **dirty** and flushed to the far tier
  asynchronously through the attached
  :class:`~repro.storage.engine.TransferEngine`'s retry/backoff loop
  (a background flusher drains the oldest dirty objects whenever dirty
  bytes exceed the :data:`FLUSH_WATERMARK` fraction of capacity).

Capacity pressure evicts **clean LRU first**; when only dirty objects
remain, the oldest dirty object is force-flushed to the far tier and
then evicted — dirty bytes are never dropped. Objects larger than the
whole tier bypass it and go straight to the far tier.

Because each request's price depends on *where* the bytes are, the
cache exposes :meth:`CacheTierBackend.cost_model` — a per-request
refinement of the backend-level suite that the timed store consults
through :meth:`~repro.storage.object_store.ObjectStore.cost_for`:
a GET of a near-resident key costs a near GET (a cache hit), a miss
costs a far GET, and a write-back PUT acks at near cost. Restore
storms spill gracefully: the wrapper advertises the far tier's
``range_get_bytes``/``fanout``, so reads that miss the near tier fan
out as ranged sub-GETs against the far tier exactly as they would
without the cache.

Crash semantics mirror the far tier's: a flush is one far PUT, so a
crash injected mid-flush (:class:`~repro.storage.backends\
.CrashingBackend` wrapping the far tier) fires *before* the far write
— the far tier keeps the old object or none, never a torn one, and the
near copy simply stays dirty until a later flush succeeds.
:meth:`CacheTierBackend.wipe_near` models losing the NVMe tier
outright: dirty-but-unflushed objects disappear, and restore planning
(``plan_resume``) falls back to the newest fully-flushed checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..errors import ObjectNotFoundError, StorageError
from .backends import Backend
from .requests import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_PUT,
    OpCostModel,
    OpCostSuite,
    StorageRequest,
    clip_range,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import TransferEngine

#: Write policies the cache tier supports.
POLICY_WRITE_BACK = "write_back"
POLICY_WRITE_THROUGH = "write_through"
CACHE_POLICIES = (POLICY_WRITE_BACK, POLICY_WRITE_THROUGH)

#: NVMe-class defaults: ~100 us request latency, multi-GiB/s streaming.
_NVME_LATENCY_S = 0.0001
_NVME_WRITE_BW = 2.0 * 1024**3
_NVME_READ_BW = 5.0 * 1024**3

#: Write-back flushing starts once dirty bytes pass this share of the
#: tier's capacity.
FLUSH_WATERMARK = 0.5


def nvme_costs() -> OpCostSuite:
    """An NVMe-shaped cost table for the near tier.

    Order-of-magnitude figures for a local flash device: ~100 us per
    request (vs tens of milliseconds for the far tier) and streaming
    at device bandwidth. Deterministic — no jitter or tail modes; the
    interesting randomness lives in the far tier.
    """
    return OpCostSuite(
        put=OpCostModel(
            base_latency_s=_NVME_LATENCY_S,
            seconds_per_byte=1.0 / _NVME_WRITE_BW,
        ),
        get=OpCostModel(
            base_latency_s=_NVME_LATENCY_S,
            seconds_per_byte=1.0 / _NVME_READ_BW,
        ),
        list=OpCostModel(base_latency_s=_NVME_LATENCY_S),
        delete=OpCostModel(base_latency_s=_NVME_LATENCY_S),
        head=OpCostModel(base_latency_s=_NVME_LATENCY_S),
    )


@dataclass(frozen=True)
class CacheTierStats:
    """A point-in-time snapshot of the cache tier's counters."""

    capacity_bytes: int
    policy: str
    hits: int
    misses: int
    evictions: int
    dirty_flushes: int
    forced_flushes: int
    flush_failures: int
    bypass_writes: int
    flushed_bytes: int
    near_objects: int
    near_bytes: int
    dirty_backlog: int
    dirty_bytes: int
    peak_dirty_bytes: int
    near_wipes: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


_STATS_FIELDS = tuple(f.name for f in fields(CacheTierStats))


class CacheTierBackend(Backend):
    """A capacity-bounded near tier layered over a far backend.

    ``far`` is any :class:`Backend` (the far tier); ``capacity_bytes``
    bounds the near tier's resident bytes. ``far_costs`` supplies the
    far tier's cost table when the far backend itself carries none
    (in-process backends defer to the store's config-derived suite —
    the factory passes that suite here so pricing stays consistent).
    The near tier is priced by :func:`nvme_costs`.

    The wrapper deliberately advertises ``part_size_bytes = None``:
    the near tier absorbs every write whole (an NVMe write needs no
    multipart protocol), so acks never pay per-part request latency.
    Ranged-GET capability (``range_get_bytes``/``fanout``) delegates to
    the far tier — reads that miss the cache spill to ranged far GETs.
    """

    def __init__(
        self,
        far: Backend,
        capacity_bytes: int,
        policy: str = POLICY_WRITE_BACK,
        far_costs: OpCostSuite | None = None,
    ) -> None:
        if capacity_bytes < 1:
            raise StorageError("cache capacity_bytes must be positive")
        if policy not in CACHE_POLICIES:
            raise StorageError(
                f"unknown cache policy {policy!r}; valid: {CACHE_POLICIES}"
            )
        self.far = far
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.flush_watermark = FLUSH_WATERMARK
        self.near_costs = nvme_costs()
        self.far_costs: OpCostSuite = (
            far.costs
            if far.costs is not None
            else (far_costs if far_costs is not None else OpCostSuite())
        )
        #: Near-tier contents in LRU order (first key = least recent).
        self._near: dict[str, bytes] = {}
        #: Dirty keys in write order (first key = oldest; the flush
        #: order). Only populated under write_back.
        self._dirty: dict[str, None] = {}
        self._engine: TransferEngine | None = None
        # -- counters ---------------------------------------------------
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_flushes = 0
        self.forced_flushes = 0
        self.flush_failures = 0
        self.bypass_writes = 0
        self.flushed_bytes = 0
        self.peak_dirty_bytes = 0
        self.near_wipes = 0

    # -- capability / cost surface -------------------------------------

    @property
    def costs(self) -> OpCostSuite:  # type: ignore[override]
        """The store-level suite: what each op class costs *by policy*.

        PUT prices at the ack cost (near under write_back, far under
        write_through); GET/HEAD at near cost (the expectation the
        cache exists to create); LIST/DELETE at far cost (they are
        always served authoritatively by the far tier). Per-request
        hit/miss pricing refines this via :meth:`cost_model`.
        """
        ack_put = (
            self.near_costs.put
            if self.policy == POLICY_WRITE_BACK
            else self.far_costs.put
        )
        return OpCostSuite(
            put=ack_put,
            get=self.near_costs.get,
            list=self.far_costs.list,
            delete=self.far_costs.delete,
            head=self.near_costs.head,
        )

    @property
    def part_size_bytes(self) -> int | None:  # type: ignore[override]
        return None

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return self.far.fanout

    @property
    def range_get_bytes(self) -> int | None:  # type: ignore[override]
        return self.far.range_get_bytes

    @property
    def rng(self):  # type: ignore[override]
        return self.far.rng

    def cost_model(self, op: str, key: str, nbytes: int = 0) -> OpCostModel:
        """Per-request pricing: where will this request's bytes live?

        The timed store consults this *before* issuing each data-plane
        request (:meth:`~repro.storage.object_store.ObjectStore\
        .cost_for`), so a GET is priced as a hit or a miss against the
        cache state the request will actually observe.
        """
        if op == OP_GET:
            return (
                self.near_costs.get
                if key in self._near
                else self.far_costs.get
            )
        if op == OP_PUT:
            if nbytes > self.capacity_bytes:
                return self.far_costs.put  # bypasses the near tier
            if self.policy == POLICY_WRITE_THROUGH:
                return self.far_costs.put
            return self.near_costs.put
        if op == OP_HEAD:
            return (
                self.near_costs.head
                if key in self._near
                else self.far_costs.head
            )
        if op == OP_DELETE:
            return self.far_costs.delete
        return self.far_costs.list

    def attach_engine(self, engine: "TransferEngine") -> None:
        """Give the cache the store's transfer engine, so asynchronous
        dirty flushes go through its retry/backoff loop (retries land
        in ``engine.retries_by_op`` like any other far request)."""
        self._engine = engine

    # -- cache state ----------------------------------------------------

    @property
    def near_bytes(self) -> int:
        return sum(len(d) for d in self._near.values())

    @property
    def near_objects(self) -> int:
        return len(self._near)

    @property
    def dirty_backlog(self) -> int:
        """Dirty objects written but not yet flushed to the far tier."""
        return len(self._dirty)

    @property
    def dirty_bytes(self) -> int:
        return sum(len(self._near[k]) for k in self._dirty)

    def cached_keys(self) -> list[str]:
        """Near-resident keys, sorted (for tests/inspection)."""
        return sorted(self._near)

    def dirty_keys(self) -> list[str]:
        """Unflushed keys in flush (write) order."""
        return list(self._dirty)

    def stats(self) -> CacheTierStats:
        """Every :class:`CacheTierStats` field is an attribute here."""
        return CacheTierStats(
            **{name: getattr(self, name) for name in _STATS_FIELDS}
        )

    # -- near-tier bookkeeping -----------------------------------------

    def _touch(self, key: str) -> None:
        self._near[key] = self._near.pop(key)

    def _insert_near(self, key: str, data: bytes, dirty: bool) -> None:
        self._near.pop(key, None)
        self._near[key] = data
        if dirty:
            self._dirty.pop(key, None)
            self._dirty[key] = None
            self.peak_dirty_bytes = max(
                self.peak_dirty_bytes, self.dirty_bytes
            )
        else:
            self._dirty.pop(key, None)

    def _drop_near(self, key: str) -> None:
        self._near.pop(key, None)
        self._dirty.pop(key, None)

    # -- flushing -------------------------------------------------------

    def _flush_one(self, key: str) -> None:
        """Write one dirty object to the far tier (one far PUT).

        Routed through the attached engine's retry/backoff loop when a
        store owns this cache, so transient far failures are re-issued
        (and draw from the store's latency RNG); the flush is
        asynchronous and does not occupy the shared link timeline. A
        *permanent* failure (retries exhausted, a crash injected by a
        :class:`~repro.storage.backends.CrashingBackend` far tier)
        leaves the object dirty: the far tier holds the old bytes or
        none, never a torn object.
        """
        data = self._near[key]
        request = StorageRequest(OP_PUT, key, len(data))
        if self._engine is not None:
            self._engine.attempt_request(
                OP_PUT,
                lambda: self.far.put_object(request, data),
                cost=self.far_costs.put,
            )
        else:
            self.far.put_object(request, data)
        self._dirty.pop(key, None)
        self.dirty_flushes += 1
        self.flushed_bytes += len(data)

    def flush(self, limit: int | None = None) -> int:
        """Flush dirty objects to the far tier, oldest first.

        Returns the number flushed. Failures count in
        :attr:`flush_failures` and re-raise — the object stays dirty
        for a later retry.
        """
        flushed = 0
        for key in list(self._dirty):
            if limit is not None and flushed >= limit:
                break
            try:
                self._flush_one(key)
            except StorageError:
                self.flush_failures += 1
                raise
            flushed += 1
        return flushed

    def _maybe_auto_flush(self) -> None:
        """The asynchronous flusher: drain oldest-dirty past watermark.

        Errors are swallowed (counted in :attr:`flush_failures`) — a
        background flush failure must not fail the foreground write it
        piggybacks on; the object stays dirty and a later flush (or
        eviction pressure) retries it.
        """
        watermark = self.capacity_bytes * self.flush_watermark
        while self._dirty and self.dirty_bytes > watermark:
            key = next(iter(self._dirty))
            try:
                self._flush_one(key)
            except StorageError:
                self.flush_failures += 1
                break

    def _evict_to_capacity(self, protect: str | None = None) -> None:
        """Evict until resident bytes fit: clean LRU first, then the
        oldest dirty object after a *forced* flush — dirty bytes are
        never dropped, so a forced-flush failure propagates (there is
        no safe way to make room)."""
        while self.near_bytes > self.capacity_bytes:
            victim = next(
                (
                    k
                    for k in self._near
                    if k not in self._dirty and k != protect
                ),
                None,
            )
            if victim is None:
                victim = next(
                    (k for k in self._dirty if k != protect), None
                )
                if victim is None:
                    break
                try:
                    self._flush_one(victim)
                except StorageError:
                    self.flush_failures += 1
                    raise
                self.forced_flushes += 1
            del self._near[victim]
            self.evictions += 1

    def wipe_near(self) -> int:
        """Lose the near tier (simulated NVMe device loss).

        Every near-resident object disappears — including dirty ones
        that never reached the far tier. Returns the number of dirty
        objects lost; restore planning falls back to the newest fully
        flushed checkpoint (``plan_resume`` probes existence against
        what the composed store can still see).
        """
        lost_dirty = len(self._dirty)
        self._near.clear()
        self._dirty.clear()
        self.near_wipes += 1
        return lost_dirty

    # -- request-oriented data plane -----------------------------------

    def put_object(self, request: StorageRequest, data: bytes) -> None:
        data = bytes(data)
        key = request.key
        if len(data) > self.capacity_bytes:
            # Larger than the whole tier: bypass it. Far tier first so
            # a failed write leaves the old near copy intact; then the
            # (stale) near copy is dropped.
            self.far.put_object(request, data)
            self._drop_near(key)
            self.bypass_writes += 1
            return
        if self.policy == POLICY_WRITE_THROUGH:
            # Far tier first: a failed far write updates neither tier.
            self.far.put_object(request, data)
            self._insert_near(key, data, dirty=False)
        else:
            self._insert_near(key, data, dirty=True)
            self._maybe_auto_flush()
        self._evict_to_capacity(protect=key)

    def get_object(self, request: StorageRequest) -> bytes:
        key = request.key
        data = self._near.get(key)
        if data is not None:
            self.hits += 1
            self._touch(key)
            return clip_range(data, request.byte_range)
        data = self.far.get_object(request)
        self.misses += 1
        if request.byte_range is None and len(data) <= self.capacity_bytes:
            # Admit whole-object reads; ranged sub-GETs (a storm
            # spilling to the far tier) stream past the cache so every
            # part of one spilled read prices consistently at far cost.
            self._insert_near(key, data, dirty=False)
            self._evict_to_capacity(protect=key)
        return data

    def head_object(self, request: StorageRequest) -> bool:
        if request.key in self._near:
            return True
        return self.far.head_object(request)

    def delete_object(self, request: StorageRequest) -> None:
        key = request.key
        try:
            self.far.delete_object(request)
        except ObjectNotFoundError:
            if key not in self._near:
                raise
            # Dirty-only object: it never reached the far tier, so the
            # near removal below is the whole delete.
        self._drop_near(key)

    def list_objects(self, request: StorageRequest) -> list[str]:
        keys = set(self.far.list_objects(request))
        prefix = request.key
        keys.update(k for k in self._near if k.startswith(prefix))
        return sorted(keys)


def find_cache_tier(backend: Backend) -> CacheTierBackend | None:
    """Locate the cache tier inside a (possibly wrapped) backend.

    Fleet runs wrap the store's backend in a
    :class:`~repro.storage.backends.CrashingBackend` when bit-rot
    injection is on; reports walk the ``inner`` chain to reach the
    cache's counters wherever it sits.
    """
    node: Backend | None = backend
    while node is not None:
        if isinstance(node, CacheTierBackend):
            return node
        node = getattr(node, "inner", None)
    return None
