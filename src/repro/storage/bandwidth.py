"""Bandwidth accounting and arbitration for the simulated remote store.

Checkpoint frequency "is bounded by the available write bandwidth to
remote storage" (paper section 4.3); every reduction factor in Fig 17 is
ultimately a statement about bytes pushed through this link. The store
serialises transfers on a :class:`~repro.distributed.clock.Timeline` and
records them here so experiments can ask for average or windowed write
bandwidth after the fact.

The fleet extension shares one store between many jobs. Each transfer is
tagged with its *stream* (one stream per job), and a
:class:`BandwidthArbiter` decides which backlogged stream's next chunk
gets the link. Arbitration is two-level:

* **Priority tiers** (paper section 2.2: production vs experimental
  jobs). Every stream belongs to a tier — :data:`TIER_PROD` or
  :data:`TIER_EXPERIMENTAL` — and a backlogged prod stream always wins
  the link over a backlogged experimental one. The fleet scheduler
  additionally lets prod traffic *preempt* an experimental job's staged
  write (abort-and-requeue); the arbiter records those preemptions per
  stream via :meth:`BandwidthArbiter.record_preemption`.
* **Start-time fair queueing** within a tier — the same discipline
  packet schedulers use: each stream carries a virtual-time tag that
  advances by the bytes it moves per transfer, and the stream with the
  smallest tag is served next. Over any window much longer than one
  chunk, streams converge to equal byte shares, while the link never
  moves more than its configured bandwidth (it is a single serial
  resource).

The arbiter also owns per-stream *capacity quotas*: a job whose live
physical bytes would exceed its quota has its PUT rejected with
:class:`~repro.errors.CapacityExceededError` before any link time or
backend write is spent — other jobs are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CapacityExceededError, StorageError

#: Priority tier of the inference serving plane: user-facing row
#: lookups are latency-critical, so a backlogged serving stream beats
#: even production training traffic to the link.
TIER_SERVING = "serving"
#: Priority tier of production jobs: their backlogged transfers always
#: beat experimental ones to the link, and they may preempt experimental
#: staged writes entirely.
TIER_PROD = "prod"
#: Priority tier of experimental jobs: served by fair queueing only
#: when no prod or serving stream is backlogged.
TIER_EXPERIMENTAL = "experimental"
#: Priority tier of peer-replication delta streams: best-effort mirror
#: traffic that must never delay checkpoint writes, so it ranks below
#: every training tier on a contended link.
TIER_REPLICATION = "replication"

#: Tier service order on a contended link (lower rank serves first).
TIER_RANK = {
    TIER_SERVING: 0,
    TIER_PROD: 1,
    TIER_EXPERIMENTAL: 2,
    TIER_REPLICATION: 3,
}


@dataclass(frozen=True)
class Transfer:
    """One completed transfer over the storage link."""

    key: str
    nbytes: int  # physical bytes, i.e. logical * replication
    start_s: float
    end_s: float
    kind: str  # "put" or "get"
    stream: str = ""  # owning stream/job ("" = untagged single-job use)

    @property
    def op(self) -> str:
        """Request op class of this transfer (``OP_PUT``/``OP_GET``).

        Derived from ``kind`` — only data-plane classes reach the
        transfer log — so write vs read link-load attribution (the
        fleet's split bandwidth series) can filter on the same op
        vocabulary the receipt layer uses.
        """
        return self.kind.upper()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TransferLog:
    """Ordered record of transfers with bandwidth queries."""

    def __init__(self) -> None:
        self._transfers: list[Transfer] = []
        # Per-(kind, stream) index: the fleet scheduler reads one
        # job's restore GETs around every crash, which must not scan
        # the whole fleet's transfer history each time.
        self._by_kind_stream: dict[tuple[str, str], list[Transfer]] = {}

    def record(self, transfer: Transfer) -> None:
        self._transfers.append(transfer)
        self._by_kind_stream.setdefault(
            (transfer.kind, transfer.stream), []
        ).append(transfer)

    def transfers(
        self, kind: str | None = None, stream: str | None = None
    ) -> list[Transfer]:
        if kind is not None and stream is not None:
            return list(self._by_kind_stream.get((kind, stream), ()))
        return [
            t
            for t in self._transfers
            if (kind is None or t.kind == kind)
            and (stream is None or t.stream == stream)
        ]

    def total_bytes(self, kind: str = "put", stream: str | None = None) -> int:
        return sum(
            t.nbytes
            for t in self._transfers
            if t.kind == kind and (stream is None or t.stream == stream)
        )

    def streams(self, kind: str | None = None) -> list[str]:
        """Distinct stream tags observed, sorted."""
        return sorted(
            {
                t.stream
                for t in self._transfers
                if kind is None or t.kind == kind
            }
        )

    def stream_shares(self, kind: str = "put") -> dict[str, float]:
        """Fraction of ``kind`` bytes each stream moved."""
        total = self.total_bytes(kind)
        if total == 0:
            return {}
        return {
            stream: self.total_bytes(kind, stream) / total
            for stream in self.streams(kind)
        }

    def average_bandwidth(
        self,
        start_s: float,
        end_s: float,
        kind: str = "put",
    ) -> float:
        """Mean bytes/sec of ``kind`` transfers overlapping the window.

        Each transfer contributes pro-rata for the fraction of its
        duration inside the window — the natural definition for the
        interval-bandwidth series of Fig 15.
        """
        if end_s <= start_s:
            raise StorageError(
                f"empty bandwidth window [{start_s}, {end_s}]"
            )
        moved = 0.0
        for t in self._transfers:
            if t.kind != kind or t.end_s <= start_s or t.start_s >= end_s:
                continue
            overlap = min(t.end_s, end_s) - max(t.start_s, start_s)
            if t.duration_s > 0:
                moved += t.nbytes * (overlap / t.duration_s)
            else:
                moved += t.nbytes
        return moved / (end_s - start_s)


def projected_queue_delay_s(
    free_at: float,
    now: float,
    queued_bytes: int = 0,
    seconds_per_byte: float = 0.0,
) -> float:
    """Projected time a new transfer would queue behind the link.

    The same ``preempt_wait_s``-style backlog signal the tier
    preemption machinery measures — how far the storage timeline's
    ``free_at`` sits ahead of a caller's clock — extended with the
    service time of bytes already *announced* but not yet submitted
    (the transfer engine's staged parts). The fleet's dynamic admission
    controller defers checkpoint triggers when this projection exceeds
    one checkpoint interval.
    """
    if queued_bytes < 0:
        raise StorageError(f"negative queued bytes {queued_bytes}")
    if seconds_per_byte < 0:
        raise StorageError(
            f"negative per-byte time {seconds_per_byte}"
        )
    return max(0.0, free_at - now) + queued_bytes * seconds_per_byte


def transfer_time_s(
    nbytes: int, bandwidth: float, latency_s: float
) -> float:
    """Link-level transfer duration: fixed latency + bytes / bandwidth."""
    if nbytes < 0:
        raise StorageError(f"negative transfer size {nbytes}")
    if bandwidth <= 0:
        raise StorageError(f"non-positive bandwidth {bandwidth}")
    if latency_s < 0:
        raise StorageError(f"negative latency {latency_s}")
    return latency_s + nbytes / bandwidth


# ----------------------------------------------------------------------
# Multi-stream arbitration
# ----------------------------------------------------------------------


@dataclass
class StreamState:
    """Accounting for one registered transfer stream (one job)."""

    stream_id: str
    #: Priority class: prod beats experimental. Experimental is the
    #: default so an untiered registration can never silently outrank
    #: a fleet's production streams.
    tier: str = TIER_EXPERIMENTAL
    quota_bytes: int | None = None  # live physical-byte ceiling
    charged_bytes: int = 0  # live physical bytes attributed
    served_put_bytes: int = 0
    served_get_bytes: int = 0
    virtual_finish: float = 0.0  # SFQ finish tag (bytes)
    transfers: int = 0
    quota_rejections: int = 0
    preemptions: int = 0  # staged writes of this stream aborted by prod


class BandwidthArbiter:
    """Tier-aware fair-share scheduler and quota ledger for a shared link.

    The arbiter does not move bytes itself — the store's serial timeline
    does. It decides *order* (:meth:`pick`, used by the fleet scheduler
    to choose which backlogged job submits its next chunk or which
    crashed job restores first during a storm): priority tier first
    (prod beats experimental), start-time fair queueing within a tier.
    It also enforces *per-stream capacity quotas* (:meth:`admit_put` /
    :meth:`credit_delete`, called by the store around each mutation) and
    keeps the per-stream preemption ledger.
    """

    def __init__(self) -> None:
        self._streams: dict[str, StreamState] = {}
        self._virtual_time = 0.0  # max finish tag served so far
        # Sorted-view cache, invalidated on registration: streams()
        # sits on fleet summary paths and must not re-sort the whole
        # registry per call.
        self._sorted: list[StreamState] | None = None

    # -- registry ------------------------------------------------------

    def register(
        self,
        stream_id: str,
        quota_bytes: int | None = None,
        tier: str = TIER_EXPERIMENTAL,
    ) -> StreamState:
        if not stream_id:
            raise StorageError("stream id must be non-empty")
        if quota_bytes is not None and quota_bytes <= 0:
            raise StorageError("stream quota must be positive")
        if tier not in TIER_RANK:
            raise StorageError(
                f"unknown tier {tier!r}; valid: {tuple(TIER_RANK)}"
            )
        if stream_id in self._streams:
            raise StorageError(f"stream {stream_id!r} already registered")
        state = StreamState(
            stream_id=stream_id,
            tier=tier,
            quota_bytes=quota_bytes,
        )
        self._streams[stream_id] = state
        self._sorted = None
        return state

    def stream(self, stream_id: str) -> StreamState:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StorageError(
                f"stream {stream_id!r} is not registered"
            ) from None

    def streams(self) -> list[StreamState]:
        if self._sorted is None:
            self._sorted = [
                self._streams[k] for k in sorted(self._streams)
            ]
        return list(self._sorted)

    # -- fair queueing -------------------------------------------------

    def pick(self, candidates: list[str]) -> str:
        """The backlogged stream to serve next: best tier, smallest tag.

        Priority is strict across tiers — a backlogged prod stream is
        always served before any experimental one. Within the winning
        tier, start-time fair queueing applies: smallest SFQ finish tag
        wins, ties break by stream id for determinism. Streams that have
        been idle re-enter at the current virtual time (standard SFQ),
        so an idle period never becomes a credit to burst later.
        """
        if not candidates:
            raise StorageError("no candidate streams to pick from")
        # Single pass, no sort: the historical sorted scan with a
        # strict-< tag comparison is exactly the minimum under
        # (tier rank, SFQ tag, stream id) — order-independent, so a
        # linear min over the candidates picks the identical stream in
        # O(k). This sits on the fleet's per-event dispatch path.
        virtual_time = self._virtual_time
        best: str | None = None
        best_key: tuple[int, float, str] | None = None
        for stream_id in candidates:
            state = self.stream(stream_id)
            key = (
                TIER_RANK[state.tier],
                max(state.virtual_finish, virtual_time),
                stream_id,
            )
            if best_key is None or key < best_key:
                best, best_key = stream_id, key
        assert best is not None
        return best

    def record_preemption(self, stream_id: str) -> None:
        """Count a stream's staged write aborted by prod-tier traffic."""
        self.stream(stream_id).preemptions += 1

    def on_transfer(self, stream_id: str, nbytes: int, kind: str) -> None:
        """Advance a stream's virtual tag after it used the link."""
        state = self.stream(stream_id)
        start_tag = max(state.virtual_finish, self._virtual_time)
        state.virtual_finish = start_tag + nbytes
        self._virtual_time = max(self._virtual_time, start_tag)
        state.transfers += 1
        if kind == "put":
            state.served_put_bytes += nbytes
        else:
            state.served_get_bytes += nbytes

    # -- quotas --------------------------------------------------------

    def admit_put(self, stream_id: str, delta_physical: int) -> None:
        """Charge a PUT's physical bytes against the stream's quota.

        ``delta_physical`` is the *net* change in live physical bytes
        (an overwrite's previous size already subtracted). Raises
        :class:`CapacityExceededError` — and charges nothing — if the
        stream would exceed its quota; other streams are unaffected.
        """
        state = self.stream(stream_id)
        projected = state.charged_bytes + delta_physical
        if state.quota_bytes is not None and projected > state.quota_bytes:
            state.quota_rejections += 1
            raise CapacityExceededError(
                f"stream {stream_id!r}: PUT would raise live usage to "
                f"{projected} bytes, over its {state.quota_bytes}-byte "
                "quota"
            )
        state.charged_bytes = max(0, projected)

    def credit_delete(self, stream_id: str, physical_bytes: int) -> None:
        """Return a deleted object's physical bytes to the stream."""
        state = self.stream(stream_id)
        state.charged_bytes = max(0, state.charged_bytes - physical_bytes)

    # -- fleet-level metrics -------------------------------------------

    def fairness_index(self, kind: str = "put") -> float:
        """Jain's fairness index over per-stream service.

        Computed over *every* registered stream: 1.0 means each
        received the same bytes; 1/N means one stream took everything
        while the rest starved. 1.0 when no stream moved any bytes.
        """
        # Float service, not Python ints: over ints Jain's index would
        # square exactly and change the reported index's last bits.
        served = [
            float(s.served_put_bytes)
            if kind == "put"
            else float(s.served_get_bytes)
            for s in self._streams.values()
        ]
        total = sum(served)
        if not served or total == 0:
            return 1.0
        return total * total / (len(served) * sum(x * x for x in served))
