"""The simulated remote object store.

Checkpoints are written to "remote object storage to provide high
availability (including replications) and storage scalability" (paper
section 4). This store wraps a byte backend with:

* **request timing** — every operation is a classed request
  (PUT/GET/LIST/DELETE/HEAD) whose wall time comes from the backend's
  per-op-class :class:`~repro.storage.requests.OpCostModel`; data-plane
  transfers serialise on a storage :class:`Timeline` in simulated time,
  and every op returns a typed
  :class:`~repro.storage.requests.OpReceipt`;
* **a transfer engine** — multipart/ranged fan-out, part-granular
  staged writes, and the transient-failure retry/backoff loop all live
  in the attached :class:`~repro.storage.engine.TransferEngine`
  (``store.engine``); ``put``/``get`` delegate to it, and
  :meth:`ObjectStore.stage_put` exposes the part-granular staged path
  the checkpoint writer and fleet scheduler interleave on;
* **replication accounting** — physical bytes = logical x factor;
* **capacity accounting** — live logical/physical bytes and their peak,
  the capacity behind Fig 17 (per-job quotas live in the bandwidth
  arbiter);
* **a transfer log + op log** — the per-transfer series behind Fig 15's
  bandwidth numbers (write *and* read traffic, op-class tagged) and the
  per-receipt record behind the backend-ops benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import StorageConfig
from ..distributed.clock import SimClock, Timeline
from ..errors import StorageError
from .backends import Backend
from .bandwidth import BandwidthArbiter, TransferLog
from .engine import StagedGet, StagedPut, TransferEngine, drain
from .requests import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    OpCostSuite,
    OpLog,
    OpReceipt,
    StorageRequest,
)

@dataclass(frozen=True)
class StoreStats:
    """Aggregate store statistics."""

    live_logical_bytes: int
    live_physical_bytes: int
    peak_logical_bytes: int
    peak_physical_bytes: int
    total_bytes_written: int
    num_objects: int


@dataclass(frozen=True)
class PrefixDeleteReceipt:
    """Completion record of a batch prefix delete (1 LIST + N DELETE)."""

    prefix: str
    keys: tuple[str, ...]
    freed_logical_bytes: int
    freed_physical_bytes: int
    issued_s: float
    completed_s: float

    @property
    def num_objects(self) -> int:
        return len(self.keys)


class ObjectStore:
    """Request-timed, capacity-accounted object storage in sim time."""

    def __init__(
        self,
        config: StorageConfig,
        clock: SimClock,
        backend: Backend | None = None,
        arbiter: BandwidthArbiter | None = None,
    ) -> None:
        self.config = config
        self.clock = clock
        if backend is None:
            from .factory import make_backend

            backend = make_backend(config.backend, config)
        self.backend = backend
        #: Effective per-op-class cost table: the backend's own suite
        #: when it carries one, else the config-derived model (fixed
        #: latency + link bandwidths, metadata ops free).
        self.costs: OpCostSuite = (
            backend.costs
            if backend.costs is not None
            else OpCostSuite.from_storage_config(config)
        )
        self.timeline = Timeline(clock, "storage")
        self.log = TransferLog()
        self.ops = OpLog()
        self.arbiter = arbiter
        self._rng: np.random.Generator | None = backend.rng
        self._sizes: dict[str, int] = {}
        #: ``sum(self._sizes.values())``, kept current at the three
        #: places the size map changes: the peak is sampled on each PUT
        #: and DELETE, and re-summing a fleet's objects there is
        #: quadratic.
        self._live_logical = 0
        self._peak_logical = 0
        self._total_written = 0
        #: The transfer engine: part-granular staged PUTs, multipart /
        #: ranged fan-out, retry/backoff, and the quantization worker
        #: pool all live here.
        self.engine = TransferEngine(self)
        # Backends that run asynchronous work of their own (the cache
        # tier's dirty flushes) borrow the engine's retry/backoff loop.
        backend.attach_engine(self.engine)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------

    @property
    def live_logical_bytes(self) -> int:
        return self._live_logical

    @property
    def live_physical_bytes(self) -> int:
        return self.live_logical_bytes * self.config.replication_factor

    def _sample_peak(self) -> None:
        self._peak_logical = max(self._peak_logical, self._live_logical)

    def stats(self) -> StoreStats:
        return StoreStats(
            live_logical_bytes=self.live_logical_bytes,
            live_physical_bytes=self.live_physical_bytes,
            peak_logical_bytes=self._peak_logical,
            peak_physical_bytes=(
                self._peak_logical * self.config.replication_factor
            ),
            total_bytes_written=self._total_written,
            num_objects=len(self._sizes),
        )

    # ------------------------------------------------------------------
    # Cost helpers
    # ------------------------------------------------------------------

    def cost_for(self, op: str, key: str, nbytes: int = 0):
        """Resolve the cost model for one specific request.

        Backends that price per *request* rather than per op class — a
        cache tier whose GET cost depends on whether ``key`` is
        near-resident — answer from
        :meth:`~repro.storage.backends.Backend.cost_model`; everything
        else answers ``None`` and falls through to the store-level
        suite (the very same
        :class:`~repro.storage.requests.OpCostModel` objects, so timing
        without such a backend is bit-identical to pricing via
        ``self.costs``).
        """
        model = self.backend.cost_model(op, key, nbytes)
        return model if model is not None else self.costs.for_op(op)

    def predict_put_duration(self, logical_bytes: int) -> float:
        """Expected single-shot PUT wall time for a payload size.

        Used by the checkpoint writer to predict a manifest's landing
        time before the PUT is issued. Deterministic: jitter/tail draws
        are excluded (they are timing noise around this expectation).
        """
        return self.costs.for_op(OP_PUT).duration_s(
            logical_bytes * self.config.replication_factor
        )

    def _record_op(
        self,
        op: str,
        key: str,
        logical: int,
        physical: int,
        issued: float,
        duration: float,
        stream: str,
        retries: int = 0,
    ) -> OpReceipt:
        """Book a control-plane request (no link occupancy)."""
        receipt = OpReceipt(
            op=op,
            key=key,
            logical_bytes=logical,
            physical_bytes=physical,
            issued_s=issued,
            start_s=issued,
            first_byte_s=issued + duration,
            completed_s=issued + duration,
            retries=retries,
            stream=stream,
        )
        self.ops.record(receipt)
        return receipt

    def _control(
        self,
        op: str,
        key: str,
        call,
        issued: float,
        stream: str,
        physical: int = 0,
        cost=None,
    ):
        """Issue one control-plane request and book it as it lands.

        ``call(request)`` goes through the engine's retry loop; the
        receipt is booked at ``issued`` for the retry penalty plus the
        request latency — a LIST also pays its per-key time and counts
        the keys as its logical size. Returns ``(result, receipt)``;
        nothing is booked when the retries run out.
        """
        request = StorageRequest(op, key, stream=stream)
        result, retries, penalty, latency = self.engine.attempt_request(
            op, lambda: call(request), cost=cost
        )
        listed = len(result) if op == OP_LIST else 0
        receipt = self._record_op(
            op,
            key,
            listed,
            physical,
            issued,
            penalty + latency + self.costs.for_op(op).transfer_s(listed),
            stream,
            retries=retries,
        )
        return result, receipt

    def _commit_put(
        self, key: str, logical: int, receipt: OpReceipt
    ) -> None:
        """Book a landed PUT: size map, totals, op log, peak capacity.

        Called by the transfer engine when a staged write's last part
        (and its completion request) has been submitted.
        """
        self._live_logical += logical - self._sizes.get(key, 0)
        self._sizes[key] = logical
        self._total_written += receipt.physical_bytes
        self.ops.record(receipt)
        self._sample_peak()

    # ------------------------------------------------------------------
    # Object operations
    # ------------------------------------------------------------------

    def put(self, key: str, data: bytes) -> OpReceipt:
        """Store a new object; occupies the storage link in sim time.

        Raises :class:`~repro.errors.ObjectExistsError` if ``key`` is
        already stored. Untagged: a job's own traffic goes through
        :meth:`stage_put` with its ``stream``.

        Delegates to the transfer engine: against a backend that
        advertises ``part_size_bytes``, payloads larger than one part
        upload through the multipart protocol with per-part request
        latency overlapped across ``backend.fanout`` lanes, transient
        request failures are retried with backoff (the receipt's
        ``retries`` counts them), and a failure mid-upload aborts the
        multipart — no partial object ever becomes visible.

        Kept synchronous on purpose: it is the storage primitive that
        manifests, markers and tools write through, and the one the
        repo benchmark's layer hooks time by name. :meth:`stage_put` is
        its part-by-part form.
        """
        return drain(StagedPut(self.engine, key, data))

    def stage_put(
        self,
        key: str,
        data: bytes,
        earliest: float | None = None,
        stream: str = "",
    ) -> StagedPut:
        """Announce a PUT of a new object whose parts are submitted one
        at a time.

        ``earliest`` defers the transfer start (the pipelined checkpoint
        writer passes the chunk's quantization-finish time here).
        ``stream`` tags the transfer with its owning job on a shared
        store; when an arbiter is attached, the stream's capacity quota
        is checked (and charged) before any link time is spent.

        The part-granular staged path: quota/capacity are checked now,
        then each :meth:`~repro.storage.engine.StagedPut.submit_next`
        call issues exactly one multipart part (or the whole object for
        single-shot uploads). The fleet scheduler drains staged writes
        from many jobs through the bandwidth arbiter, so the shared
        link interleaves *parts*, not whole chunks.
        """
        return StagedPut(
            self.engine, key, data, earliest=earliest, stream=stream
        )

    def get(
        self, key: str, earliest: float | None = None, stream: str = ""
    ) -> bytes:
        """Fetch an object (timed on the shared storage timeline).

        ``earliest`` floors the transfer start at the caller's own
        simulated time — on a shared store the reading job's clock may
        be ahead of the store's, and a restore must not be timed before
        the failure that triggered it.

        Delegates to the transfer engine: against a backend that
        advertises ``range_get_bytes``, whole reads larger than that
        window are issued as ranged sub-GETs fanned out over the
        backend's request lanes, and transient failures are retried
        with backoff.

        Kept synchronous on purpose, like :meth:`put`: the storage
        primitive the repo benchmark's layer hooks time by name.
        :meth:`stage_get` is its part-by-part form.
        """
        staged = StagedGet(self.engine, key, earliest=earliest, stream=stream)
        drain(staged)
        return staged.data()

    def stage_get(
        self, key: str, earliest: float | None = None, stream: str = ""
    ) -> StagedGet:
        """Announce a GET whose ranged parts are submitted one at a time.

        The read-side mirror of :meth:`stage_put`: the restore path
        stages its chunk reads so the fleet scheduler can interleave
        *parts* from many recovering jobs through the bandwidth arbiter
        — a restore storm drains part by part instead of whole chunk
        reads head-of-line. Draining a staged GET uninterrupted is
        timing-identical to :meth:`get`.
        """
        return StagedGet(self.engine, key, earliest=earliest, stream=stream)

    def _delete_one(
        self, key: str, size: int, stream: str, issued: float
    ) -> OpReceipt:
        """One DELETE of a ``size``-byte object, booked as it lands:
        receipt, size map, quota credit. Sampling the peak is left to
        the caller (a batch samples once)."""
        physical = size * self.config.replication_factor
        _, receipt = self._control(
            OP_DELETE,
            key,
            self.backend.delete_object,
            issued,
            stream,
            physical=physical,
        )
        self._live_logical -= self._sizes.pop(key, 0)
        if self.arbiter is not None and stream:
            self.arbiter.credit_delete(stream, physical)
        return receipt

    def delete(self, key: str) -> OpReceipt:
        """Remove an object now and update capacity accounting.

        Untagged: a job's own deletes go through :meth:`delete_prefix`
        with its ``stream``, which credits its quota.
        """
        receipt = self._delete_one(
            key, self._sizes.get(key, 0), "", self.clock.now
        )
        self._sample_peak()
        return receipt

    def delete_prefix(
        self, prefix: str, stream: str = "", at_s: float | None = None
    ) -> PrefixDeleteReceipt:
        """Batch-remove every object under a prefix.

        Costed as a *single* LIST followed by N DELETE requests — the
        shape retention sweeps take against a real object store —
        rather than N client-side list+delete round trips. Every DELETE
        is booked as it lands, so a request that exhausts its retries
        mid-batch leaves the accounting of the keys already gone (size
        map, quota, op log) agreeing with the backend. The peak is
        re-sampled once, after the batch.
        """
        issued = (
            self.clock.now
            if at_s is None
            else max(at_s, self.clock.now)
        )
        # One enumeration serves both the size bookkeeping and the
        # deletes (the backend's own delete_prefix would LIST again).
        # Hand-timed rather than through _control: the batch clock runs
        # on from ``issued`` and the receipt spans it, which rounds
        # differently from ``issued + duration``.
        list_request = StorageRequest(OP_LIST, prefix, stream=stream)
        keys, retries, penalty, latency = self.engine.attempt_request(
            OP_LIST, lambda: self.backend.list_objects(list_request)
        )
        sizes = [self.object_size(key) for key in keys]
        completed = (
            issued
            + penalty
            + latency
            + self.costs.for_op(OP_LIST).transfer_s(len(keys))
        )
        self._record_op(
            OP_LIST,
            prefix,
            len(keys),
            0,
            issued,
            completed - issued,
            stream,
            retries=retries,
        )
        landed = 0
        try:
            for key, size in zip(keys, sizes):
                completed = self._delete_one(
                    key, size, stream, completed
                ).completed_s
                landed += 1
        finally:
            if landed:
                self._sample_peak()
        freed_logical = sum(sizes)
        return PrefixDeleteReceipt(
            prefix=prefix,
            keys=tuple(keys),
            freed_logical_bytes=freed_logical,
            freed_physical_bytes=(
                freed_logical * self.config.replication_factor
            ),
            issued_s=issued,
            completed_s=completed,
        )

    def exists(self, key: str) -> bool:
        """HEAD probe: is the key present?"""
        present, _ = self._control(
            OP_HEAD,
            key,
            self.backend.head_object,
            self.clock.now,
            "",
            cost=self.cost_for(OP_HEAD, key),
        )
        return present

    def list_keys(self, prefix: str = "", stream: str = "") -> list[str]:
        """LIST request: all keys under a prefix, sorted."""
        keys, _ = self._control(
            OP_LIST, prefix, self.backend.list_objects, self.clock.now, stream
        )
        return keys

    def object_size(self, key: str) -> int:
        """Logical size of a stored object.

        Sizes of objects written by this process are tracked in memory;
        objects inherited from a previous process (a durable backend
        reopened after a restart) fall back to reading the backend.
        """
        try:
            return self._sizes[key]
        except KeyError:
            if self.engine.retry_probe(OP_HEAD, key):
                size = len(self.engine.retry_probe(OP_GET, key))
                self._sizes[key] = size
                self._live_logical += size
                return size
            raise StorageError(f"no size recorded for {key!r}") from None
