"""The part-granular transfer engine behind the object store.

The :class:`TransferEngine` owns, for one
:class:`~repro.storage.object_store.ObjectStore`:

* **staged, part-granular transfers** — one protocol for both
  directions: a :class:`StagedPut` / :class:`StagedGet` (what the
  store's ``stage_put`` / ``stage_get`` return) *announces* a transfer
  as parts (multipart parts of a PUT, ranged sub-GETs of a GET; one
  part when the object fits a single request); each ``submit_next()``
  issues exactly one part request and the last one returns the
  :class:`OpReceipt`. Between submissions another stream's parts may
  claim the link, so a fleet scheduler interleaves checkpoint writes
  and a restore storm at *part* granularity, while draining a staged
  transfer uninterrupted (the store's ``put`` / ``get``) is
  timing-identical to one whole-object request sequence;
* **a retry/backoff loop** — transient request failures (the seeded
  per-op-class injection on
  :class:`~repro.storage.remote.RemoteObjectBackend`) are re-issued
  with exponential backoff; wasted attempt latency and backoff are
  charged in simulated time and every receipt's
  :attr:`~repro.storage.requests.OpReceipt.retries` counts them;
* **a quantization worker pool** — real background threads the
  checkpoint writer runs chunk quantization on (all but a checkpoint's
  head chunk, which nothing could overlap: that one runs on the caller
  and is booked as fully waited), with busy/blocked accounting so the
  *measured* wall-time overlap (work hidden behind the caller's own
  progress) is reportable, mirroring what the simulated quantization
  lane models;
* **backlog-driven admission control** — :class:`AdmissionController`
  uses the ``preempt_wait_s``-style backlog signal
  (:func:`~repro.storage.bandwidth.projected_queue_delay_s`, fed with
  the engine's announced-but-unsubmitted part bytes): it defers a new
  checkpoint trigger when the projected queue delay exceeds one
  checkpoint interval — admitting prod, deferring experimental — and
  paces experimental restores (:meth:`AdmissionController.decide_get`)
  on the combined read+write backlog while prod restores always admit.

Everything staged speaks one driving protocol: ``next()`` submits the
announced step and announces the following one, and the end is a
``StopIteration`` carrying the result. Staged generators
(``write_checkpoint_steps``, ``restore_steps``, :func:`read_steps`),
the staged transfers themselves and a primed :class:`StagedHandle` all
follow it, so :func:`drain` finishes any of them.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from ..errors import (
    ObjectExistsError,
    RetriesExhaustedError,
    StorageError,
    TransientStorageError,
)
from .bandwidth import TIER_PROD, Transfer, projected_queue_delay_s
from .requests import (
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    OpCostModel,
    OpReceipt,
    StorageRequest,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .object_store import ObjectStore

T = TypeVar("T")

#: Valid admission-controller modes (write side).
ADMISSION_MODES = ("none", "static", "dynamic")

#: Valid read-side (restore) admission modes: reads have no static cap
#: — a restore is never optional, only *paceable*.
READ_ADMISSION_MODES = ("none", "dynamic")

#: The price of an untimed probe: no latency, no bytes — and, having no
#: jitter or tail, no draw from the backend's latency RNG.
_FREE = OpCostModel()

# ----------------------------------------------------------------------
# Worker pool (real threads; shared across engines)
# ----------------------------------------------------------------------

#: One process-wide pool: engines are created per store and stores are
#: created by the hundreds in tests — per-engine executors would leak
#: threads. Accounting stays per-engine.
_POOL_LOCK = threading.Lock()
_POOL: ThreadPoolExecutor | None = None


def _shared_pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=4, thread_name_prefix="repro-engine"
            )
        return _POOL


class PoolTask:
    """Handle on one background task with wall-time accounting.

    ``result()`` measures how long the caller actually *blocked*; the
    task body measures how long it ran. Their difference is the wall
    time the pool hid behind the caller's own work — the measured
    counterpart of the simulated quantization lane's overlap.
    """

    def __init__(self, engine: "TransferEngine", future) -> None:
        self._engine = engine
        self._future = future

    def result(self) -> object:
        start = time.perf_counter()
        try:
            return self._future.result()
        finally:
            waited = time.perf_counter() - start
            with self._engine._pool_lock:
                self._engine.pool_wait_s += waited


# ----------------------------------------------------------------------
# Staged transfers: announce -> submit -> receipt
# ----------------------------------------------------------------------


def split_parts(
    size: int, window: int | None
) -> tuple[tuple[int, int], ...]:
    """The multipart / ranged-GET split rule: ``size`` logical bytes
    as ``[start, stop)`` parts of at most ``window`` bytes — one part
    when there is no window or the bytes fit it."""
    if window is None or size <= window:
        return ((0, size),)
    return tuple(
        (start, min(start + window, size))
        for start in range(0, size, window)
    )


class _StagedTransfer:
    """One transfer announced as parts, submitted one part at a time.

    The direction-independent half of :class:`StagedPut` and
    :class:`StagedGet`: part planning, the submission guard, how a
    request is timed on the link (single-shot, or fanned over the
    backend's request lanes), the transfer log, the arbiter's served
    bytes and the final :class:`OpReceipt`. A direction supplies the
    class constants below and the ``_request`` / ``_landed`` hooks, and
    overrides ``_physical`` / ``_close_parts`` / ``_rollback`` where it
    differs.

    Between submissions the unsubmitted parts count toward the engine's
    queued-byte backlog (the admission controller's signal), and
    another stream's parts may claim the link; this stream's lanes
    simply queue behind them.
    """

    #: Request op class and the transfer log's name for it.
    op: str
    kind: str
    #: How a part is named in log keys and labels: ``#part3`` is
    #: 1-based (S3 style), ``#range2`` 0-based.
    part_word: str
    part_base: int

    def __init__(
        self,
        engine: "TransferEngine",
        key: str,
        earliest: float | None,
        stream: str,
    ) -> None:
        if not key:
            raise StorageError("object key must be non-empty")
        self.engine = engine
        self.store = engine.store
        self.key = key
        self.stream = stream
        #: Earliest simulated time the next part could be submitted.
        self.next_ready_s = max(self.store.clock.now, earliest or 0.0)
        self.receipt: OpReceipt | None = None
        self.aborted = False
        self._next = 0
        self._started: float | None = None
        self._first_byte: float | None = None
        self._lane_free: list[float] = []
        self._retries = 0

    def _announce(self, size: int, window: int | None) -> None:
        """Plan ``size`` logical bytes as parts of at most ``window``
        bytes (:func:`split_parts`) and join the engine's backlog."""
        self.size = size
        self.parts = split_parts(size, window)
        self.engine._staged.append(self)

    # -- introspection -------------------------------------------------

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def next_part_number(self) -> int:
        return min(self._next + 1, self.num_parts)

    @property
    def done(self) -> bool:
        return self.receipt is not None

    @property
    def remaining_bytes(self) -> int:
        """Physical bytes announced but not yet on the link."""
        if self.done or self.aborted:
            return 0
        return self._physical(
            sum(stop - start for start, stop in self.parts[self._next :])
        )

    # -- direction hooks -----------------------------------------------

    def _physical(self, logical: int) -> int:
        """Link bytes ``logical`` payload bytes occupy."""
        return logical

    def _request(
        self, index: int, cost: OpCostModel
    ) -> tuple[int, int, float, float]:
        """Issue part ``index``'s backend request through the retry
        loop; returns ``(logical bytes moved, retries, penalty_s,
        latency_s)``."""
        raise NotImplementedError

    def _close_parts(self, cost: OpCostModel, lanes_done_s: float) -> float:
        """After the last of several parts: the completion time, given
        when the last lane finished."""
        return lanes_done_s

    def _landed(self, receipt: OpReceipt) -> None:
        """Book the finished transfer in the store."""
        raise NotImplementedError

    def _rollback(self) -> None:
        """Undo what staging and the submitted parts left behind."""

    # -- submission ----------------------------------------------------

    def _submit(self) -> OpReceipt | None:
        """Issue the next announced part request.

        Returns ``None`` while parts remain and the final receipt with
        the last part. Any failure (transient retries exhausted, a
        crashing backend) aborts the transfer first.
        """
        if self.receipt is not None:
            return self.receipt
        if self.aborted:
            raise StorageError(
                f"staged {self.op} {self.key!r} was already aborted"
            )
        try:
            if len(self.parts) > 1:
                receipt = self._submit_part()
            else:
                receipt = self._submit_single()
            if receipt is not None:
                self.receipt = receipt
                self._landed(receipt)
                self.engine._staged.remove(self)
        except Exception:
            self.abort()
            raise
        return receipt

    def __iter__(self) -> "_StagedTransfer":
        return self

    def __next__(self) -> "_StagedTransfer":
        """The staged driving protocol: submit the announced part; the
        last one ends the iteration with the receipt."""
        receipt = self.submit_next()
        if receipt is not None:
            raise StopIteration(receipt)
        return self

    def _record(self, key: str, physical: int, span) -> None:
        store = self.store
        store.log.record(
            Transfer(
                key, physical, span.start, span.end, self.kind, self.stream
            )
        )
        if store.arbiter is not None and self.stream:
            store.arbiter.on_transfer(self.stream, physical, self.kind)

    def _final_receipt(self, moved: int, **times: object) -> OpReceipt:
        return OpReceipt(
            op=self.op,
            key=self.key,
            logical_bytes=moved,
            physical_bytes=self._physical(moved),
            issued_s=self.next_ready_s,
            stream=self.stream,
            **times,
        )

    def _submit_single(self) -> OpReceipt:
        """One request: latency + bytes, serialised on the link."""
        store = self.store
        cost = store.cost_for(self.op, self.key, self.size)
        moved, retries, penalty, latency = self._request(0, cost)
        physical = self._physical(moved)
        span = store.timeline.submit(
            penalty + latency + cost.transfer_s(physical),
            earliest=self.next_ready_s,
        )
        self._record(self.key, physical, span)
        self._next = 1
        return self._final_receipt(
            moved,
            start_s=span.start,
            first_byte_s=min(span.start + penalty + latency, span.end),
            completed_s=span.end,
            retries=retries,
        )

    def _submit_part(self) -> OpReceipt | None:
        """One part request of several; the last one also completes.

        Parts round-robin over ``backend.fanout`` request lanes: a
        lane's next part cannot issue before its previous part's bytes
        finished, but *different* lanes' request latencies overlap the
        link's byte time — with fanout > 1 only the first part's
        latency is exposed, the amortisation multipart uploads and
        ranged reads exist for.
        """
        store = self.store
        cost = store.cost_for(self.op, self.key, self.size)
        fanout = max(1, store.backend.fanout)
        index = self._next
        if index == 0:
            # Occupancy starts when the link could serve this op
            # (queueing behind earlier transfers is queue_s, not
            # duration_s — the same semantics single-shot receipts
            # carry).
            self._started = max(self.next_ready_s, store.timeline.free_at)
            self._lane_free = [self._started] * fanout
        moved, retries, penalty, latency = self._request(index, cost)
        self._retries += retries
        physical = self._physical(moved)
        lane = index % fanout
        number = index + self.part_base
        span = store.timeline.submit(
            cost.transfer_s(physical),
            earliest=self._lane_free[lane] + penalty + latency,
        )
        self._lane_free[lane] = span.end
        if self._first_byte is None:
            self._first_byte = span.start
        self._record(
            f"{self.key}#{self.part_word}{number}", physical, span
        )
        self._next += 1
        if self._next < len(self.parts):
            return None
        return self._final_receipt(
            self.size,
            start_s=self._started,
            first_byte_s=self._first_byte,
            completed_s=self._close_parts(cost, max(self._lane_free)),
            parts=len(self.parts),
            retries=self._retries,
        )

    def abort(self) -> None:
        """Abandon the transfer: roll back what it left behind and
        release its queued bytes from the backlog signal."""
        if self.receipt is not None or self.aborted:
            return
        self.aborted = True
        self._rollback()
        self.engine._staged.remove(self)


class StagedPut(_StagedTransfer):
    """A PUT announced as multipart parts, submitted one at a time.

    Returned by ``ObjectStore.stage_put``. Quota is charged at stage
    time (before any link time is spent);
    against a backend advertising ``part_size_bytes`` a larger payload
    uploads through the multipart protocol, and the last
    :meth:`submit_next` also issues the completion request and commits
    the store's accounting. :meth:`abort` cancels an in-flight upload:
    no visible object, no orphaned parts, quota credited back.
    """

    op = OP_PUT
    kind = "put"
    part_word = "part"
    part_base = 1

    def __init__(
        self,
        engine: "TransferEngine",
        key: str,
        data: bytes,
        *,
        earliest: float | None = None,
        stream: str = "",
    ) -> None:
        super().__init__(engine, key, earliest, stream)
        store = self.store
        if engine.retry_probe(OP_HEAD, key):
            raise ObjectExistsError(f"object {key!r} already exists")
        self.data = data
        previous = self._physical(store._sizes.get(key, 0))
        self.charged = self._physical(len(data)) - previous
        if store.arbiter is not None and stream:
            store.arbiter.admit_put(stream, self.charged)
        self._upload_id: str | None = None
        self._announce(len(data), store.backend.part_size_bytes)

    def submit_next(self) -> OpReceipt | None:
        """Issue the next announced part request; ``None`` while parts
        remain, the final receipt once the object is visible. Any
        failure aborts the upload first — no partial object ever
        becomes visible."""
        return self._submit()

    def _physical(self, logical: int) -> int:
        return logical * self.store.config.replication_factor

    def _request(
        self, index: int, cost: OpCostModel
    ) -> tuple[int, int, float, float]:
        backend = self.store.backend
        start, stop = self.parts[index]
        if len(self.parts) == 1:
            request = StorageRequest(
                OP_PUT, self.key, self.size, stream=self.stream
            )
            call = partial(backend.put_object, request, self.data)
        else:
            if self._upload_id is None:
                self._upload_id = backend.create_multipart(self.key)
            call = partial(
                backend.upload_part,
                self._upload_id,
                index + 1,
                self.data[start:stop],
            )
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_PUT, call, cost=cost
        )
        return stop - start, retries, penalty, latency

    def _close_parts(self, cost: OpCostModel, lanes_done_s: float) -> float:
        # The completion request publishes the object: one more
        # PUT-class latency, control-plane only (no link bytes).
        _, retries, penalty, latency = self.engine.attempt_request(
            OP_PUT,
            partial(self.store.backend.complete_multipart, self._upload_id),
            cost=cost,
        )
        self._retries += retries
        self._upload_id = None
        return lanes_done_s + penalty + latency

    def _landed(self, receipt: OpReceipt) -> None:
        self.store._commit_put(self.key, self.size, receipt)

    def _rollback(self) -> None:
        # Parts already uploaded become unreachable, the object never
        # becomes visible, and the quota charge goes back to the stream.
        if self._upload_id is not None:
            self.store.backend.abort_multipart(self._upload_id)
            self._upload_id = None
        if self.store.arbiter is not None and self.stream:
            self.store.arbiter.credit_delete(self.stream, self.charged)


class StagedGet(_StagedTransfer):
    """A GET announced as ranged parts, submitted one at a time.

    Returned by ``ObjectStore.stage_get``. Against a backend
    advertising ``range_get_bytes``, a whole-object read of a larger
    object of known size splits into ranged sub-GETs; anything else is
    a single part. The last :meth:`submit_next` records the receipt in
    the store's op log, after which :meth:`data` holds the bytes.
    Aborting rolls nothing back server-side — GETs mutate no state.
    """

    op = OP_GET
    kind = "get"
    part_word = "range"
    part_base = 0

    def __init__(
        self,
        engine: "TransferEngine",
        key: str,
        *,
        earliest: float | None = None,
        stream: str = "",
    ) -> None:
        super().__init__(engine, key, earliest, stream)
        store = self.store
        known = store._sizes.get(key)
        # The announced byte count feeds the queued-read backlog
        # signal, so an object of unknown size announces 0 until its
        # bytes arrive.
        if known is not None:
            self._announce(known, store.backend.range_get_bytes)
        else:
            self._announce(0, None)
        #: The byte range each part's request asks for.
        self._ranges: tuple[tuple[int, int] | None, ...] = (
            self.parts if len(self.parts) > 1 else (None,)
        )
        self._pieces: list[bytes] = []

    def submit_next(self) -> OpReceipt | None:
        """Issue the next announced ranged (or whole-object) request;
        ``None`` while parts remain, the final receipt with the last."""
        return self._submit()

    def data(self) -> bytes:
        """The assembled object bytes (only once ``done``)."""
        if self.receipt is None:
            raise StorageError(
                f"staged GET {self.key!r} has unsubmitted parts"
            )
        return b"".join(self._pieces)

    def _request(
        self, index: int, cost: OpCostModel
    ) -> tuple[int, int, float, float]:
        request = StorageRequest(
            OP_GET,
            self.key,
            stream=self.stream,
            byte_range=self._ranges[index],
        )
        data, retries, penalty, latency = self.engine.attempt_request(
            OP_GET, partial(self.store.backend.get_object, request), cost=cost
        )
        self._pieces.append(data)
        return len(data), retries, penalty, latency

    def _landed(self, receipt: OpReceipt) -> None:
        self.store.ops.record(receipt)


# ----------------------------------------------------------------------
# Driving staged work: steps, handles, drain
# ----------------------------------------------------------------------


def drain(staged: Iterator) -> object:
    """Advance anything staged until it finishes; returns its result.

    Submissions go back to back, so the timing is that of the same
    work with no other stream's traffic in between.
    """
    while True:
        try:
            next(staged)
        except StopIteration as stop:
            return stop.value


def read_steps(staged: StagedGet):
    """Generator: announce each part of ``staged``, then submit it.

    Yields a :class:`TransferStep` *before* every part request —
    resuming performs the submission — and returns
    ``(bytes, completed_s)`` where ``completed_s`` is the read's
    receipt completion time.
    """
    while not staged.done:
        yield TransferStep(
            key=staged.key,
            ready_s=staged.next_ready_s,
            part_index=staged.next_part_number,
            num_parts=staged.num_parts,
        )
        staged.submit_next()
    return staged.data(), staged.receipt.completed_s


@dataclass(frozen=True)
class TransferStep:
    """One pending request of a staged transfer, announced before it.

    Staged writers (``CheckpointWriter.write_checkpoint_steps``) and
    readers (:func:`read_steps`, and through it
    ``CheckpointRestorer.restore_steps``, the publisher's poll and the
    inference server's lookup and flip) yield a ``TransferStep``
    *before* each PUT or GET request; resuming the generator performs
    it. Against a multipart / ranged-GET backend one object yields one
    step per *part* (``part_index`` of ``num_parts``); elsewhere a step
    is a whole object. ``ready_s`` is the earliest simulated time the
    request could start (for a chunk PUT, its quantization-finish time
    on the CPU lane); event loops use it to interleave the parts of
    every transfer sharing the link. ``kind`` is ``"chunk"``,
    ``"dense"`` or ``"manifest"`` for a write, ``"read"`` for a read.
    """

    key: str
    ready_s: float
    part_index: int = 1
    num_parts: int = 1
    kind: str = "read"


@dataclass
class StagedHandle:
    """A staged generator in flight, primed on construction.

    ``next_step`` announces the upcoming submission (and its earliest
    start time) before it happens; :meth:`advance` performs it and
    announces the one after. Event loops interleave ``advance`` calls
    of many handles in ``next_step.ready_s`` order; :func:`drain`
    finishes one immediately. ``result`` is the generator's return
    value once ``done``.
    """

    steps: Iterator
    next_step: object | None = field(default=None, init=False)
    result: object | None = field(default=None, init=False)
    done: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self.advance()  # prime: run up to the first announcement

    def __iter__(self) -> "StagedHandle":
        return self

    def __next__(self) -> object:
        if self.done:
            raise StopIteration(self.result)
        try:
            self.next_step = next(self.steps)
        except StopIteration as stop:
            self.next_step = None
            self.result = stop.value
            self.done = True
            raise
        return self.next_step

    def advance(self) -> object | None:
        """Submit the announced step and announce the next one.

        Returns the new pending step, or ``None`` once the generator
        has finished and ``result`` is available.
        """
        return next(self, None)


class TransferEngine:
    """Owns staged parts, retries, the worker pool, and backlog signals
    for one :class:`~repro.storage.object_store.ObjectStore`."""

    def __init__(self, store: "ObjectStore") -> None:
        self.store = store
        self.max_retries = store.config.max_retries
        self.retry_backoff_s = store.config.retry_backoff_s
        #: Every staged transfer with parts still awaiting submission,
        #: both directions, in announcement order.
        self._staged: list[_StagedTransfer] = []
        #: Successful-request retry ledger per op class (probe retries
        #: included; receipts carry the per-request counts).
        self.retries_by_op: dict[str, int] = {}
        self._pool_lock = threading.Lock()
        self.pool_tasks = 0
        self.pool_busy_s = 0.0
        self.pool_wait_s = 0.0

    # -- backlog signals -----------------------------------------------

    def staged(self) -> list[_StagedTransfer]:
        """Staged transfers with parts still awaiting submission."""
        return list(self._staged)

    def queued_bytes(self, op: str) -> int:
        """Physical bytes of ``op`` transfers announced (staged) but
        not yet on the link."""
        return sum(s.remaining_bytes for s in self._staged if s.op == op)

    def projected_queue_delay_s(self, now: float) -> float:
        """The backlog signal: link busy time past ``now`` plus the
        service time of every queued (announced, unsubmitted) part."""
        return projected_queue_delay_s(
            self.store.timeline.free_at,
            now,
            self.queued_bytes(OP_PUT),
            self.store.costs.for_op(OP_PUT).seconds_per_byte,
        )

    def projected_restore_delay_s(self, now: float) -> float:
        """The read-side backlog signal: link busy time past ``now``
        plus the service time of every queued part on *either* side of
        the link — staged write parts at the PUT byte rate and staged
        read parts at the GET byte rate. A restore queues behind both,
        so the read-side admission controller paces on their sum."""
        write_backlog = self.projected_queue_delay_s(now)
        return write_backlog + self.queued_bytes(OP_GET) * (
            self.store.costs.for_op(OP_GET).seconds_per_byte
        )

    # -- retry / backoff -----------------------------------------------

    def attempt_request(
        self, op: str, call: Callable[[], T], cost=None
    ) -> tuple[T, int, float, float]:
        """Issue one backend request through the retry/backoff loop.

        Returns ``(result, retries, penalty_s, latency_s)``:
        ``penalty_s`` is the simulated time the failed attempts cost
        (each wasted attempt's request latency plus exponential
        backoff) and ``latency_s`` the successful attempt's request
        latency — callers add both to the op's timed duration. Raises
        :class:`RetriesExhaustedError` once ``max_retries`` re-issues
        all failed transiently.

        ``cost`` overrides the op-class cost model the request's
        latency draws from — callers that price per *request* (a cache
        tier's hit/miss pricing via ``store.cost_for``, the cache's
        far-tier flushes) pass the resolved model; ``None`` keeps the
        store-level suite.
        """
        if cost is None:
            cost = self.store.costs.for_op(op)
        rng = self.store._rng
        retries = 0
        penalty = 0.0
        while True:
            latency = cost.latency_s(rng)
            try:
                result = call()
            except TransientStorageError as exc:
                if retries >= self.max_retries:
                    raise RetriesExhaustedError(
                        f"{op} request failed transiently "
                        f"{retries + 1} times (retry budget "
                        f"{self.max_retries}): {exc}"
                    ) from exc
                penalty += latency + self.retry_backoff_s * (2.0**retries)
                retries += 1
                continue
            if retries:
                self.retries_by_op[op] = (
                    self.retries_by_op.get(op, 0) + retries
                )
            return result, retries, penalty, latency

    def retry_probe(
        self, op: str, key: str, data: bytes | None = None
    ) -> Any:
        """One untimed backend request of class ``op`` on ``key``.

        For metadata work that must not perturb the simulated link —
        the overwrite check inside ``put``, resume-plan vetting, the
        operator-plane scan / scrub / quarantine: the same retry budget
        as a timed request and the retries booked under ``op``, but no
        simulated cost and no draw from the latency RNG. Returns what
        the backend returned: the bytes (GET), presence (HEAD), the
        keys under ``key`` as a prefix (LIST), ``None`` for a PUT of
        ``data``.
        """
        backend = self.store.backend
        request = StorageRequest(op, key, len(data) if op == OP_PUT else 0)
        if op == OP_HEAD:
            call = partial(backend.head_object, request)
        elif op == OP_GET:
            call = partial(backend.get_object, request)
        elif op == OP_LIST:
            call = partial(backend.list_objects, request)
        elif op == OP_PUT:
            call = partial(backend.put_object, request, data)
        else:
            raise StorageError(f"no untimed probe of class {op!r}")
        return self.attempt_request(op, call, cost=_FREE)[0]

    # -- worker pool ---------------------------------------------------

    def _booked(
        self, fn: Callable[..., T], args: tuple, waited: bool = False
    ) -> T:
        """Run ``fn(*args)`` here and book it: one task, its seconds
        busy and — for a task its caller ran itself — waited too."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            busy = time.perf_counter() - start
            with self._pool_lock:
                self.pool_tasks += 1
                self.pool_busy_s += busy
                if waited:
                    self.pool_wait_s += busy

    def submit_task(self, fn: Callable[..., T], *args: object) -> PoolTask:
        """Run ``fn(*args)`` on the background worker pool.

        The checkpoint writer submits chunk quantization here so the
        measured wall time overlaps the caller's own encode/submit
        work, like the simulated quantization lane overlaps the
        storage timeline.
        """
        return PoolTask(self, _shared_pool().submit(self._booked, fn, args))

    def run_task(self, fn: Callable[..., T], *args: object) -> T:
        """Run ``fn(*args)`` on the *calling* thread, booked as a task.

        For work the caller would block on at once (the writer's head
        chunk: nothing to overlap it with, so a pool round-trip only
        adds a thread hop). It counts as a task whose whole duration
        the caller both worked and waited, so :attr:`pool_overlap_s`
        never claims overlap that did not happen.
        """
        return self._booked(fn, args, waited=True)

    @property
    def pool_overlap_s(self) -> float:
        """Measured seconds of pool work hidden behind caller progress
        (task busy time minus time callers actually blocked waiting)."""
        with self._pool_lock:
            return max(0.0, self.pool_busy_s - self.pool_wait_s)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one checkpoint-trigger admission check."""

    admitted: bool
    reason: str  # "admitted", "static_cap", "backlog", "read_backlog"
    projected_delay_s: float
    threshold_s: float | None = None


class AdmissionController:
    """Decides whether a checkpoint trigger may start writing now.

    Three modes:

    * ``"none"`` — every trigger is admitted (no control);
    * ``"static"`` — a fixed cap: defer whenever
      ``active_writes >= max_concurrent``
      (``FleetConfig.max_concurrent_writes``), tier-blind;
    * ``"dynamic"`` — backlog-driven: prod triggers are always
      admitted; an experimental trigger is deferred when the engine's
      projected queue delay (link busy time plus queued part bytes)
      exceeds ``backlog_factor`` x the job's own checkpoint interval.
      A checkpoint that would queue longer than the interval it covers
      is stale before it lands — deferring it sheds load exactly when
      the shared store is saturated.

    The *read side* (``read_mode``, :meth:`decide_get`) paces restores
    instead of skipping them — a restore is never optional, so there is
    no static cap and a deferral means "wait out the backlog", not
    "drop the read". In ``"dynamic"`` read mode an experimental
    restore is deferred while the engine's projected *restore* delay
    (write backlog plus queued read parts) exceeds
    ``read_backlog_factor`` x the job's checkpoint interval; prod
    restores always admit, preserving the storm's prod-first drain.
    """

    def __init__(
        self,
        engine: TransferEngine,
        mode: str = "none",
        max_concurrent: int | None = None,
        backlog_factor: float = 1.0,
        read_mode: str = "none",
        read_backlog_factor: float = 1.0,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise StorageError(
                f"unknown admission mode {mode!r}; valid: "
                f"{ADMISSION_MODES}"
            )
        if read_mode not in READ_ADMISSION_MODES:
            raise StorageError(
                f"unknown read admission mode {read_mode!r}; valid: "
                f"{READ_ADMISSION_MODES}"
            )
        if mode == "static" and (
            max_concurrent is None or max_concurrent < 1
        ):
            raise StorageError(
                "static admission mode needs max_concurrent >= 1"
            )
        if backlog_factor <= 0:
            raise StorageError("backlog_factor must be > 0")
        if read_backlog_factor <= 0:
            raise StorageError("read_backlog_factor must be > 0")
        self.engine = engine
        self.mode = mode
        self.read_mode = read_mode
        self.max_concurrent = max_concurrent
        self.backlog_factor = backlog_factor
        self.read_backlog_factor = read_backlog_factor

    def decide(
        self,
        *,
        tier: str,
        now: float,
        interval_s: float | None = None,
        active_writes: int = 0,
    ) -> AdmissionDecision:
        """Admit or defer one checkpoint trigger.

        ``interval_s`` is the job's measured checkpoint interval (None
        on its first trigger, which is always admitted in dynamic
        mode); ``active_writes`` feeds the static cap. The caller
        counts deferrals (``FleetJob.admission_deferred``).
        """
        projected = self.engine.projected_queue_delay_s(now)
        if self.mode == "static":
            assert self.max_concurrent is not None
            if active_writes >= self.max_concurrent:
                return AdmissionDecision(False, "static_cap", projected)
        elif self.mode == "dynamic":
            if tier != TIER_PROD and interval_s is not None:
                threshold = self.backlog_factor * interval_s
                if projected > threshold:
                    return AdmissionDecision(
                        False, "backlog", projected, threshold
                    )
        return AdmissionDecision(True, "admitted", projected)

    def decide_get(
        self,
        *,
        tier: str,
        now: float,
        interval_s: float | None = None,
    ) -> AdmissionDecision:
        """Admit or defer one restore (read-side pacing).

        A deferred decision carries the projection and threshold so the
        caller can wait out exactly ``projected - threshold`` seconds
        and then proceed — restores are paced, never dropped.
        ``interval_s`` is the job's measured checkpoint interval (None
        before the second trigger, which always admits).
        """
        projected = self.engine.projected_restore_delay_s(now)
        if (
            self.read_mode == "dynamic"
            and tier != TIER_PROD
            and interval_s is not None
        ):
            threshold = self.read_backlog_factor * interval_s
            if projected > threshold:
                return AdmissionDecision(
                    False, "read_backlog", projected, threshold
                )
        return AdmissionDecision(True, "admitted", projected)
