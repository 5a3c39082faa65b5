"""Request-oriented storage primitives: op classes, costs, receipts.

Remote object storage is governed by *requests*, not byte moves: every
operation belongs to a class (PUT/GET/LIST/DELETE/HEAD), each class has
its own latency/throughput behaviour, and clients reason about wall
time per request — base latency, time-to-first-byte, per-byte streaming
time, occasional tail inflation. This module holds the vocabulary the
whole storage stack speaks:

* :class:`StorageRequest` — one classed operation (op, key, size,
  optional byte range, owning stream);
* :class:`OpCostModel` — the cost of one op class: base latency +
  per-byte time, with optional uniform jitter and a tail-latency mode;
* :class:`OpCostSuite` — the backend's full per-class cost table
  (one :class:`OpCostModel` per op class);
* :class:`OpReceipt` — the typed completion record every store
  operation returns: op class, bytes, issue/start/first-byte/completion
  times, part count (multipart PUTs / ranged GET fan-out), retries.

Backends own their cost suite (see
:class:`~repro.storage.backends.Backend`); the timed
:class:`~repro.storage.object_store.ObjectStore` turns costs into
timeline occupancy and receipts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import StorageError

#: Upload/overwrite an object's bytes (one part of a multipart upload
#: is costed as a PUT-class request too).
OP_PUT = "PUT"
#: Fetch an object's bytes (whole, or a byte range).
OP_GET = "GET"
#: Enumerate keys under a prefix; per-"byte" cost is per *key* listed.
OP_LIST = "LIST"
#: Remove one object.
OP_DELETE = "DELETE"
#: Existence/metadata probe; never moves payload bytes.
OP_HEAD = "HEAD"

#: Every op class, in the order reports print them.
OP_CLASSES = (OP_PUT, OP_GET, OP_LIST, OP_DELETE, OP_HEAD)

#: Op classes that move payload bytes over the shared link (the rest
#: are control-plane requests that only cost latency).
DATA_OPS = (OP_PUT, OP_GET)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StorageError(message)


@dataclass(frozen=True)
class StorageRequest:
    """One classed storage operation.

    ``nbytes`` is the payload size the request moves (0 for
    control-plane ops; number of keys for LIST). ``byte_range`` narrows
    a GET to ``[start, stop)`` of the object. ``key`` doubles as the
    prefix for LIST requests.
    """

    op: str
    key: str
    nbytes: int = 0
    stream: str = ""
    byte_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _require(
            self.op in OP_CLASSES,
            f"unknown op class {self.op!r}; valid: {OP_CLASSES}",
        )
        _require(self.nbytes >= 0, f"negative request size {self.nbytes}")
        if self.byte_range is not None:
            _require(self.op == OP_GET, "byte_range only applies to GET")
            start, stop = self.byte_range
            _require(
                0 <= start < stop,
                f"invalid byte range [{start}, {stop})",
            )


def clip_range(data: bytes, byte_range: tuple[int, int] | None) -> bytes:
    """Apply a request's byte range to an object's bytes.

    The range may overhang the object's end (S3 semantics: the response
    is truncated at the last byte), but must start inside it.
    """
    if byte_range is None:
        return data
    start, stop = byte_range
    if start >= len(data):
        raise StorageError(
            f"range start {start} beyond object of {len(data)} bytes"
        )
    return data[start:stop]


@dataclass(frozen=True)
class OpCostModel:
    """Wall-time cost of one op class.

    ``duration = base_latency + nbytes * seconds_per_byte``, optionally
    inflated by uniform jitter in ``[0, jitter_s)`` and, with
    probability ``tail_prob``, a tail event multiplying the base
    latency by ``tail_factor`` (the p99-style stragglers request-based
    stores exhibit). Randomness requires a caller-supplied generator so
    simulations stay deterministic under a seed.
    """

    base_latency_s: float = 0.0
    seconds_per_byte: float = 0.0
    jitter_s: float = 0.0
    tail_prob: float = 0.0
    tail_factor: float = 4.0

    def __post_init__(self) -> None:
        _require(self.base_latency_s >= 0, "base latency must be >= 0")
        _require(self.seconds_per_byte >= 0, "per-byte time must be >= 0")
        _require(self.jitter_s >= 0, "jitter must be >= 0")
        _require(0.0 <= self.tail_prob <= 1.0, "tail_prob in [0, 1]")
        _require(self.tail_factor >= 1.0, "tail_factor must be >= 1")

    @property
    def randomised(self) -> bool:
        return self.jitter_s > 0 or self.tail_prob > 0

    def latency_s(self, rng: np.random.Generator | None = None) -> float:
        """The request's fixed (pre-first-byte) latency component."""
        latency = self.base_latency_s
        if rng is not None and self.randomised:
            if self.jitter_s > 0:
                latency += float(rng.uniform(0.0, self.jitter_s))
            if self.tail_prob > 0 and rng.random() < self.tail_prob:
                latency += self.base_latency_s * (self.tail_factor - 1.0)
        return latency

    def transfer_s(self, nbytes: int) -> float:
        """The per-byte streaming component for ``nbytes``."""
        _require(nbytes >= 0, f"negative transfer size {nbytes}")
        return nbytes * self.seconds_per_byte

    def duration_s(self, nbytes: int) -> float:
        """Expected wall time of one request moving ``nbytes``: jitter
        and tail draws excluded."""
        return self.base_latency_s + self.transfer_s(nbytes)


@dataclass(frozen=True)
class OpCostSuite:
    """A backend's full cost table: one :class:`OpCostModel` per class."""

    put: OpCostModel = field(default_factory=OpCostModel)
    get: OpCostModel = field(default_factory=OpCostModel)
    list: OpCostModel = field(default_factory=OpCostModel)
    delete: OpCostModel = field(default_factory=OpCostModel)
    head: OpCostModel = field(default_factory=OpCostModel)

    def for_op(self, op: str) -> OpCostModel:
        try:
            return getattr(self, op.lower())
        except AttributeError:
            raise StorageError(f"unknown op class {op!r}") from None

    @classmethod
    def from_storage_config(cls, config) -> "OpCostSuite":
        """The flat model: one fixed latency, two bandwidths.

        PUT/GET carry the configured per-op latency and the link's
        per-byte time; LIST/DELETE/HEAD are free. What the store prices
        an in-process backend (``costs=None``) with.
        """
        return cls(
            put=OpCostModel(
                base_latency_s=config.latency_s,
                seconds_per_byte=1.0 / config.write_bandwidth,
            ),
            get=OpCostModel(
                base_latency_s=config.latency_s,
                seconds_per_byte=1.0 / config.read_bandwidth,
            ),
        )


@dataclass(frozen=True)
class OpReceipt:
    """Typed completion record of one store operation.

    Times are simulated seconds: ``issued_s`` (request handed to the
    store) <= ``start_s`` (the op began occupying/queueing resources)
    <= ``first_byte_s`` (payload bytes started moving) <=
    ``completed_s``. ``parts`` counts multipart-upload parts or ranged
    sub-GETs (1 for single-shot ops); ``retries`` counts re-issued
    requests (0 unless a backend injects failures).
    """

    op: str
    key: str
    logical_bytes: int
    physical_bytes: int
    issued_s: float
    start_s: float
    first_byte_s: float
    completed_s: float
    parts: int = 1
    retries: int = 0
    stream: str = ""

    @property
    def duration_s(self) -> float:
        """Occupancy time: start (incl. request latency) to completion."""
        return self.completed_s - self.start_s

    @property
    def throughput(self) -> float:
        """Physical bytes per second over the op's occupancy time."""
        if self.duration_s <= 0:
            return 0.0
        return self.physical_bytes / self.duration_s


class OpLog:
    """Ordered record of every op receipt a store issued."""

    def __init__(self) -> None:
        self._receipts: list[OpReceipt] = []

    def record(self, receipt: OpReceipt) -> None:
        self._receipts.append(receipt)

    def receipts(self, op: str | None = None) -> list[OpReceipt]:
        return [r for r in self._receipts if op is None or r.op == op]

    def count(self, op: str | None = None) -> int:
        return len(self.receipts(op))

    def mean_duration_s(self, op: str) -> float:
        receipts = self.receipts(op)
        if not receipts:
            return 0.0
        return sum(r.duration_s for r in receipts) / len(receipts)

    def total_retries(self, op: str | None = None) -> int:
        """Transient-failure retries summed over matching receipts."""
        return sum(r.retries for r in self.receipts(op))

    def retry_amplification(self, op: str | None = None) -> float:
        """Mean requests issued per successful operation.

        1.0 means no request was ever re-issued; an op class with
        failure probability *p* converges to 1 / (1 - p). The retry
        tax the engine pays the backend under transient failures.
        """
        receipts = self.receipts(op)
        if not receipts:
            return 1.0
        attempts = sum(1 + r.retries for r in receipts)
        return attempts / len(receipts)
