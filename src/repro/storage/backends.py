"""Byte-storage backends behind the request-oriented storage API.

A backend serves classed :class:`~repro.storage.requests.StorageRequest`
operations — ``put_object`` / ``get_object`` / ``head_object`` /
``delete_object`` / ``list_objects`` plus the batch ``delete_prefix`` —
and *owns its per-op-class cost models* (an
:class:`~repro.storage.requests.OpCostSuite`). The timed
:class:`~repro.storage.object_store.ObjectStore` asks the backend what
each request costs and serialises the data-plane time on the shared
link; backends themselves move bytes instantly.

The in-process backends (:class:`InMemoryBackend`, :class:`FileBackend`,
:class:`MirroredBackend`) ship with ``costs=None``: the store prices
them from its config — one fixed latency plus the write and read link
bandwidths, metadata requests free. The S3-style
:class:`~repro.storage.remote.RemoteObjectBackend` instead carries its
own per-class latencies, multipart upload and ranged-GET windows.

Everything the store asks of a backend beyond the five request methods
— ``costs``, the multipart / ranged-GET capabilities, the latency
``rng``, per-request :meth:`Backend.cost_model` pricing and
:meth:`Backend.attach_engine` — is declared on :class:`Backend` with
the default a plain backend wants, so wrappers
(:class:`CrashingBackend`, the cache tier) forward members instead of
probing for them.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ObjectNotFoundError, StorageError
from .requests import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    OpCostModel,
    OpCostSuite,
    StorageRequest,
    clip_range,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import TransferEngine


class Backend(ABC):
    """Request-oriented key -> bytes storage interface."""

    #: Per-op-class cost models. ``None`` defers to the store's
    #: config-derived suite (fixed latency + link bandwidths).
    costs: OpCostSuite | None = None
    #: Multipart upload part size; ``None`` disables multipart (the
    #: store uploads every object single-shot).
    part_size_bytes: int | None = None
    #: Parallel upload lanes for multipart parts / ranged sub-GETs.
    #: Per-part request latency overlaps across lanes while the link
    #: serialises bytes, which is what amortises per-part latency.
    fanout: int = 1
    #: Split GETs larger than this into ranged sub-GETs; ``None``
    #: fetches whole objects.
    range_get_bytes: int | None = None
    #: RNG the cost models' jitter/tail draws come from; ``None`` for
    #: backends whose latencies are deterministic.
    rng: np.random.Generator | None = None

    def cost_model(
        self, op: str, key: str, nbytes: int = 0
    ) -> OpCostModel | None:
        """The price of one specific request, for backends that price
        per *request* (a cache tier's hit or miss) rather than per op
        class; ``None`` defers to the store-level suite."""
        return None

    def attach_engine(self, engine: "TransferEngine") -> None:
        """Called once by the owning store: backends that issue
        requests of their own (the cache tier's dirty flushes) keep
        the engine for its retry/backoff loop."""

    # -- request-oriented data plane -----------------------------------

    @abstractmethod
    def put_object(self, request: StorageRequest, data: bytes) -> None:
        """Store ``data`` under ``request.key`` (overwrite allowed)."""

    @abstractmethod
    def get_object(self, request: StorageRequest) -> bytes:
        """Fetch ``request.key`` (honouring ``request.byte_range``);
        raises :class:`ObjectNotFoundError` if absent."""

    @abstractmethod
    def head_object(self, request: StorageRequest) -> bool:
        """Whether ``request.key`` is present."""

    @abstractmethod
    def delete_object(self, request: StorageRequest) -> None:
        """Remove ``request.key``; raises :class:`ObjectNotFoundError`
        if absent."""

    @abstractmethod
    def list_objects(self, request: StorageRequest) -> list[str]:
        """All keys with prefix ``request.key``, sorted."""

    def delete_prefix(self, request: StorageRequest) -> list[str]:
        """Batch-remove every key under a prefix; returns the keys.

        One LIST followed by per-key DELETEs — the cost the store
        charges mirrors that shape (a single LIST plus N DELETE under
        the cost model). Backends with a cheaper native bulk delete may
        override.
        """
        keys = self.list_objects(
            StorageRequest(OP_LIST, request.key, stream=request.stream)
        )
        for key in keys:
            self.delete_object(
                StorageRequest(OP_DELETE, key, stream=request.stream)
            )
        return keys


class InMemoryBackend(Backend):
    """Dict-backed storage; the default for simulations and tests."""

    def __init__(self, costs: OpCostSuite | None = None) -> None:
        self.costs = costs
        self._objects: dict[str, bytes] = {}

    def put_object(self, request: StorageRequest, data: bytes) -> None:
        self._objects[request.key] = bytes(data)

    def get_object(self, request: StorageRequest) -> bytes:
        try:
            data = self._objects[request.key]
        except KeyError:
            raise ObjectNotFoundError(
                f"no object {request.key!r}"
            ) from None
        return clip_range(data, request.byte_range)

    def head_object(self, request: StorageRequest) -> bool:
        return request.key in self._objects

    def delete_object(self, request: StorageRequest) -> None:
        if request.key not in self._objects:
            raise ObjectNotFoundError(f"no object {request.key!r}")
        del self._objects[request.key]

    def list_objects(self, request: StorageRequest) -> list[str]:
        return sorted(
            k for k in self._objects if k.startswith(request.key)
        )


class FileBackend(Backend):
    """Filesystem-backed storage rooted at a directory.

    Keys may contain ``/`` which map to subdirectories. Writes are
    atomic (write to a temp name, then rename) so a crashed writer never
    leaves a half-written object visible: until the ``os.replace`` the
    only artifact is a ``.tmp`` file that reads and listings ignore.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not key or key.startswith("/") or ".." in key.split("/"):
            raise StorageError(f"invalid object key {key!r}")
        return self.root / key

    def put_object(self, request: StorageRequest, data: bytes) -> None:
        path = self._path(request.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def get_object(self, request: StorageRequest) -> bytes:
        path = self._path(request.key)
        if not path.is_file():
            raise ObjectNotFoundError(f"no object {request.key!r}")
        return clip_range(path.read_bytes(), request.byte_range)

    def head_object(self, request: StorageRequest) -> bool:
        return self._path(request.key).is_file()

    def delete_object(self, request: StorageRequest) -> None:
        path = self._path(request.key)
        if not path.is_file():
            raise ObjectNotFoundError(f"no object {request.key!r}")
        path.unlink()

    def list_objects(self, request: StorageRequest) -> list[str]:
        keys = []
        for path in self.root.rglob("*"):
            if path.is_file() and not path.name.endswith(".tmp"):
                key = str(path.relative_to(self.root))
                if key.startswith(request.key):
                    keys.append(key)
        return sorted(keys)


def corrupt_stored_object(
    backend: Backend, key: str, offset: int = 0
) -> None:
    """Flip one bit of a stored object in place (targeted bit rot).

    Deterministic injection for integrity tests and benches: the low
    bit of the byte at ``offset`` (negative offsets count from the end)
    flips. The object's length is unchanged, so only digest/CRC
    verification can catch the damage.
    """
    data = bytearray(backend.get_object(StorageRequest(OP_GET, key)))
    if not data:
        raise StorageError(f"cannot bit-rot empty object {key!r}")
    data[offset % len(data)] ^= 0x01
    backend.put_object(StorageRequest(OP_PUT, key, len(data)), bytes(data))


class CrashingBackend(Backend):
    """Wraps a backend and injects write-path faults: crashes, bit rot.

    ``arm(n)`` makes the *n*-th subsequent PUT-class request raise
    :class:`StorageError` before touching the inner backend — the
    simulation equivalent of a node dying between two PUTs. Crash
    tests use it to leave a checkpoint's chunks on storage without its
    manifest and assert the restore path skips the torn checkpoint.

    ``arm_bitrot(prob, seed)`` instead flips one seeded byte of a
    PUT-class payload with probability ``prob`` per write — silent
    media corruption: the write *succeeds* and only integrity
    verification (sha256 digests, CRC frames) can catch it later.
    Deterministic for a fixed seed and write sequence; corrupted keys
    are recorded in :attr:`bitrot_injected`.

    The wrapper is transparent to the store: cost models, multipart /
    ranged-GET capabilities and the jitter RNG all delegate to the
    inner backend, and multipart *part* uploads count as PUT-class
    writes — arming a crash mid-upload exercises the store's
    abort-multipart path exactly like a node death would.
    """

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self._writes_until_crash: int | None = None
        self._bitrot_prob = 0.0
        self._bitrot_rng: np.random.Generator | None = None
        #: Keys (chunk/manifest keys, or ``upload_id#partN`` for
        #: multipart parts) whose payload bytes were silently flipped.
        self.bitrot_injected: list[str] = []

    # -- capability/cost delegation ------------------------------------

    @property
    def costs(self) -> OpCostSuite | None:  # type: ignore[override]
        return self.inner.costs

    @property
    def part_size_bytes(self) -> int | None:  # type: ignore[override]
        return self.inner.part_size_bytes

    @property
    def fanout(self) -> int:  # type: ignore[override]
        return self.inner.fanout

    @property
    def range_get_bytes(self) -> int | None:  # type: ignore[override]
        return self.inner.range_get_bytes

    @property
    def rng(self) -> np.random.Generator | None:  # type: ignore[override]
        return self.inner.rng

    def cost_model(
        self, op: str, key: str, nbytes: int = 0
    ) -> OpCostModel | None:
        """Per-request pricing delegates to the inner backend (the
        cache tier's hit/miss refinement survives being wrapped)."""
        return self.inner.cost_model(op, key, nbytes)

    def attach_engine(self, engine: "TransferEngine") -> None:
        self.inner.attach_engine(engine)

    def arm(self, writes_until_crash: int) -> None:
        """Crash on the ``writes_until_crash``-th PUT from now (1-based)."""
        if writes_until_crash < 1:
            raise StorageError("writes_until_crash must be >= 1")
        self._writes_until_crash = writes_until_crash

    def disarm(self) -> None:
        self._writes_until_crash = None

    def arm_bitrot(self, prob: float, seed: int = 0xB17F) -> None:
        """Silently flip a seeded byte of each PUT with probability ``prob``."""
        if not 0.0 <= prob <= 1.0:
            raise StorageError("bit-rot probability must be in [0, 1]")
        self._bitrot_prob = prob
        self._bitrot_rng = np.random.default_rng(seed)

    def disarm_bitrot(self) -> None:
        self._bitrot_prob = 0.0
        self._bitrot_rng = None

    def corrupt_object(self, key: str, offset: int = 0) -> None:
        """Targeted bit rot: flip one byte of an already-stored object."""
        corrupt_stored_object(self.inner, key, offset=offset)
        self.bitrot_injected.append(key)

    def _maybe_rot(self, key: str, data: bytes) -> bytes:
        if (
            self._bitrot_rng is None
            or len(data) == 0
            or self._bitrot_rng.random() >= self._bitrot_prob
        ):
            return data
        rotted = bytearray(data)
        index = int(self._bitrot_rng.integers(len(rotted)))
        rotted[index] ^= 1 << int(self._bitrot_rng.integers(8))
        self.bitrot_injected.append(key)
        return bytes(rotted)

    def _count_write(self, key: str) -> None:
        if self._writes_until_crash is not None:
            self._writes_until_crash -= 1
            if self._writes_until_crash <= 0:
                self._writes_until_crash = None
                raise StorageError(
                    f"simulated crash before writing {key!r}"
                )

    def put_object(self, request: StorageRequest, data: bytes) -> None:
        self._count_write(request.key)
        self.inner.put_object(request, self._maybe_rot(request.key, data))

    # -- multipart control plane (delegated; parts count as writes) ----

    def create_multipart(self, key: str) -> str:
        return self.inner.create_multipart(key)

    def upload_part(
        self, upload_id: str, part_number: int, data: bytes
    ) -> None:
        part_key = f"{upload_id}#part{part_number}"
        self._count_write(part_key)
        self.inner.upload_part(
            upload_id, part_number, self._maybe_rot(part_key, data)
        )

    def complete_multipart(self, upload_id: str) -> None:
        self.inner.complete_multipart(upload_id)

    def abort_multipart(self, upload_id: str) -> None:
        self.inner.abort_multipart(upload_id)

    def get_object(self, request: StorageRequest) -> bytes:
        return self.inner.get_object(request)

    def head_object(self, request: StorageRequest) -> bool:
        return self.inner.head_object(request)

    def delete_object(self, request: StorageRequest) -> None:
        self.inner.delete_object(request)

    def list_objects(self, request: StorageRequest) -> list[str]:
        return self.inner.list_objects(request)


class MirroredBackend(Backend):
    """N synchronous replicas; reads fall through to any live replica.

    ``fail_replica`` simulates losing one replica's media — subsequent
    reads still succeed from the survivors, which is the availability
    argument for writing checkpoints to replicated remote storage
    rather than trainer-local disks.
    """

    def __init__(self, replicas: list[Backend]) -> None:
        if not replicas:
            raise StorageError("MirroredBackend needs at least one replica")
        self._replicas = list(replicas)
        self._failed: set[int] = set()

    @property
    def replication_factor(self) -> int:
        return len(self._replicas)

    def fail_replica(self, index: int) -> None:
        """Mark one replica as lost (its contents become unreachable)."""
        if not 0 <= index < len(self._replicas):
            raise StorageError(f"no replica {index}")
        self._failed.add(index)

    def _live(self) -> list[Backend]:
        live = [
            r
            for i, r in enumerate(self._replicas)
            if i not in self._failed
        ]
        if not live:
            raise StorageError("all replicas have failed")
        return live

    def put_object(self, request: StorageRequest, data: bytes) -> None:
        for replica in self._live():
            replica.put_object(request, data)

    def get_object(self, request: StorageRequest) -> bytes:
        last_error: ObjectNotFoundError | None = None
        for replica in self._live():
            try:
                return replica.get_object(request)
            except ObjectNotFoundError as exc:
                last_error = exc
        raise last_error or ObjectNotFoundError(
            f"no object {request.key!r}"
        )

    def head_object(self, request: StorageRequest) -> bool:
        return any(r.head_object(request) for r in self._live())

    def delete_object(self, request: StorageRequest) -> None:
        found = False
        head = StorageRequest(OP_HEAD, request.key, stream=request.stream)
        for replica in self._live():
            if replica.head_object(head):
                replica.delete_object(request)
                found = True
        if not found:
            raise ObjectNotFoundError(f"no object {request.key!r}")

    def list_objects(self, request: StorageRequest) -> list[str]:
        keys: set[str] = set()
        for replica in self._live():
            keys.update(replica.list_objects(request))
        return sorted(keys)
