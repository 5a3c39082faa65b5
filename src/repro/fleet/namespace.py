"""Per-job namespaced views of a shared object store.

Every checkpoint object key already begins with its job id (see
:mod:`repro.core.manifest`), so on a shared store the job id *is* the
namespace. A :class:`ScopedStore` hands a job the part of the store API
its checkpoint stack uses (staged PUT/GET, GET, LIST and prefix DELETE)
while

* rejecting any key outside ``<job_id>/`` with
  :class:`~repro.errors.NamespaceViolationError` — a job can never read,
  overwrite or delete another job's checkpoints, no matter how confused
  its controller gets;
* tagging every transfer with the job's *stream* so the bandwidth
  arbiter can attribute link time and enforce the job's capacity quota;
* flooring every transfer's start at the job's own clock — jobs advance
  their private clocks at different rates, and a transfer must never be
  timed before the moment its job issued it.

The writer, restorer, retention and controller take it in place of an
:class:`~repro.storage.object_store.ObjectStore`: those are the only
calls they make on a job's store.
"""

from __future__ import annotations

from ..distributed.clock import SimClock, Timeline
from ..errors import NamespaceViolationError
from ..storage.backends import Backend
from ..storage.object_store import ObjectStore, PrefixDeleteReceipt


class ScopedStore:
    """A job's window onto the shared store: one namespace, one stream."""

    def __init__(
        self,
        store: ObjectStore,
        job_id: str,
        clock: SimClock,
        stream: str | None = None,
    ) -> None:
        if not job_id or "/" in job_id:
            raise NamespaceViolationError(
                f"invalid job namespace {job_id!r}"
            )
        self.base = store
        self.job_id = job_id
        self.clock = clock
        self.namespace = f"{job_id}/"
        #: Who the window's transfers are attributed to — the job
        #: itself unless a reader of the job's namespace (the serving
        #: publisher) is accounted and prioritised on its own stream.
        self.stream = stream if stream is not None else job_id

    # ------------------------------------------------------------------

    def _check(self, key: str) -> str:
        if not key.startswith(self.namespace):
            raise NamespaceViolationError(
                f"job {self.job_id!r} may not touch key {key!r} outside "
                f"its {self.namespace!r} namespace"
            )
        return key

    # -- pass-through surface the core stack relies on -----------------

    @property
    def timeline(self) -> Timeline:
        return self.base.timeline

    @property
    def backend(self) -> Backend:
        return self.base.backend

    @property
    def engine(self):
        return self.base.engine

    # -- scoped object operations --------------------------------------

    def stage_put(
        self, key: str, data: bytes, earliest: float | None = None
    ):
        """Stage a part-granular PUT (see
        :meth:`~repro.storage.object_store.ObjectStore.stage_put`),
        namespace-checked, stream-tagged and clock-floored."""
        self._check(key)
        floor = self.clock.now
        if earliest is not None:
            floor = max(floor, earliest)
        return self.base.stage_put(
            key, data, earliest=floor, stream=self.stream
        )

    def get(self, key: str) -> bytes:
        self._check(key)
        return self.base.get(
            key, earliest=self.clock.now, stream=self.stream
        )

    def stage_get(self, key: str):
        """Stage a part-granular GET (see
        :meth:`~repro.storage.object_store.ObjectStore.stage_get`),
        namespace-checked, stream-tagged and clock-floored like
        :meth:`get`."""
        self._check(key)
        return self.base.stage_get(
            key, earliest=self.clock.now, stream=self.stream
        )

    def delete_prefix(self, prefix: str) -> PrefixDeleteReceipt:
        """Batch-remove the job's objects under a prefix (LIST + N
        DELETE under the cost model), stream-tagged and clock-floored
        like every other scoped operation."""
        if not prefix.startswith(self.namespace):
            raise NamespaceViolationError(
                f"job {self.job_id!r} may not delete prefix {prefix!r} "
                f"outside its {self.namespace!r} namespace"
            )
        return self.base.delete_prefix(
            prefix, stream=self.stream, at_s=self.clock.now
        )

    def predict_put_duration(self, logical_bytes: int) -> float:
        return self.base.predict_put_duration(logical_bytes)

    def list_keys(self, prefix: str = "") -> list[str]:
        if not prefix:
            prefix = self.namespace
        if not prefix.startswith(self.namespace):
            raise NamespaceViolationError(
                f"job {self.job_id!r} may not list prefix {prefix!r} "
                f"outside its {self.namespace!r} namespace"
            )
        return self.base.list_keys(prefix, stream=self.stream)
