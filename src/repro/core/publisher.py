"""Online-training checkpoint publisher (paper sections 1, 5.1).

"Another important use-case of checkpoints is publishing snapshots of
trained models in real time to improve inference accuracy (online
training)": an inference replica keeps serving while training continues,
and each newly valid checkpoint is applied to the replica to keep it
fresh.

:class:`OnlinePublisher` watches a job's manifests in the object store
and applies the ones that became valid since the last poll, in interval
order. The first application walks the full restore chain (the replica
starts empty); later ones apply single increments — the cheap path that
motivates the *consecutive* policy for online-training jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..distributed.clock import SimClock
from ..errors import CheckpointError
from ..model.dlrm import DLRM
from ..storage.object_store import ObjectStore
from .manifest import CheckpointManifest
from .restore import CheckpointRestorer


@dataclass(frozen=True)
class PublishEvent:
    """One checkpoint applied to the inference replica."""

    checkpoint_id: str
    kind: str
    applied_at_s: float
    bytes_read: int
    #: Age of the published state when applied: apply time minus the
    #: snapshot time — the freshness online training exists to minimise.
    staleness_s: float


@dataclass
class PublisherStats:
    """Aggregate publishing statistics."""

    publishes: int = 0
    bytes_read: int = 0
    events: list[PublishEvent] = field(default_factory=list)

    @property
    def mean_staleness_s(self) -> float:
        if not self.events:
            return 0.0
        return sum(e.staleness_s for e in self.events) / len(self.events)


class OnlinePublisher:
    """Keeps an inference replica fresh from a job's checkpoints.

    :meth:`poll_steps` is the one way to poll: the serving plane runs it
    as guest reads between training's link traffic, and a single caller
    drains it (``drain(publisher.poll_steps())``).
    """

    def __init__(
        self,
        store: ObjectStore,
        clock: SimClock,
        replica: DLRM,
        job_id: str,
    ) -> None:
        self.store = store
        self.clock = clock
        self.replica = replica
        self.job_id = job_id
        self.restorer = CheckpointRestorer(store, clock)
        self.stats = PublisherStats()
        self._applied: set[str] = set()
        self._bootstrapped = False

    def pending(self) -> list[CheckpointManifest]:
        """Publishable manifests not yet applied, oldest first.

        Candidates come from the resume planner
        (:meth:`~repro.core.restore.CheckpointRestorer.plan_resume`)
        rather than the raw manifest listing: a quarantined checkpoint,
        a chain with a quarantined link, or a chain missing objects must
        never reach an inference replica, no matter how new it is. A
        later scan that quarantines the bad link re-admits descendants
        only once a fresh full checkpoint re-anchors their chain.
        """
        plan = self.restorer.plan_resume(self.job_id)
        fresh = [
            m for m in plan if m.checkpoint_id not in self._applied
        ]
        return sorted(fresh, key=lambda m: (m.interval_index, m.valid_at_s))

    def poll_steps(self):
        """Generator: apply every newly publishable checkpoint.

        Yields a :class:`~repro.storage.engine.TransferStep` before
        every GET part of the applies, so a driver co-simulating other
        link traffic can interleave publish reads at part granularity
        instead of letting one poll hold the link for a whole chain;
        :func:`~repro.storage.engine.drain` it to poll back to back.
        Returns the list of :class:`PublishEvent`\\ s via
        ``StopIteration.value``.
        """
        events: list[PublishEvent] = []
        manifests = self.restorer.list_manifests(self.job_id)
        for manifest in self.pending():
            if not self._bootstrapped:
                # First publish: the replica holds no trained state, so
                # the full restore chain must be applied.
                report = yield from self.restorer.restore_steps(
                    self.replica,
                    manifest,
                    manifests,
                    on_chunk=self._on_chunk,
                )
                bytes_read = report.bytes_read
                applied_at = report.finished_at_s
                self._applied.update(report.chain_ids)
                self._bootstrapped = True
            else:
                bytes_read, applied_at = yield from (
                    self.restorer.apply_single_steps(
                        self.replica, manifest, on_chunk=self._on_chunk
                    )
                )
                self._applied.add(manifest.checkpoint_id)
            applied_at = max(applied_at, self.clock.now)
            event = PublishEvent(
                checkpoint_id=manifest.checkpoint_id,
                kind=manifest.kind,
                applied_at_s=applied_at,
                bytes_read=bytes_read,
                staleness_s=applied_at - manifest.created_at_s,
            )
            events.append(event)
            self.stats.events.append(event)
            self.stats.publishes += 1
            self.stats.bytes_read += bytes_read
            self._published(manifest, event)
        return events

    # -- subclass hooks (the serving plane extends these) --------------

    def _on_chunk(self, manifest, shard_record, chunk, rows) -> None:
        """Called after each applied chunk decodes (row ids included)."""

    def _published(
        self, manifest: CheckpointManifest, event: PublishEvent
    ) -> None:
        """Called once per checkpoint applied to the replica."""

    def require_fresh(self, max_staleness_s: float) -> None:
        """Assert the replica's state is recent enough to serve.

        Raises :class:`CheckpointError` when the newest applied
        checkpoint is older than the given bound — the freshness SLO an
        online-training deployment would monitor.
        """
        if not self.stats.events:
            raise CheckpointError("replica has never been published to")
        newest = self.stats.events[-1]
        age = self.clock.now - (newest.applied_at_s - newest.staleness_s)
        if age > max_staleness_s:
            raise CheckpointError(
                f"replica state is {age:.0f}s old, over the "
                f"{max_staleness_s:.0f}s freshness bound"
            )
