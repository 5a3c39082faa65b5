"""The Check-N-Run controller — the system's top-level façade.

Owns the full checkpoint lifecycle of one training job (paper Fig 7):

* grants the reader its per-interval batch quota (section 4.1);
* triggers checkpoints at interval boundaries, enforcing that two
  checkpoint writes never overlap (section 4.3);
* takes the decoupled snapshot (section 4.2) and hands it to the
  background writer with the policy's full/incremental decision and the
  dynamically selected quantization bit width (sections 5.1, 6.2.1);
* declares checkpoints valid when their last byte lands, then lets the
  retention manager delete superseded ones (section 4.4);
* restores the newest valid checkpoint after a failure, rebuilding the
  tracker state and recording the restore against the bit-width
  controller's failure budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import CheckpointConfig
from ..data.reader import ReaderMaster
from ..data.state import ReaderState
from ..distributed.clock import SimClock
from ..distributed.trainer import IntervalReport, SimTrainer
from ..errors import CheckpointError, CheckpointNotFoundError
from ..metrics.latency import LatencyModel
from ..quant.base import Quantizer
from ..quant.registry import make_quantizer
from ..storage.engine import StagedHandle, drain
from ..storage.object_store import ObjectStore
from .bitwidth import BitWidthController
from .coordination import ReaderCoordinator
from .manifest import KIND_FULL, CheckpointManifest, checkpoint_prefix
from .policies import PolicyState, make_policy
from .restore import CheckpointRestorer, RestoreReport
from .retention import RetentionManager
from .snapshot import ModelSnapshot, SnapshotManager
from .tracker import TrackerSet
from .writer import CheckpointWriter, WriteReport


@dataclass
class CheckpointEvent:
    """One controller-level checkpoint outcome (for experiment logs)."""

    interval_index: int
    action: str  # "written", or the action passed to record_skip
    manifest: CheckpointManifest | None = None
    report: WriteReport | None = None


@dataclass
class PendingCheckpoint(StagedHandle):
    """A staged checkpoint write whose PUTs have not all been submitted.

    Produced by :meth:`CheckNRun.begin_checkpoint`: the
    :class:`~repro.storage.engine.StagedHandle` over
    ``write_checkpoint_steps``, whose ``next_step`` is the upcoming
    :class:`~repro.storage.engine.TransferStep` and whose ``result`` is the
    landed ``(manifest, report)``. The fleet scheduler interleaves
    ``advance`` calls from many jobs so their chunk transfers share the
    storage link fairly; the single-job :meth:`CheckNRun.checkpoint`
    drains it immediately. Below the controller there is no drained
    form: the writer's one entry point is ``write_checkpoint_steps``.
    """

    checkpoint_id: str
    kind: str
    interval_index: int
    snapshot: ModelSnapshot


@dataclass
class PendingRestore(StagedHandle):
    """A staged restore whose GETs have not all been submitted.

    Produced by :meth:`CheckNRun.begin_restore`: the
    :class:`~repro.storage.engine.StagedHandle` over
    ``restore_with_fallback_steps``, whose ``next_step`` is the
    upcoming :class:`~repro.storage.engine.TransferStep` and whose
    ``result`` is the :class:`RestoreReport`. The fleet scheduler
    interleaves ``advance`` calls from every job recovering in the same
    restore storm, so the shared link drains the storm part by part in
    arbiter order; the single-job :meth:`CheckNRun.restore_latest`
    drains it immediately. Below the controller there is no drained
    form: the restorer's entry points are ``plan_resume`` and the
    ``*_steps`` generators.
    """

    checkpoint_id: str
    target: CheckpointManifest
    #: Resume-plan candidates, newest first; ``target`` is the head.
    #: The fallback generator may land on a deeper candidate — see
    #: :attr:`restored_target`.
    plan: tuple[CheckpointManifest, ...] = ()

    @property
    def restored_target(self) -> CheckpointManifest:
        """The manifest the drained restore actually landed on.

        Equal to :attr:`target` unless digest verification failed the
        newer candidates and the planner fell back down the plan.
        """
        assert self.result is not None
        for manifest in self.plan:
            if manifest.checkpoint_id == self.result.checkpoint_id:
                return manifest
        return self.target


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one run."""

    checkpoints_written: int = 0
    checkpoints_skipped: int = 0
    restores: int = 0
    bytes_written_logical: int = 0
    bytes_written_physical: int = 0
    events: list[CheckpointEvent] = field(default_factory=list)
    #: Checkpoint ids each retention pass scrubbed, in deletion order —
    #: the determinism tests compare this sequence across seeded runs.
    retention_deleted: list[str] = field(default_factory=list)
    #: Checkpoints forced full by storm-aware retention's chain bound.
    baseline_refreshes: int = 0


class CheckNRun:
    """Checkpointing controller for one simulated training job."""

    def __init__(
        self,
        trainer: SimTrainer,
        reader: ReaderMaster,
        store: ObjectStore,
        config: CheckpointConfig,
        clock: SimClock,
        job_id: str = "job0",
        latency_model: LatencyModel | None = None,
    ) -> None:
        self.trainer = trainer
        self.reader = reader
        self.store = store
        self.config = config
        self.clock = clock
        self.job_id = job_id

        self.policy = make_policy(config.policy)
        self.tracker_set = TrackerSet(
            trainer.plan, config.track_in_forward_pass
        )
        trainer.register_step_hook(self.tracker_set.step_hook)
        self.coordinator = ReaderCoordinator(reader)
        self.snapshot_manager = SnapshotManager(trainer, clock)
        self.writer = CheckpointWriter(store, clock, latency_model)
        self.restorer = CheckpointRestorer(store, clock)
        self.retention = RetentionManager(
            store,
            config.keep_last,
            max_chain_length=config.max_chain_length,
        )
        self.bitwidth = BitWidthController(config.expected_restores)

        self.manifests: dict[str, CheckpointManifest] = {}
        self.interval_index = 0
        self._checkpoint_counter = 0
        self._current_base_id: str | None = None
        self._sizes_since_base: list[float] = []
        self._last_full_bytes: int | None = None
        self._pending: tuple[CheckpointManifest, WriteReport] | None = None
        self.stats = ControllerStats()

    # ------------------------------------------------------------------
    # Quantizer selection
    # ------------------------------------------------------------------

    def current_bit_width(self) -> int:
        """Configured fixed width, or the dynamic controller's choice."""
        if self.config.bit_width is not None:
            return self.config.bit_width
        return self.bitwidth.bit_width

    def _build_quantizer(self) -> Quantizer:
        bits = self.current_bit_width()
        name = self.config.quantizer
        # Section 5.2 summary: adaptive for <= 4 bits; at 8 bits the
        # naive asymmetric search is sufficient and cheaper.
        if name == "adaptive" and bits > 4:
            name = "asymmetric"
        return make_quantizer(
            name,
            bits=bits,
            num_bins=self.config.num_bins,
            ratio=self.config.ratio,
            compact_params=self.config.compact_metadata,
        )

    # ------------------------------------------------------------------
    # Interval loop
    # ------------------------------------------------------------------

    def run_intervals(
        self, num_intervals: int, batches_per_interval: int | None = None
    ) -> list[IntervalReport]:
        """Train N checkpoint intervals, checkpointing after each."""
        if num_intervals < 1:
            raise CheckpointError("need at least one interval")
        batches = batches_per_interval or self.config.interval_batches
        reports = []
        for _ in range(num_intervals):
            self.coordinator.grant_interval(batches)
            reports.append(self.trainer.train_interval(batches))
            self.checkpoint()
        return reports

    def run_for(
        self, duration_s: float, interval_s: float | None = None
    ) -> int:
        """Train for a span of simulated time with *time-based* intervals.

        This is the paper's actual trigger ("we initiate a new
        checkpoint every 30 minutes by default", section 4.3): a
        checkpoint fires at the first batch boundary after
        ``interval_s`` of training time. The reader-gap protocol still
        holds — quota is granted batch by batch, so at the moment the
        checkpoint triggers nothing is in flight.

        Returns the number of checkpoints taken.
        """
        if duration_s <= 0:
            raise CheckpointError("duration must be positive")
        interval = (
            self.config.interval_seconds
            if interval_s is None
            else interval_s
        )
        if interval is None or interval <= 0:
            raise CheckpointError(
                "time-based checkpointing needs a positive interval"
            )
        deadline = self.clock.now + duration_s
        next_trigger = self.clock.now + interval
        taken = 0
        while self.clock.now < deadline:
            self.coordinator.grant_interval(1)
            self.trainer.train_one_batch()
            if self.clock.now >= next_trigger:
                self.checkpoint()
                taken += 1
                next_trigger = self.clock.now + interval
        return taken

    # ------------------------------------------------------------------
    # Checkpoint trigger
    # ------------------------------------------------------------------

    def _write_in_flight(self) -> bool:
        """Whether the newest write's last byte has yet to land.

        The paper forbids overlapping checkpoint writes (section 4.3):
        a trigger that finds one in flight is skipped. A landed write
        is forgotten here.
        """
        if self._pending is None:
            return False
        if self._pending[0].valid_at_s <= self.clock.now:
            self._pending = None
            return False
        return True

    def discard_unlanded_write(self) -> str | None:
        """Drop the newest write if its last byte has not landed yet.

        Used on a crash: a process death kills the background write
        pipeline, so a checkpoint whose manifest transfer was still in
        flight at the crash never becomes valid (section 4.4). Deletes
        the checkpoint's objects, rolls back the baseline/increment
        bookkeeping, and returns the discarded id (None if the newest
        write had already landed).
        """
        if not self._write_in_flight():
            return None
        manifest, _ = self._pending
        self.store.delete_prefix(
            checkpoint_prefix(self.job_id, manifest.checkpoint_id)
        )
        self.manifests.pop(manifest.checkpoint_id, None)
        if (
            manifest.kind == KIND_FULL
            and self._current_base_id == manifest.checkpoint_id
        ):
            # The discarded checkpoint was the new baseline; roll back
            # to having no baseline so the next decision re-takes full.
            self._current_base_id = None
            self._sizes_since_base = []
            self._last_full_bytes = None
        elif self._sizes_since_base:
            self._sizes_since_base.pop()
        self._pending = None
        return manifest.checkpoint_id

    def reset_for_scratch_restart(self) -> list[str]:
        """Restart the job from scratch: no checkpoint is restorable.

        Reinitialises the model, rewinds the reader to the start of the
        dataset, and forgets all checkpoint state. A job restarting from
        scratch must not keep baselines, increment-size history, or
        manifest records from its previous life — a later incremental
        decision would otherwise base on pre-restart weights and restore
        silently wrong state — so the forgotten checkpoints' stored
        objects are deleted too. Returns the forgotten checkpoint ids.
        """
        self.trainer.model.reinitialize()
        self.reader.restore(
            ReaderState(next_batch_index=0, in_flight=0, batches_delivered=0)
        )
        forgotten = list(self.manifests)
        self.manifests.clear()
        self._current_base_id = None
        self._sizes_since_base = []
        self._last_full_bytes = None
        self._pending = None
        self.interval_index = 0
        self.tracker_set.reset_all()
        for checkpoint_id in forgotten:
            self.store.delete_prefix(
                checkpoint_prefix(self.job_id, checkpoint_id)
            )
        return forgotten

    def checkpoint(self) -> CheckpointEvent:
        """Trigger one checkpoint at the current interval boundary.

        Drains :meth:`begin_checkpoint`'s staged write at once. Kept as
        the single-job driver's step: :meth:`run_intervals` and
        :meth:`run_for` checkpoint through it; the fleet stages the same
        write part by part instead.
        """
        started = self.begin_checkpoint()
        if isinstance(started, CheckpointEvent):
            return started
        drain(started)
        return self.finish_checkpoint(started)

    def record_skip(
        self,
        action: str = "skipped_overlap",
        interval: int | None = None,
        advance: bool = True,
    ) -> CheckpointEvent:
        """Record a trigger that produced no write (overlap/admission).

        The interval normally advances — the paper's controller simply
        does not start a new checkpoint while the previous one is in
        flight (section 4.3); the fleet scheduler additionally skips
        triggers its admission controller rejects. A *restage* skip
        (``advance=False``) belongs to an already-counted interval, so
        it neither re-reads nor bumps the index.
        """
        if interval is None:
            interval = self.interval_index
        event = CheckpointEvent(interval, action)
        if advance:
            self.interval_index += 1
        self.stats.checkpoints_skipped += 1
        self.stats.events.append(event)
        return event

    def begin_checkpoint(
        self, restage: bool = False, force_full: bool = False
    ) -> CheckpointEvent | PendingCheckpoint:
        """Snapshot, decide full/incremental, and stage the write.

        Returns a skip :class:`CheckpointEvent` if the previous write is
        still in flight, else a primed :class:`PendingCheckpoint` whose
        first chunk is quantized and awaiting submission. Callers must
        drain it with ``advance`` and then call
        :meth:`finish_checkpoint` (or :meth:`abort_pending` on a crash).

        ``restage=True`` re-stages a write whose predecessor was aborted
        by tier preemption (see :mod:`repro.fleet.scheduler`): the new
        write belongs to the *already counted* interval, so the interval
        index is neither re-read nor advanced — the checkpoint covers a
        fresh snapshot but keeps the job's interval accounting intact.
        """
        interval = (
            max(0, self.interval_index - 1)
            if restage
            else self.interval_index
        )
        if self._write_in_flight():
            return self.record_skip(
                "skipped_overlap", interval=interval, advance=not restage
            )

        reader_state = self.coordinator.collect_state()
        snapshot = self.snapshot_manager.take_snapshot(
            interval, self.tracker_set, reader_state
        )
        self.coordinator.resume()

        decision = self.policy.decide(
            PolicyState(
                interval_index=interval,
                incremental_sizes=tuple(self._sizes_since_base),
            )
        )
        if force_full:
            # Peer replication only flushes retention-boundary
            # baselines to the store: every landed write must be a
            # self-contained full so the ring anchors can re-base on it.
            decision = KIND_FULL
        if decision != KIND_FULL and self._current_base_id is None:
            # Nothing to increment on (first checkpoint, or baseline
            # cancelled): force a full one.
            decision = KIND_FULL
        if decision != KIND_FULL:
            base_id = self._prospective_base_id()
            if self.retention.wants_baseline_refresh(
                self.manifests, self.policy, base_id
            ):
                # Storm-aware retention: one more increment would push
                # the restore chain past its bound — refresh the
                # baseline so a restore storm never re-reads a chain
                # longer than max_chain_length through the link.
                decision = KIND_FULL
                self.stats.baseline_refreshes += 1

        checkpoint_id = f"ckpt-{self._checkpoint_counter:06d}"
        self._checkpoint_counter += 1
        base_id = (
            None if decision == KIND_FULL else self._prospective_base_id()
        )

        quantizer = self._build_quantizer()
        # The fp32 baseline stays fp32 throughout: quantizing only the
        # optimizer state under the "none" quantizer would break the
        # bit-exact-restore property the baseline exists to provide.
        quantize_state = (
            self.config.quantize_optimizer_state
            and quantizer.name != "none"
        )
        steps = self.writer.write_checkpoint_steps(
            snapshot,
            decision,
            checkpoint_id,
            self.job_id,
            base_id,
            self.policy.name,
            quantizer,
            self.config.chunk_rows,
            quantize_state,
            adaptive_num_bins=self.config.num_bins,
            adaptive_ratio=self.config.ratio,
        )
        # Priming the handle quantizes chunk 1 and announces its PUT.
        pending = PendingCheckpoint(
            steps=steps,
            checkpoint_id=checkpoint_id,
            kind=decision,
            interval_index=interval,
            snapshot=snapshot,
        )
        if not restage:
            self.interval_index += 1
        return pending

    def finish_checkpoint(
        self, pending: PendingCheckpoint
    ) -> CheckpointEvent:
        """Book-keep a drained staged write: validity, baseline, retention."""
        if not pending.done:
            raise CheckpointError(
                f"checkpoint {pending.checkpoint_id!r} still has "
                "unsubmitted writes"
            )
        manifest, report = pending.result
        pending.snapshot.release(self.trainer)
        self.manifests[pending.checkpoint_id] = manifest
        self._pending = (manifest, report)

        if pending.kind == KIND_FULL:
            self._current_base_id = pending.checkpoint_id
            self._sizes_since_base = []
            self._last_full_bytes = report.logical_bytes
        else:
            if not self._last_full_bytes:
                raise CheckpointError(
                    "incremental checkpoint without a recorded baseline "
                    "size"
                )
            self._sizes_since_base.append(
                report.logical_bytes / self._last_full_bytes
            )
        if self.policy.reset_tracker_after(pending.kind):
            self.tracker_set.reset_all()

        # Retention: the just-written checkpoint is still in flight at
        # this point, so validity-aware enforcement keeps the newest
        # valid one(s) until the new write completes.
        retention = self.retention.enforce(
            self.manifests, self.policy, self.job_id, now_s=self.clock.now
        )
        self.stats.retention_deleted.extend(retention.deleted_ids)

        self.stats.checkpoints_written += 1
        self.stats.bytes_written_logical += report.logical_bytes
        self.stats.bytes_written_physical += report.physical_bytes
        event = CheckpointEvent(
            pending.interval_index, "written", manifest, report
        )
        self.stats.events.append(event)
        return event

    def abort_pending(self, pending: PendingCheckpoint) -> None:
        """Abandon a staged write after a crash or preemption.

        Already-stored chunks stay behind as a *torn* checkpoint — no
        manifest was written, so the restore path never considers it
        (the manifest-last invariant). Closing the staged generator
        additionally aborts any in-flight multipart upload through the
        transfer engine, so a write preempted mid-part leaves no
        visible object and no orphaned parts behind. The snapshot's
        host memory is released; controller state is otherwise
        untouched, since the crash recovery path rebuilds it from
        stored manifests.
        """
        pending.snapshot.release(self.trainer)
        steps = pending.steps
        pending.steps = iter(())  # no more PUTs
        pending.next_step = None
        close = getattr(steps, "close", None)
        if close is not None:
            close()  # GeneratorExit -> StagedPut.abort() mid-upload

    def _last_checkpoint_id(self) -> str | None:
        if not self.manifests:
            return None
        latest = max(
            self.manifests.values(),
            key=lambda m: (m.interval_index, m.valid_at_s),
        )
        return latest.checkpoint_id

    def _prospective_base_id(self) -> str | None:
        """The checkpoint the next *incremental* write would chain on:
        the previous checkpoint for consecutive policies (chains grow),
        the standing baseline otherwise (chains stay two links)."""
        if self.policy.name == "consecutive":
            return self._last_checkpoint_id()
        return self._current_base_id

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def adopt_manifests(
        self, manifests: dict[str, CheckpointManifest]
    ) -> None:
        """Adopt checkpoints written by a previous process of this job.

        Rebuilds the controller's continuation state — checkpoint-id
        counter, current baseline, and the increment-size history the
        intermittent predictor needs — from the stored manifests, so a
        resumed job keeps numbering and policy decisions consistent.
        """
        import re

        self.manifests.update(manifests)
        for checkpoint_id in self.manifests:
            match = re.fullmatch(r"ckpt-(\d+)", checkpoint_id)
            if match:
                self._checkpoint_counter = max(
                    self._checkpoint_counter, int(match.group(1)) + 1
                )
        ordered = sorted(
            self.manifests.values(),
            key=lambda m: (m.interval_index, m.valid_at_s),
        )
        fulls = [m for m in ordered if m.kind == KIND_FULL]
        if fulls:
            base = fulls[-1]
            self._current_base_id = base.checkpoint_id
            self._last_full_bytes = base.logical_bytes
            self._sizes_since_base = [
                m.logical_bytes / base.logical_bytes
                for m in ordered
                if m.kind != KIND_FULL
                and m.interval_index > base.interval_index
            ]
        if ordered:
            self.interval_index = ordered[-1].interval_index + 1

    def begin_restore(
        self,
        at_time_s: float | None = None,
        order: str = "manifest",
        hot_rows=None,
    ) -> PendingRestore:
        """Stage a restore of the newest checkpoint valid at ``at_time``.

        Returns a primed :class:`PendingRestore` whose first GET part
        is announced and awaiting submission. Callers drain it with
        ``advance`` and then call
        :meth:`finish_restore` — the fleet scheduler interleaves
        advances from every job recovering in the same storm. The
        staged reads restore *through* corruption: when digest/CRC
        verification fails the newest candidate mid-read, the restore
        falls back down the resume plan to the newest fully-verified
        chain instead of raising. Raises
        :class:`CheckpointNotFoundError` when nothing is restorable
        (and draining raises it when every plan candidate fails).
        """
        plan = self.restorer.plan_resume(
            self.job_id, at_time_s, policy=self.policy
        )
        if not plan:
            raise CheckpointNotFoundError(
                f"job {self.job_id!r} has no valid checkpoint to restore"
            )
        steps = self.restorer.restore_with_fallback_steps(
            self.trainer.model,
            plan,
            self.manifests,
            reader=self.reader,
            policy=self.policy,
            order=order,
            hot_rows=hot_rows,
        )
        # Priming the handle resolves the chain and announces part 1.
        return PendingRestore(
            steps=steps,
            checkpoint_id=plan[0].checkpoint_id,
            target=plan[0],
            plan=tuple(plan),
        )

    def finish_restore(self, pending: PendingRestore) -> RestoreReport:
        """Book-keep a drained staged restore: trackers, interval, stats.

        Rebuilds tracker state: for one-shot/intermittent policies the
        target increment's rows *are* the modified-since-baseline set,
        so they are re-marked; for full/consecutive the trackers start
        a fresh interval empty.
        """
        if not pending.done:
            raise CheckpointError(
                f"restore of {pending.checkpoint_id!r} still has "
                "unsubmitted reads"
            )
        report = pending.result
        # The fallback path may have restored a deeper plan candidate
        # than the announced target; trackers and the interval counter
        # must follow what actually loaded.
        target = pending.restored_target
        self.tracker_set.reset_all()
        if not self.policy.reset_tracker_after(target.kind):
            # Tracker accumulates since the baseline: re-mark the rows
            # the restored increment carried.
            for table_id, rows in report.target_rows_by_table.items():
                if target.kind != KIND_FULL:
                    self.tracker_set.mark_table_rows(table_id, rows)
        self.interval_index = target.interval_index + 1
        self._pending = None
        if self.config.bit_width is None:
            self.bitwidth.record_restore()
        self.stats.restores += 1
        return report

    def restore_latest(
        self, at_time_s: float | None = None
    ) -> RestoreReport:
        """Recover from the newest checkpoint valid at ``at_time``.

        Stages the restore and drains it immediately (reads
        back-to-back) — the single-job path, timing-identical to
        staging the same restore without interleaved traffic. Kept as
        the one-call resume of a whole job (trackers, interval counter
        and reader included) that the CLI's ``run``/``restore``, the
        quickstart and the repo benchmark's ``single_write_restore``
        workload call by name.
        """
        pending = self.begin_restore(at_time_s)
        drain(pending)
        return self.finish_restore(pending)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def valid_manifests(
        self, at_time_s: float | None = None
    ) -> list[CheckpointManifest]:
        deadline = self.clock.now if at_time_s is None else at_time_s
        return sorted(
            (
                m
                for m in self.manifests.values()
                if m.valid_at_s <= deadline
            ),
            key=lambda m: m.interval_index,
        )

    def stall_fraction(self) -> float:
        """Snapshot-stall share of all simulated time (paper: < 0.4%)."""
        return self.snapshot_manager.stall_fraction()
