"""The fleet checkpoint scheduler: N jobs, one store, one link.

Runs many independent training jobs — each a complete Check-N-Run stack
with its own simulated clock — against a single shared object store:
the scheduler always processes the globally earliest pending event, so
transfers from different jobs reach the shared link in simulated-time
order even though each job's Python code runs sequentially.

Dispatch is indexed: an event heap
(:class:`~repro.fleet.eventqueue.FleetEventQueue`) keyed per lane
(staged write parts, write bookkeeping, training, timers) pops the
earliest event in O(log n) and re-keys only the jobs an event touched.

It is the only event loop: a co-simulation that shares the link (the
serving plane) runs its own work on it as *guests* —
:meth:`FleetScheduler.add_read` for a staged read that competes for
the link part by part, :meth:`FleetScheduler.add_timer` for a compute
event at a set time.

Checkpoint writes are *staged* (see
:meth:`repro.core.controller.CheckNRun.begin_checkpoint`): a job's write
is a generator that announces each PUT request before submitting it —
against a multipart backend, each individual *part*. The scheduler
interleaves announcements from concurrent writers, and when several
jobs are backlogged behind the link it asks the store's
:class:`~repro.storage.bandwidth.BandwidthArbiter` which stream's part
goes next (start-time fair queueing). That part-level interleaving is
what turns a serial link into a fair-shared one: two jobs uploading
multipart chunks alternate part by part instead of chunk by chunk.

Checkpoint *triggers* pass through the transfer engine's
:class:`~repro.storage.engine.AdmissionController` before any snapshot
is taken. ``FleetConfig.max_concurrent_writes`` is the cap of its
static mode; in dynamic mode the controller watches the engine's
backlog signal (link busy time plus queued part bytes) and defers an
experimental job's trigger when the projected queue delay exceeds the
job's own checkpoint interval — prod triggers are always admitted.

Jobs carry paper-style *priority tiers* (prod vs experimental, section
2.2). The arbiter serves backlogged prod chunks with strict priority,
and when a prod transfer still queues longer than
``FleetConfig.preempt_wait_s`` the scheduler *preempts* experimental
staged writes: each one is aborted through the controller's
``abort_pending`` API, its torn chunks scrubbed, and the write re-staged
(``begin_checkpoint(restage=True)``) once no prod write is in flight.

Failures are injected per job from the same Weibull model behind the
Fig 3 CDF, or from the ``failure_model`` the scheduler is given (a
one-job fleet under such a model is how a single job is crash-tested:
:func:`repro.fleet.experiment.one_job_fleet`). A crash mid-write
abandons the staged generator, leaving a *torn* checkpoint (chunks, no
manifest) that the restore path must skip;
recovery restores the job's newest valid checkpoint through the shared
link, contending with every other job's in-flight traffic. On top of
the independent failures, ``FleetConfig.storm_domain`` arms one
*correlated* failure (a rack or power domain from
:mod:`repro.failures.domains`): when fleet progress crosses
``storm_at_fraction`` every job in the struck domain crashes at once,
and the resulting restore storm is drained in arbiter order — prod
restores first, experimental queueing behind them.

(The coarse job-queue model, :class:`repro.failures.JobQueueSim`,
simulates fleet *occupancy* at whole-job granularity; this scheduler
simulates fleet *storage traffic* at chunk granularity.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import FleetConfig
from ..core.controller import CheckpointEvent
from ..core.manifest import checkpoint_prefix
from ..errors import (
    CapacityExceededError,
    CheckpointNotFoundError,
    FleetError,
    RetriesExhaustedError,
)
from ..failures.domains import StormPlan, assign_domains, plan_storm
from ..failures.models import FailureModel, WeibullFailures
from ..failures.traces import FailureTrace
from ..replication import PeerReplicator, restore_from_peer
from ..storage.bandwidth import TIER_EXPERIMENTAL, TIER_PROD, TIER_RANK
from ..storage.engine import AdmissionController, StagedHandle
from ..storage.object_store import ObjectStore
from .eventqueue import FleetEventQueue, pick_link_op
from .jobs import FleetJob, RestoreSample

#: Floor on the derived convergence bound: tiny fleets keep a generous
#: event budget so legitimate crash/preemption replay never trips the
#: non-convergence error. The per-run ceiling itself is derived from
#: fleet shape — see :meth:`FleetScheduler._derive_max_events`.
MIN_EVENT_BUDGET = 200_000


@dataclass
class FleetEvent:
    """One observable fleet occurrence (for reports and tests)."""

    kind: str  # "written", "write_step", "skipped", "deferred",
    # "crash", "quota", "write_failed", "preempted", "restaged",
    # "replicated", or "storm"
    job_id: str
    time_s: float
    payload: dict = field(default_factory=dict)


class FleetScheduler:
    """Co-simulates a fleet of checkpointing jobs on one shared store."""

    def __init__(
        self,
        config: FleetConfig,
        store: ObjectStore,
        jobs: list[FleetJob],
        on_event: Callable[[FleetEvent], None] | None = None,
        failure_model: FailureModel | None = None,
    ) -> None:
        if store.arbiter is None:
            raise FleetError(
                "the shared store needs a BandwidthArbiter attached"
            )
        self.config = config
        self.store = store
        self.on_event = on_event
        self.admission = AdmissionController(
            store.engine,
            mode=config.admission_mode,
            max_concurrent=config.max_concurrent_writes,
            backlog_factor=config.admission_backlog_factor,
            read_mode=config.restore_admission,
            read_backlog_factor=config.restore_backlog_factor,
        )
        if not jobs:
            raise FleetError("fleet needs at least one job")
        self.jobs = jobs
        self.events: list[FleetEvent] = []
        self._forced_crashes: set[str] = set()
        shape = config.failures.weibull_shape
        self._failure_model = failure_model or WeibullFailures(
            shape,
            config.failures.mean_time_to_failure_s
            / WeibullFailures(shape, 1.0).mean_s(),
        )
        self._failure_rngs = {
            job.job_id: np.random.default_rng(job.spec.failure_seed)
            for job in self.jobs
        }
        if config.inject_failures and failure_model is not None:
            # A given model draws every time-to-failure, the first one
            # included, from the job's own stream: a stateful model
            # (``ScheduledFailures``) hands out its schedule in order.
            for job in self.jobs:
                job.next_failure_s = job.clock.now + self._sample_ttf(job)
        elif config.inject_failures:
            # Initial per-job failure times come from a generated
            # FailureTrace — the same per-job TTF observations behind
            # the Fig 3 CDF (short setup failures filtered). After a
            # crash, a job resamples from the underlying model.
            trace = FailureTrace.generate(
                self._failure_model,
                num_jobs=max(2 * config.num_jobs, 8),
                seed=config.seed ^ config.failures.seed,
                min_failure_s=config.failures.min_failure_s,
            )
            shuffle = np.random.default_rng(config.seed ^ 0x7ACE)
            times = shuffle.permutation(trace.times_s)
            for i, job in enumerate(self.jobs):
                job.next_failure_s = job.clock.now + float(
                    times[i % times.size]
                )
        self.storm_plan: StormPlan | None = None
        self.storm_fired_at_s: float | None = None
        self._storm_trigger_intervals = 0
        #: The jobs the armed storm strikes, resolved once.
        self._storm_victims: list[FleetJob] = []
        self._progress_high = 0
        #: Victims of the recovery in progress not yet crashed —
        #: excluded from restore-side preemption (their writes die
        #: torn anyway).
        self._storm_draining: set[str] = set()
        if config.storm_domain is not None:
            domains = assign_domains(
                [job.job_id for job in self.jobs],
                config.storm_domain,
                rack_size=config.rack_size,
                tiers={job.job_id: job.tier for job in self.jobs},
            )
            self.storm_plan = plan_storm(
                domains,
                config.storm_at_fraction,
                seed=config.seed ^ 0x5709,
            )
            struck = set(self.storm_plan.affected_job_ids)
            self._storm_victims = [
                job for job in self.jobs if job.job_id in struck
            ]
            # Measure progress against the *actual* fleet (an injected
            # jobs list may differ from config.num_jobs/intervals); the
            # plan's own at_progress is the single trigger source.
            total_target = sum(
                job.target_intervals for job in self.jobs
            )
            self._storm_trigger_intervals = max(
                1, int(self.storm_plan.at_progress * total_target)
            )
        #: Fleet progress changed since the armed storm last measured
        #: it (the O(jobs) progress sum is recomputed only when this is
        #: set; interval indices change only at trigger / recovery
        #: boundaries).
        self._progress_dirty = True
        self.max_events = self._derive_max_events()
        # Indexed dispatch state: the event-queue lanes, and per-tier
        # staged-write counters plus the re-stage waiting set — the
        # O(1) form of the job-state predicates the lanes are keyed on.
        self._queue = FleetEventQueue()
        self._jobs_by_id = {job.job_id: job for job in self.jobs}
        if len(self._jobs_by_id) != len(self.jobs):
            raise FleetError("duplicate job ids in fleet")
        #: Peer-memory replication tier (None = off). Every side
        #: effect below is gated on this being non-None, so
        #: ``replicate_k=0`` runs stay bit-identical to the seed.
        self.replicator: PeerReplicator | None = None
        if config.replicate_k > 0:
            self.replicator = PeerReplicator(
                config, self.jobs, store.arbiter
            )
        self._staged_by_tier: dict[str, int] = {}
        self._staged_total = 0
        self._staged_tier_of: dict[str, str | None] = {}
        #: Training-done jobs owing a preempted write's re-stage —
        #: their train-lane slot exists only while no prod write is
        #: active, so prod-activity flips re-key exactly this set.
        self._restage_waiting: set[str] = set()
        #: ``(stream, background)`` of every ``write``-lane key: each
        #: job is foreground on its own stream; guest reads bring theirs.
        self._links = {job.job_id: (job.job_id, False) for job in jobs}
        #: Guest reads ``key -> (handle, on_done)`` (:meth:`add_read`)
        #: and timers ``key -> fire`` (:meth:`add_timer`).
        self._reads: dict[str, tuple[StagedHandle, Callable]] = {}
        self._timers: dict[object, Callable[[float], None]] = {}
        for job in self.jobs:
            self._sync_job(job)

    def _derive_max_events(self) -> int:
        """Convergence bound from fleet shape instead of a fixed cap.

        Per interval a job spends one trigger, its training batches,
        one event per announced PUT part (chunks bounded by the fp32
        embedding bytes over the backend part size, plus per-object
        announcements), and a finish — padded for skips/deferrals.
        Crashes replay work (a restore rewinds to the last valid
        checkpoint, a scratch restart to zero), so the per-job budget
        scales with the failure allowance plus the storm, and a final
        headroom factor absorbs preemption/re-stage churn. The bound
        stays proportional to real fleet work at every scale — a 10k
        job fleet gets a 10k-sized budget, and a stuck loop still
        raises :class:`FleetError` instead of spinning forever.
        """
        part_size = self.config.storage.backend.part_size_bytes
        total = 0
        for job in self.jobs:
            spec = job.spec
            # Announced PUT steps per checkpoint: one per object
            # (chunks + dense + manifest + sidecars) plus one per
            # multipart part of the fp32-bounded payload.
            objects = 2 * spec.num_tables + 4
            parts = objects
            if part_size is not None and part_size > 0:
                parts += (
                    2 * job.model_fp32_bytes() + part_size - 1
                ) // part_size
            per_interval = spec.interval_batches + parts + 6
            total += job.target_intervals * per_interval
        replay = 3 + self.config.max_failures_per_job
        return max(MIN_EVENT_BUDGET, 4 * replay * total)

    # ------------------------------------------------------------------
    # Indexed dispatch state (counters + event-queue lanes)
    # ------------------------------------------------------------------

    def _sync_job(self, job: FleetJob) -> None:
        """Re-derive a job's counters and lane keys from its state.

        Called whenever an event touched the job (its clock, staged
        write, re-stage flag or training progress may have changed).
        Every other job's cached keys stay valid — per-job clocks only
        advance while the scheduler is processing that job's own event,
        and announced write steps carry static ready times.
        """
        job_id = job.job_id
        prev_tier = self._staged_tier_of.get(job_id)
        cur_tier = job.tier if job.pending is not None else None
        if prev_tier != cur_tier:
            prod_before = self._staged_by_tier.get(TIER_PROD, 0)
            if prev_tier is not None:
                self._staged_by_tier[prev_tier] -= 1
                self._staged_total -= 1
            if cur_tier is not None:
                self._staged_by_tier[cur_tier] = (
                    self._staged_by_tier.get(cur_tier, 0) + 1
                )
                self._staged_total += 1
            self._staged_tier_of[job_id] = cur_tier
            prod_after = self._staged_by_tier.get(TIER_PROD, 0)
            if (prod_before > 0) != (prod_after > 0):
                self._on_prod_activity_flip()
        queue = self._queue
        pending = job.pending
        if pending is not None and pending.next_step is not None:
            queue.write.set(job_id, pending.next_step.ready_s)
            queue.book.remove(job_id)
        elif pending is not None:
            queue.write.remove(job_id)
            queue.book.set(job_id, job.clock.now)
        else:
            queue.clear_write_lanes(job_id)
        if not job.training_done():
            queue.train.set(job_id, job.clock.now)
            self._restage_waiting.discard(job_id)
        elif job.requeue_write and pending is None:
            # The re-stage slot: a training-done job owing a preempted
            # write competes for a train-lane event only while no prod
            # write is active (it then gets one more event to submit).
            self._restage_waiting.add(job_id)
            if self._tier_write_active(TIER_PROD):
                queue.train.remove(job_id)
            else:
                queue.train.set(job_id, job.clock.now)
        else:
            queue.train.remove(job_id)
            self._restage_waiting.discard(job_id)

    def _on_prod_activity_flip(self) -> None:
        """Prod staged-write activity crossed zero: re-key the jobs
        whose train-lane eligibility is conditioned on it."""
        for job_id in list(self._restage_waiting):
            self._sync_job(self._jobs_by_id[job_id])

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _emit(self, event: FleetEvent) -> None:
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def _sample_ttf(self, job: FleetJob) -> float:
        return float(
            self._failure_model.sample(self._failure_rngs[job.job_id])
        )

    def inject_crash(self, job_id: str) -> None:
        """Force a crash at the job's next scheduled event (tests)."""
        self._forced_crashes.add(job_id)

    def active_writes(self) -> int:
        """Jobs with a staged write still submitting PUTs.

        O(1): the per-tier counters are kept in sync by
        :meth:`_sync_job` at every staged-write set/clear site.
        """
        return self._staged_total

    def _tier_write_active(self, tier: str) -> bool:
        return self._staged_by_tier.get(tier, 0) > 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Process events until every job trained its target intervals
        and drained its last write, and every guest finished."""
        for _ in range(self.max_events):
            event = self.next_event()
            if event is None:
                return
            self.step(event)
        raise FleetError(
            f"fleet did not converge within {self.max_events} events "
            f"(derived bound for {len(self.jobs)} jobs)"
        )

    def add_read(
        self,
        key: str,
        handle: StagedHandle,
        stream: str,
        on_done: Callable[[StagedHandle], None],
        background: bool = False,
    ) -> None:
        """Drive a guest's staged read on the shared link.

        The read rides the ``write`` lane under ``key`` (which must not
        be a job id): each event submits its announced part, which
        competes with every checkpoint part at ``max(ready, link
        free)`` under :func:`~repro.fleet.eventqueue.pick_link_op`,
        booked to ``stream``. A ``background`` read (a flip's warm
        read) yields to any foreground transfer it ties with.
        ``on_done(handle)`` runs once the handle is done — at once if
        it already is.
        """
        if handle.done:
            on_done(handle)
            return
        self._links[key] = (stream, background)
        self._reads[key] = (handle, on_done)
        self._queue.write.set(key, handle.next_step.ready_s)

    def add_timer(
        self, key, time_s: float, fire: Callable[[float], None]
    ) -> None:
        """Run ``fire(time_s)`` as a guest compute event at ``time_s``.

        A timer loses to a link operation at an equal time and to
        training at exactly the same time; timers at exactly the same
        time fire lowest ``key`` first.
        """
        self._timers[key] = fire
        self._queue.timer.set(key, time_s)

    def next_event(self) -> tuple[float, str, object] | None:
        """The fleet's earliest pending ``(time_s, kind, actor)``.

        ``kind`` is ``"write"`` — a link operation on the job's stream
        (its announced PUT part, or the bookkeeping that closes the
        write) — ``"train"``, compute on the job's own clock, or a
        guest's ``"read"`` part or ``"timer"``. None once every job is
        done and drained and no guest is left. An armed storm fires
        from here. Hand the event to :meth:`step` before asking again.
        """
        self._maybe_fire_storm()
        while True:
            # Looked up on the instance per call: b04 shadows it to time
            # dispatch apart from the handlers, the differential tests
            # to pick by an exhaustive reference scan.
            event = self._next_event()
            if event is not None or not self._storm_armed():
                return event
            # Backstop: the fleet is about to drain with the armed
            # storm still waiting on a straggler's first checkpoint —
            # fire it now rather than never.
            self._fire_storm()

    def step(self, event: tuple[float, str, object]) -> None:
        """Process one event :meth:`next_event` returned."""
        time_s, kind, job = event  # a guest event carries its key
        if kind == "read":
            handle, on_done = self._reads[job]
            if handle.advance() is not None:
                self._queue.write.set(job, handle.next_step.ready_s)
            else:
                self._queue.write.remove(job)
                del self._reads[job], self._links[job]
                on_done(handle)
            return
        if kind == "timer":
            self._queue.timer.remove(job)
            self._timers.pop(job)(time_s)
            return
        if job.job_id in self._forced_crashes:
            self._forced_crashes.discard(job.job_id)
            self._recover([job], "failure")
        elif kind == "write":
            self._step_write(job)
        else:
            self._step_train(job)
        self._sync_job(job)

    def _next_event(self) -> tuple[float, str, object] | None:
        """The globally earliest pending event, O(log n) per pick.

        A staged part cannot start before ``max(ready, link free)``;
        using that as the event time lets every part that would queue
        behind the link compete, and the arbiter's fair-queueing tag
        picks the winner. Lane keys are maintained by
        :meth:`_sync_job`; the write lane's link floor is applied at
        pop time (see :mod:`repro.fleet.eventqueue` for why that
        preserves the floored minimum). Writes beat training at equal
        times so a ready part claims its link slot before more training
        runs; tied writes go to the arbiter, tied trains to the lowest
        job id. A guest read is a link operation like any write; a
        guest timer runs after training at exactly the same time.
        """
        queue = self._queue
        link_free = self.store.timeline.free_at
        best_write = queue.best_write(link_free)
        best_train = queue.train.best()
        best_timer = queue.timer.best() if queue.timer else None
        timer_first = best_timer is not None and (
            best_train is None or best_timer < best_train
        )
        compute = best_timer if timer_first else best_train
        if best_write is not None and (
            compute is None or best_write <= compute
        ):
            # The index already found the tie set; the shared rule
            # only has the background yield and the arbiter left.
            _, chosen = pick_link_op(
                [
                    (best_write, *self._links[key], key)
                    for key in queue.tied_writes(best_write, link_free)
                ],
                self.store.arbiter,
            )
            if chosen in self._reads:
                return (best_write, "read", chosen)
            return (best_write, "write", self._jobs_by_id[chosen])
        if timer_first:
            return (best_timer, "timer", queue.timer.first())
        if best_train is None:
            return None
        tied = queue.train.tied(best_train)
        return (best_train, "train", self._jobs_by_id[min(tied)])

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _step_write(self, job: FleetJob) -> None:
        pending = job.pending
        assert pending is not None
        if pending.next_step is not None:
            # Write-side preemption: a prod part about to queue.
            self._preempt_for(job, pending.next_step.ready_s)
        try:
            step = pending.advance()
        except (CapacityExceededError, RetriesExhaustedError) as exc:
            # Over quota/capacity, or a request kept failing transiently
            # past the engine's retry budget. The job loses this
            # checkpoint — abort, scrub the torn chunks, keep training —
            # exactly how every other simulated storage failure is
            # absorbed; one failed write must not take down the run.
            if isinstance(exc, CapacityExceededError):
                job.quota_rejections += 1
                kind = "quota"
            else:
                job.failed_writes += 1
                kind = "write_failed"
            self._scrub_torn(job, self._abort_write(job))
            self._emit(
                FleetEvent(
                    kind,
                    job.job_id,
                    job.clock.now,
                    {"checkpoint_id": pending.checkpoint_id,
                     "error": str(exc)},
                )
            )
            return
        if step is not None:
            # One PUT submitted; the next one is announced. The hook
            # lets tests crash a job at an exact point of its write
            # (e.g. after the last chunk, before the manifest).
            self._emit(
                FleetEvent(
                    "write_step",
                    job.job_id,
                    job.clock.now,
                    {
                        "checkpoint_id": pending.checkpoint_id,
                        "next_kind": step.kind,
                        "next_key": step.key,
                    },
                )
            )
            return
        event = job.controller.finish_checkpoint(pending)
        job.pending = None
        assert event.manifest is not None
        self._emit(
            FleetEvent(
                "written",
                job.job_id,
                job.clock.now,
                {
                    "checkpoint_id": event.manifest.checkpoint_id,
                    "kind": event.manifest.kind,
                    "valid_at_s": event.manifest.valid_at_s,
                    "started_at_s": event.report.started_at_s
                    if event.report
                    else None,
                    "logical_bytes": event.report.logical_bytes
                    if event.report
                    else 0,
                },
            )
        )

    def _abort_write(self, job: FleetJob) -> str:
        """Abandon the job's staged write; returns the torn id.

        The staged generator closes (an in-flight multipart upload
        aborts); chunks already stored stay until :meth:`_scrub_torn`.
        """
        pending = job.pending
        assert pending is not None
        job.controller.abort_pending(pending)
        job.pending = None
        return pending.checkpoint_id

    def _scrub_torn(self, job: FleetJob, checkpoint_id: str) -> None:
        """Delete a torn checkpoint's orphaned chunks (frees quota).

        One batch prefix delete — a single LIST + N DELETE under the
        store's cost model — through the job's scoped view.
        """
        job.store.delete_prefix(
            checkpoint_prefix(job.job_id, checkpoint_id)
        )

    # ------------------------------------------------------------------
    # Tier preemption (abort-and-requeue)
    # ------------------------------------------------------------------

    def _preempt_for(self, by_job: FleetJob, ready_s: float) -> None:
        """Clear experimental staged writes out of a prod transfer's way.

        Fires when ``by_job`` is prod and its transfer, ready at
        ``ready_s``, would still queue behind the link longer than
        ``preempt_wait_s``. Each victim's write is abandoned through
        the controller's ``abort_pending`` API, its already-stored
        chunks scrubbed (no partial objects survive in the namespace),
        and the job marked for *requeue*: it re-stages the write — a
        fresh snapshot under the same interval accounting — once no
        prod write is in flight.
        """
        if not (
            by_job.tier == TIER_PROD
            and self.config.preempt_staged_writes
            and self._tier_write_active(TIER_EXPERIMENTAL)
            and self.store.timeline.free_at - ready_s
            > self.config.preempt_wait_s
        ):
            return
        for other in self.jobs:
            if other.tier != TIER_EXPERIMENTAL or other.pending is None:
                continue
            if other.pending.next_step is None:
                # Every PUT (chunks and manifest) already occupies the
                # link; only bookkeeping remains. Aborting now would
                # destroy a fully-transferred checkpoint and reclaim
                # zero link time.
                continue
            if other.job_id in self._storm_draining:
                # This job is about to crash in the same storm; its
                # write dies (torn) with it — preempting it first would
                # only distort the preemption/torn accounting.
                continue
            torn_id = self._abort_write(other)
            self._scrub_torn(other, torn_id)
            other.preempted_writes += 1
            other.requeue_write = True
            self.store.arbiter.record_preemption(other.job_id)
            self._sync_job(other)
            self._emit(
                FleetEvent(
                    "preempted",
                    other.job_id,
                    other.clock.now,
                    {"by": by_job.job_id, "checkpoint_id": torn_id},
                )
            )

    def _try_restage(self, job: FleetJob) -> bool:
        """Re-stage a preempted write once prod traffic has drained."""
        if (
            not job.requeue_write
            or job.pending is not None
            or self._tier_write_active(TIER_PROD)
        ):
            return False
        job.requeue_write = False
        if self._stage_write(job, restage=True):
            self._emit(
                FleetEvent(
                    "restaged",
                    job.job_id,
                    job.clock.now,
                    {"checkpoint_id": job.pending.checkpoint_id},
                )
            )
        return True

    def _stage_write(self, job: FleetJob, restage: bool = False) -> bool:
        """Snapshot and stage the job's checkpoint write, if it may."""
        began = job.controller.begin_checkpoint(
            restage=restage, force_full=self.replicator is not None
        )
        if isinstance(began, CheckpointEvent):
            # The previous write's manifest has not landed yet
            # (valid_at_s in the job's future): paper-rule skip — a
            # preempted checkpoint being re-staged is simply lost.
            self._emit(
                FleetEvent("skipped", job.job_id, job.clock.now, {})
            )
            return False
        job.pending = began
        return True

    # ------------------------------------------------------------------
    # Correlated failures (restore storms)
    # ------------------------------------------------------------------

    def _storm_armed(self) -> bool:
        return (
            self.storm_plan is not None
            and self.storm_fired_at_s is None
        )

    def _maybe_fire_storm(self) -> None:
        """Fire the armed correlated failure once progress crosses it.

        The storm *arms* when fleet progress passes
        ``storm_at_fraction`` but holds fire until every job in the
        struck domain owns a restorable checkpoint — the event exists to
        measure restore-storm contention, and a straggler that would
        merely reinitialise from scratch adds no read traffic. If that
        never happens (a straggler still mid-first-write, endless quota
        rejections) the main loop force-fires the storm just before the
        fleet would otherwise drain, so an armed storm cannot silently
        dissolve.
        """
        if not self._storm_armed():
            return
        if self._progress_high < self._storm_trigger_intervals:
            if not self._progress_dirty:
                # Interval indices only move at trigger/recovery
                # boundaries, which set the dirty flag in the same
                # loop iteration — so skipping the O(jobs) sum while
                # clean detects the threshold crossing at exactly the
                # iteration a per-event re-sum would.
                return
            self._progress_dirty = False
            progress = sum(
                min(job.controller.interval_index, job.target_intervals)
                for job in self.jobs
            )
            self._progress_high = max(self._progress_high, progress)
            if self._progress_high < self._storm_trigger_intervals:
                return
        if all(
            job.controller.valid_manifests()
            for job in self._storm_victims
        ):
            self._fire_storm()

    def _fire_storm(self) -> None:
        """Crash every job in the struck domain at once."""
        plan = self.storm_plan
        assert plan is not None
        victims = self._storm_victims
        fired_at = max((job.clock.now for job in victims), default=0.0)
        self.storm_fired_at_s = fired_at
        self._emit(
            FleetEvent(
                "storm",
                plan.domain.domain_id,
                fired_at,
                {
                    "kind": plan.domain.kind,
                    "affected": sorted(job.job_id for job in victims),
                },
            )
        )
        self._recover(victims, "storm")

    # ------------------------------------------------------------------
    # Train path
    # ------------------------------------------------------------------

    def _step_train(self, job: FleetJob) -> None:
        if job.batches_left == 0 and not job.training_done():
            # The boundary check runs before any re-stage attempt: a
            # fresh interval's checkpoint supersedes a preempted stale
            # snapshot (never the other way around).
            self._trigger_checkpoint(job)
            return
        if self._try_restage(job):
            return
        if job.training_done():
            # Scheduled only to re-stage a preempted final write; never
            # train past the target.
            return
        job.controller.coordinator.grant_interval(1)
        result = job.trainer.train_one_batch()
        job.batches_trained += 1
        job.batches_left -= 1
        if self.replicator is not None:
            # Per-iteration checkpoint: mirror this step's delta to the
            # job's peer rings before the failure check — a send that
            # straddles the scheduled failure is discarded (partial
            # ring writes never survive) and forces the crash below.
            self.replicator.on_step(job, result)
        if (
            self.config.inject_failures
            and job.next_failure_s is not None
            and job.clock.now >= job.next_failure_s
            and job.failures < self.config.max_failures_per_job
        ):
            self._recover([job], "failure")

    def _trigger_checkpoint(self, job: FleetJob) -> None:
        # Both begin_checkpoint and record_skip advance the interval
        # index — the armed storm's progress measure must re-sum.
        self._progress_dirty = True
        job.batches_left = job.spec.interval_batches
        # Successive triggers measure the job's checkpoint interval —
        # the dynamic admission controller's deferral threshold.
        interval_s = (
            job.clock.now - job.last_trigger_s
            if job.last_trigger_s is not None
            else None
        )
        job.last_trigger_s = job.clock.now
        if interval_s is not None:
            # Shared threshold unit for write- and read-side admission.
            job.measured_interval_s = interval_s
        # A new interval boundary supersedes any preempted write still
        # waiting to restage — its snapshot would be stale anyway.
        job.requeue_write = False
        if job.pending is not None:
            job.controller.record_skip("skipped_overlap")
            self._emit(
                FleetEvent("skipped", job.job_id, job.clock.now, {})
            )
            return
        if (
            self.replicator is not None
            and not self.replicator.is_flush_interval(job)
        ):
            # Peer replication suppresses non-boundary store writes:
            # every batch of this interval already landed on K peer
            # rings, so the store only sees baseline flushes every
            # ``baseline_flush_intervals`` boundaries.
            job.controller.record_skip("replicated")
            self._emit(
                FleetEvent("replicated", job.job_id, job.clock.now, {})
            )
            return
        decision = self.admission.decide(
            tier=job.tier,
            now=job.clock.now,
            interval_s=interval_s,
            active_writes=self.active_writes(),
        )
        if not decision.admitted:
            job.admission_deferred += 1
            job.controller.record_skip("admission_deferred")
            self._emit(
                FleetEvent(
                    "deferred",
                    job.job_id,
                    job.clock.now,
                    {
                        "reason": decision.reason,
                        "projected_delay_s": decision.projected_delay_s,
                        "threshold_s": decision.threshold_s,
                    },
                )
            )
            return
        if self.replicator is not None:
            # Baseline flush: fold every surviving ring's log into its
            # anchor (the anchors re-base on the flushed full) and
            # re-establish rings lost to peer-host deaths.
            self.replicator.rebase_rings(job)
        self._stage_write(job)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def _recover(self, victims: list[FleetJob], cause: str) -> None:
        """Crash ``victims`` at the same moment; drain their recoveries.

        The one crash→restore sequence: a storm passes its whole
        domain, an independent failure its single job (whose drain
        then runs back to back — no other job's parts race it onto
        the link mid-recovery). All victims die at (essentially) the
        same simulated moment; their restores then contend for the
        shared link. Every restore is *staged* (one announced GET part
        at a time, read-side admission pacing experimental starts),
        and the drain interleaves parts across the recovering jobs in
        arbiter order — strict tier priority first, fair-queueing tags
        within a tier — so prod recoveries are never starved behind
        experimental read traffic and the link switches streams at
        part granularity instead of serving whole restores
        head-of-line.
        """
        self._storm_draining = {job.job_id for job in victims}
        # Crash events buffer until the drain completes so they emit in
        # tier-rank order (prod recoveries first), matching the order
        # the link actually serves the victims in.
        finished: list[tuple[int, FleetEvent]] = []
        try:
            # Bookkeeping pass for every victim first — they all die
            # at the same moment, so torn writes abort before any
            # recovery read is staged. Arbiter pick order (prod tiers
            # first) keeps the pass deterministic.
            crashed: list[tuple[FleetJob, dict]] = []
            pool = {job.job_id: job for job in victims}
            while pool:
                chosen = self.store.arbiter.pick(sorted(pool))
                job = pool.pop(chosen)
                self._storm_draining.discard(job.job_id)
                crashed.append((job, self._crash_bookkeeping(job, cause)))
            # Stage and drain one tier at a time, prod first: strict
            # priority means an experimental part could never submit
            # while prod parts are pending anyway, and deferring even
            # the experimental *manifest discovery* reads keeps prod
            # recoveries queueing behind prod traffic only. By the time
            # an experimental restore is admission-checked, the whole
            # prod drain sits in the backlog signal it is paced on.
            for rank in sorted(set(TIER_RANK.values())):
                active: list[tuple[FleetJob, object, dict]] = []
                for job, ctx in crashed:
                    if TIER_RANK[job.tier] != rank:
                        continue
                    # Peer recoveries bypass the storage link — a live
                    # replica sidesteps the drain entirely.
                    event = self._try_peer_recovery(job, ctx, cause)
                    if event is None:
                        pending = self._begin_restore_paced(job)
                        if pending is not None:
                            active.append((job, pending, ctx))
                            continue
                        event = self._finish_recovery(job, ctx, None, cause)
                    finished.append((rank, event))
                # Part-granular drain within the tier: recovering jobs
                # alternate part by part instead of reading whole
                # chains head-of-line.
                while active:
                    link_free = self.store.timeline.free_at
                    _, entry = pick_link_op(
                        [
                            (
                                max(e[1].next_step.ready_s, link_free),
                                e[0].job_id,
                                False,
                                e,
                            )
                            for e in active
                            if e[1].next_step is not None
                        ],
                        self.store.arbiter,
                    )
                    job, pending, ctx = entry
                    try:
                        pending.advance()
                    except CheckpointNotFoundError:
                        # Every resume-plan candidate failed
                        # verification mid-read: fall back to a
                        # from-scratch restart, like a job with
                        # nothing restorable at all.
                        pending = None
                    if pending is None or pending.done:
                        active.remove(entry)
                        finished.append(
                            (
                                rank,
                                self._finish_recovery(
                                    job, ctx, pending, cause
                                ),
                            )
                        )
        finally:
            self._storm_draining = set()
            # Every victim's clock, staged write and training state
            # changed across the drain: re-key them all.
            for job in victims:
                self._sync_job(job)
        finished.sort(key=lambda pair: pair[0])  # stable: prod first
        for _, event in finished:
            self._emit(event)

    def _crash_bookkeeping(self, job: FleetJob, cause: str) -> dict:
        """Everything a crash does *before* any restore read is staged.

        Aborts the torn write, discards an unlanded manifest, snapshots
        the valid-checkpoint set, and fires restore-side preemption.
        Returns the context the recovery finisher needs.
        """
        if cause == "storm":
            # Correlated crashes ride on top of the independent failure
            # process — they must not consume the job's Weibull
            # injection budget (max_failures_per_job).
            job.storm_crashes += 1
        else:
            job.failures += 1
        if self.replicator is not None:
            # Replica rings living in this host's memory die with it.
            # The storm drain runs bookkeeping for *every* victim
            # before any recovery, so replica liveness at recovery
            # time reflects the whole correlated blast radius.
            self.replicator.on_job_death(job.job_id)
        job.requeue_write = False
        torn_id: str | None = None
        torn_chunks = 0
        if job.pending is not None:
            torn_id = job.pending.checkpoint_id
            torn_chunks = len(
                job.store.list_keys(
                    checkpoint_prefix(job.job_id, torn_id)
                )
            )
            self._abort_write(job)
            job.torn_writes += 1
        # Counters must see the cleared write before the preemption
        # check below (and before the next storm victim's bookkeeping).
        self._sync_job(job)
        # A write whose chunks were all submitted but whose manifest
        # transfer had not landed dies with the process too: discard
        # it so it never becomes valid after the fact.
        unlanded = job.controller.discard_unlanded_write()
        if unlanded is not None:
            job.torn_writes += 1

        # Metadata snapshot for test-side verification: which of the
        # job's checkpoints were valid at the moment of the crash.
        valid_before = sorted(
            (
                (m.checkpoint_id, m.interval_index, m.valid_at_s)
                for m in job.controller.manifests.values()
                if m.valid_at_s <= job.clock.now
            ),
            key=lambda row: (row[1], row[2]),
        )

        # Restore-side preemption: a prod job recovering behind a
        # backlogged link clears experimental staged writes first, so
        # its checkpoint reads are not interleaved with their chunks.
        # A prod job with nothing restorable is about to reinitialise
        # from scratch — no read traffic, so nothing to preempt for.
        if job.controller.valid_manifests():
            self._preempt_for(job, job.clock.now)

        return {
            "crash_time_s": job.clock.now,
            "torn_id": torn_id,
            "torn_chunks": torn_chunks,
            "valid_before": valid_before,
            "batches_before": job.model.batches_trained,
            "gets_before": len(
                self.store.log.transfers("get", stream=job.job_id)
            ),
        }

    def _begin_restore_paced(self, job: FleetJob):
        """Stage the job's restore through read-side admission.

        Prod restores always start at once. Under dynamic restore
        admission an experimental restore whose projected queue delay
        (write backlog plus queued restore parts) exceeds the threshold
        is *paced*: the job waits out exactly the excess — its clock
        advances, stretching the measured restore latency — and then
        stages. Returns the primed ``PendingRestore``, or None when the
        job has nothing restorable (the scratch-restart path).
        """
        if not job.controller.valid_manifests():
            return None
        decision = self.admission.decide_get(
            tier=job.tier,
            now=job.clock.now,
            interval_s=job.measured_interval_s,
        )
        if not decision.admitted:
            assert decision.threshold_s is not None
            wait = max(
                0.0, decision.projected_delay_s - decision.threshold_s
            )
            job.restore_deferred += 1
            self._emit(
                FleetEvent(
                    "restore_deferred",
                    job.job_id,
                    job.clock.now,
                    {
                        "projected_delay_s": decision.projected_delay_s,
                        "threshold_s": decision.threshold_s,
                        "paced_wait_s": wait,
                    },
                )
            )
            job.clock.advance(wait, "restore-admission")
        try:
            return job.controller.begin_restore(
                order=self.config.restore_order
            )
        except CheckpointNotFoundError:  # pragma: no cover - raced
            return None

    def _finish_recovery(
        self, job: FleetJob, ctx: dict, pending, cause: str
    ) -> FleetEvent:
        """Complete a crash after its restore drained (or scratch).

        Books the restore sample (latency measured from the *crash*, so
        admission pacing shows up as queueing). Returns the crash event
        — the caller controls emission order (the drain buffers events
        to emit prod recoveries first).
        """
        restored_from: str | None = None
        fallback_depth = 0
        if pending is not None:
            report = job.controller.finish_restore(pending)
            restored_from = report.checkpoint_id
            fallback_depth = report.fallback_depth
            job.restore_fallbacks += fallback_depth
            after = job.model.batches_trained
            gets = self.store.log.transfers(
                "get", stream=job.job_id
            )[ctx["gets_before"]:]
            job.restore_samples.append(
                RestoreSample(
                    cause=cause,
                    latency_s=max(
                        0.0,
                        report.finished_at_s - ctx["crash_time_s"],
                    ),
                    service_s=sum(t.duration_s for t in gets),
                    source="store",
                    time_to_first_batch_s=max(
                        0.0,
                        report.first_batch_ready_s
                        - ctx["crash_time_s"],
                    ),
                )
            )
        else:
            job.controller.reset_for_scratch_restart()
            job.scratch_restarts += 1
            after = 0
        job.batches_left = job.spec.interval_batches
        if self.replicator is not None:
            # The store (or scratch) rewound the job behind its own
            # replica rings; drop them so the delta log never forks.
            # They re-establish at the job's next baseline flush.
            self.replicator.resync_after_recovery(job)
        return self._crash_event(
            job,
            ctx,
            resumed_at=after,
            cause=cause,
            restored_from=restored_from,
            fallback_depth=fallback_depth,
        )

    def _crash_event(
        self, job: FleetJob, ctx: dict, resumed_at: int, **payload
    ) -> FleetEvent:
        """How every recovery rung ends: wasted batches, torn
        scrubbing, the next failure time, the ``crash`` event."""
        # The recovery moved the interval index — the armed storm's
        # progress measure must re-sum.
        self._progress_dirty = True
        job.wasted_batches += max(0, ctx["batches_before"] - resumed_at)
        if ctx["torn_id"] is not None:
            # The recovered controller never re-adopts a torn write;
            # scrub its orphaned chunks from the shared store.
            self._scrub_torn(job, ctx["torn_id"])
        job.next_failure_s = job.clock.now + self._sample_ttf(job)
        return FleetEvent(
            "crash",
            job.job_id,
            job.clock.now,
            {
                **payload,
                "torn_checkpoint": ctx["torn_id"],
                "torn_chunks": ctx["torn_chunks"],
                "valid_before": ctx["valid_before"],
            },
        )

    def _try_peer_recovery(
        self, job: FleetJob, ctx: dict, cause: str
    ) -> FleetEvent | None:
        """Recover from the nearest live replica ring, if one survives.

        The recovery-preference ladder's first two rungs: a same-rack
        ring beats a cross-rack ring, newest replica step first within
        each. The replica read rides the *peer* link only — no storage
        timeline, no restore-storm contention — and restores the
        owner's exact mid-interval position (reader, countdown,
        interval index), so at most the one batch a mid-send crash
        discarded is retrained. Returns the crash event, or None to
        send the caller down the object-store (``plan_resume``) rung.
        """
        if self.replicator is None:
            return None
        ring = self.replicator.best_replica(job.job_id)
        if ring is None:
            # Peers died in the same failure domain: storage fallback.
            job.repl_store_fallbacks += 1
            return None
        result = restore_from_peer(job, ring, self.replicator)
        job.peer_restores += 1
        source = (
            "peer_same_rack" if ring.same_rack else "peer_cross_rack"
        )
        job.restore_samples.append(
            RestoreSample(
                cause=cause,
                latency_s=result.latency_s,
                service_s=result.latency_s,
                source=source,
                time_to_first_batch_s=result.latency_s,
            )
        )
        return self._crash_event(
            job,
            ctx,
            resumed_at=result.step,
            cause=cause,
            restored_from=f"peer:{result.host_id}",
            fallback_depth=0,
            peer_step=result.step,
            peer_source=source,
        )
