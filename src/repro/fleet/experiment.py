"""Fleet experiments: aggregate bandwidth/capacity over many jobs.

The paper's Figs 15-17 are fleet aggregates; these drivers reproduce
them by running whole fleets against one shared store:

* :func:`run_fleet` — one heterogeneous fleet, returning per-job and
  aggregate traffic/capacity numbers plus fairness and interleaving
  metrics for the shared link;
* :func:`fleet_reduction_experiment` — the Fig 17 comparison at fleet
  scale: the same fleet run once as the fp32/full baseline and once
  with Check-N-Run's incremental + quantized policies, yielding the
  aggregate write-bandwidth and storage-capacity reduction factors;
* :func:`summarize_tiers` / :func:`format_storm_report` — the
  priority-tier view of a run: restore-latency distribution, contention
  degradation, preemption counts and goodput per tier, the table the
  ``repro fleet --priority-mix/--storm`` CLI and the fleet-storm
  benchmark emit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable

import numpy as np

from ..config import ExperimentConfig, FleetConfig
from ..core.controller import ControllerStats
from ..distributed.clock import SimClock
from ..errors import FleetError
from ..experiments.common import Experiment, build_experiment
from ..failures.models import FailureModel
from ..reporting import (
    additive,
    additive_fields,
    derived_series,
    series,
    totals,
)
from ..storage.bandwidth import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    BandwidthArbiter,
)
from ..storage.backends import Backend
from ..storage.object_store import ObjectStore
from ..storage.requests import OP_CLASSES
from .arbitration import busy_span, interleave_score, part_split_score
from .jobs import (
    FleetJob,
    FleetJobSpec,
    RestoreSample,
    build_fleet_job,
    enrol_experiment,
    sample_fleet_specs,
)
from .namespace import ScopedStore
from .scheduler import FleetEvent, FleetScheduler


@dataclass(frozen=True)
class FleetJobResult:
    """One job's outcome inside a fleet run."""

    job_id: str
    tier: str
    policy: str
    quantizer: str
    bit_width: int
    num_tables: int
    rows_per_table: int
    intervals: int
    checkpoints_written: int = additive()
    checkpoints_skipped: int = additive()
    admission_deferred: int = additive()
    #: Restores paced by the read-side admission controller (start
    #: deferred until the projected backlog drained to the threshold).
    restore_deferred: int = additive()
    #: Checkpoints forced full by storm-aware retention's chain bound.
    baseline_refreshes: int = additive()
    restores: int = additive()
    failures: int = additive()
    storm_crashes: int = additive()
    torn_writes: int = additive()
    scratch_restarts: int = additive()
    quota_rejections: int = additive()
    #: Writes lost to retry exhaustion (permanent request failure).
    failed_writes: int = additive()
    preempted_writes: int = additive()
    wasted_batches: int = additive()
    #: Resume-plan candidates that failed digest/CRC verification
    #: before the job's restores landed (restore-through-corruption
    #: fallbacks; see :meth:`CheckpointRestorer.plan_resume`).
    restore_fallbacks: int = additive()
    batches_trained: int = additive()
    #: Copied from :attr:`FleetJob.useful_batches` (single source of
    #: the goodput definition).
    useful_batches: int = additive()
    bytes_logical: int = additive()
    bytes_physical: int = additive()
    model_fp32_bytes: int
    duration_s: float
    restore_samples: tuple[RestoreSample, ...] = ()
    #: Peer-replication outcome (all 0 with ``replicate_k == 0``):
    #: restores served from a peer ring, recoveries that fell through
    #: to the object store because no replica survived, per-step deltas
    #: mirrored (and their bytes), sends torn by a crash mid-transfer,
    #: rings this job hosted that died with it, and rings rebuilt by
    #: anchor resend after a baseline flush.
    peer_restores: int = additive(default=0)
    repl_store_fallbacks: int = additive(default=0)
    repl_deltas_sent: int = additive(default=0)
    repl_bytes_sent: int = additive(default=0)
    repl_partial_discards: int = additive(default=0)
    repl_rings_lost: int = additive(default=0)
    repl_rings_rebuilt: int = additive(default=0)


#: The per-job counters that add across jobs, resolved once at import.
_JOB_COUNTERS = additive_fields(FleetJobResult)


def job_totals(jobs: Iterable[FleetJobResult]) -> dict[str, int]:
    """Every additive per-job counter summed over ``jobs``.

    The one roll-up behind the fleet report, the tier table and the
    planner's grid points.
    """
    return totals(jobs, _JOB_COUNTERS)


@dataclass(frozen=True)
class FleetRunReport:
    """Aggregate outcome of one fleet run on a shared store."""

    jobs: tuple[FleetJobResult, ...]
    duration_s: float  # last event (training or transfer) in sim time
    total_put_bytes_logical: int
    total_put_bytes_physical: int
    aggregate_write_bandwidth: float  # physical put bytes / duration
    peak_logical_bytes: int
    peak_physical_bytes: int
    fairness_index: float
    interleave_switches: int
    failures: int = series(
        "Independent failures injected across the fleet."
    )
    restores: int = series("Restores completed across the fleet.")
    torn_writes: int = series("Checkpoint writes torn by crashes.")
    #: Restore/publish traffic, op-tagged in the transfer log — restore
    #: storms show up here rather than hiding inside the write series.
    total_get_bytes: int = series(
        "GET-class bytes read (and digest/CRC-verified) over the "
        "shared link.",
        name="verified_read_bytes",
    )
    aggregate_read_bandwidth: float
    #: Fig 15 at fleet scale: (window_start, window_end, bytes/sec)
    #: for PUT-class traffic. Windows span the link's full busy period
    #: (writes and reads), so the two series below align row by row.
    bandwidth_series: tuple[tuple[float, float, float], ...]
    #: The same windows for GET-class traffic: write vs read link load
    #: attribution, separated per op class.
    read_bandwidth_series: tuple[tuple[float, float, float], ...]
    #: Correlated-failure outcome: (domain kind, domain id, fired-at
    #: seconds, affected job ids), or None when no storm was armed/fired.
    storm: tuple[str, str, float, tuple[str, ...]] | None = None
    #: Checkpoint triggers the admission controller deferred (static
    #: cap or dynamic backlog), summed over the fleet.
    admission_deferrals: int = 0
    #: Restores the read-side admission controller paced, summed over
    #: the fleet (prod restores are never paced).
    restore_deferrals: int = 0
    #: Checkpoints forced full by storm-aware retention, fleet-wide.
    baseline_refreshes: int = 0
    restore_fallbacks: int = series(
        "Resume-plan candidates that failed verification before a "
        "restore landed (restore-through-corruption).",
        default=0,
    )
    #: Includes recoveries whose every candidate failed verification.
    scratch_restarts: int = series(
        "Recoveries with no restorable checkpoint at all.", default=0
    )
    #: 0 when ``FleetConfig.bitrot_prob`` is 0.
    bitrot_injected: int = series(
        "PUT payloads silently corrupted by the bit-rot injector.",
        name="bitrot_injected_writes",
        default=0,
    )
    #: Transient-failure retries per op class, from the op log's
    #: receipts: ``((op, total_retries), ...)`` over every class that
    #: saw requests.
    retries_by_op: tuple[tuple[str, int], ...] = ()
    #: How often the link served another stream *mid-chunk* (between
    #: two multipart parts of one object) — the part-granular
    #: interleaving the transfer engine provides; 0 on backends
    #: without multipart.
    part_interleave_splits: int = 0
    # -- near/far cache tier (0/"" when none is configured), filled
    # from :class:`~repro.storage.cache.CacheTierStats` by name.
    cache_capacity_bytes: int = series(
        "Near-tier cache capacity (0 = no cache tier).", default=0
    )
    cache_policy: str = ""
    cache_hits: int = series(
        "GET requests served from the near cache tier.", default=0
    )
    cache_misses: int = series(
        "GET requests that spilled to the far tier.", default=0
    )
    cache_hit_rate: float = 0.0
    cache_evictions: int = series(
        "Objects evicted from the near tier under capacity pressure.",
        default=0,
    )
    cache_dirty_flushes: int = series(
        "Dirty objects flushed asynchronously to the far tier "
        "(write-back policy).",
        default=0,
    )
    cache_forced_flushes: int = 0
    cache_flush_failures: int = 0
    cache_dirty_backlog: int = series(
        "Dirty objects still unflushed at end of run.", default=0
    )
    cache_dirty_bytes: int = 0
    #: Measured (real, not simulated) quantization worker-pool seconds:
    #: busy time, caller-blocked time, and their difference — the wall
    #: time the pool hid behind the writers' own work. Excluded from
    #: equality: wall-clock measurements differ run to run even when
    #: the simulation is deterministic.
    pool_busy_s: float = field(default=0.0, compare=False)
    pool_wait_s: float = field(default=0.0, compare=False)
    pool_overlap_s: float = field(default=0.0, compare=False)
    # -- peer-replication tier (all 0 when ``replicate_k`` is 0)
    replicate_k: int = series(
        "Peer replicas per job (0 = replication off).",
        name="repl_k",
        default=0,
    )
    repl_peer_restores: int = series(
        "Recoveries served from a peer memory ring instead of the "
        "object store.",
        default=0,
    )
    repl_store_fallbacks: int = series(
        "Recoveries that fell through to the object store because no "
        "replica survived the failure domain.",
        default=0,
    )
    repl_deltas_sent: int = series(
        "Per-step deltas mirrored into peer rings.", default=0
    )
    repl_bytes_sent: int = series(
        "Bytes mirrored over the replication stream class.", default=0
    )
    repl_partial_discards: int = series(
        "Replica sends torn by a crash mid-transfer and discarded "
        "(never readable as a restore source).",
        default=0,
    )
    repl_rings_lost: int = series(
        "Peer rings destroyed because their host job died.", default=0
    )
    repl_rings_rebuilt: int = series(
        "Rings rebuilt by anchor resend after a baseline flush.",
        default=0,
    )
    repl_ring_evictions: int = series(
        "Oldest deltas folded into ring anchors under capacity "
        "pressure.",
        default=0,
    )

    @derived_series("Jobs sharing the store in this run.", name="jobs")
    def num_jobs(self) -> int:
        return len(self.jobs)

    def jobs_in_tier(self, tier: str) -> tuple[FleetJobResult, ...]:
        return tuple(j for j in self.jobs if j.tier == tier)


#: Windows of the fleet report's bandwidth series.
BANDWIDTH_WINDOWS = 12


def _bandwidth_series(
    store: ObjectStore, kind: str
) -> tuple[tuple[float, float, float], ...]:
    """Mean bandwidth of one transfer kind ("put"/"get") in each of
    :data:`BANDWIDTH_WINDOWS` windows.

    Windows cover the link's full busy span across *both* kinds so the
    write and read series align and can be printed side by side.
    """
    start, end = busy_span(store.log.transfers())
    if end <= start:
        return ()
    width = (end - start) / BANDWIDTH_WINDOWS
    series = []
    for i in range(BANDWIDTH_WINDOWS):
        lo = start + i * width
        hi = lo + width
        series.append(
            (lo, hi, store.log.average_bandwidth(lo, hi, kind))
        )
    return tuple(series)


def build_fleet(
    config: FleetConfig, specs: list[FleetJobSpec] | None = None
) -> tuple[FleetScheduler, ObjectStore]:
    """Wire a shared store + arbiter and a full fleet of jobs.

    With ``config.bitrot_prob > 0`` the shared backend is wrapped in a
    bit-rot-armed :class:`~repro.storage.backends.CrashingBackend`, so
    a seeded fraction of the fleet's writes land silently corrupted
    and restores must fall back through the resume plan.
    """
    backend = None
    if config.bitrot_prob > 0.0:
        from ..storage.backends import CrashingBackend
        from ..storage.factory import make_backend

        backend = CrashingBackend(
            make_backend(config.storage.backend, config.storage)
        )
        backend.arm_bitrot(config.bitrot_prob, config.bitrot_seed)
    store = ObjectStore(
        config.storage,
        SimClock(),
        backend=backend,
        arbiter=BandwidthArbiter(),
    )
    if specs is None:
        specs = sample_fleet_specs(config)
    jobs = [build_fleet_job(spec, config, store) for spec in specs]
    return FleetScheduler(config, store, jobs), store


def one_job_fleet(
    exp_config: ExperimentConfig,
    intervals: int,
    job_id: str = "job0",
    backend: Backend | None = None,
    failure_model: FailureModel | None = None,
    max_failures: int = 1,
    on_event: Callable[[FleetEvent], None] | None = None,
) -> tuple[FleetScheduler, Experiment]:
    """One experiment as the single prod-tier job of a fleet.

    The job trains ``intervals`` checkpoint intervals on its own clock
    against a fresh store of its own, through its :class:`ScopedStore`
    view — the wiring serving and single-job crash tests share. It
    crashes only under a ``failure_model``: every time-to-failure is
    drawn from it with ``exp_config.failures.seed``, at most
    ``max_failures`` of them. Returns the scheduler (``run()`` it) and
    the wired experiment.
    """
    store = ObjectStore(
        exp_config.storage, SimClock(), backend, arbiter=BandwidthArbiter()
    )
    scoped = ScopedStore(store, job_id, SimClock())
    exp = build_experiment(
        exp_config, job_id=job_id, store=scoped, clock=scoped.clock
    )
    config = FleetConfig(
        num_jobs=1,
        intervals_per_job=intervals,
        inject_failures=failure_model is not None,
        max_failures_per_job=max_failures,
        storage=exp_config.storage,
    )
    checkpoint = exp_config.checkpoint
    spec = FleetJobSpec(
        job_id=job_id,
        num_tables=exp_config.model.num_tables,
        rows_per_table=max(exp_config.model.rows_per_table),
        interval_batches=checkpoint.interval_batches,
        policy=checkpoint.policy,
        quantizer=checkpoint.quantizer,
        bit_width=exp.controller.current_bit_width(),
        start_offset_s=0.0,
        seed=exp_config.model.seed,
        failure_seed=exp_config.failures.seed,
        tier=TIER_PROD,
    )
    job = enrol_experiment(spec, config, exp, store)
    scheduler = FleetScheduler(
        config, store, [job], on_event=on_event, failure_model=failure_model
    )
    return scheduler, exp


def _attributes(cls: type) -> set[str]:
    """Dataclass fields and properties of ``cls``."""
    return {f.name for f in fields(cls)} | {
        name
        for name, value in vars(cls).items()
        if isinstance(value, property)
    }


# Resolved by name once at import, not per job (a 1k-job run summarises
# 1000 jobs inside the benchmark's wall time).
_REPORT_FIELDS = tuple(f.name for f in fields(FleetRunReport))
_SOURCE_ATTRIBUTES = tuple(
    _attributes(cls) for cls in (FleetJobSpec, ControllerStats, FleetJob)
)
#: ``(field, index into (spec, controller stats, job))`` for every
#: :class:`FleetJobResult` field a source has under the same name.
_RESULT_SOURCES = tuple(
    (f.name, index)
    for f in fields(FleetJobResult)
    for index, attributes in enumerate(_SOURCE_ATTRIBUTES)
    if f.name in attributes
)
#: Fleet-wide totals named like the per-job counter they sum.
_FLEET_TOTALS = tuple(n for n in _JOB_COUNTERS if n in _REPORT_FIELDS)
#: ``cache_<x>`` mirrors ``CacheTierStats.<x>``.
_CACHE_FIELDS = tuple(n for n in _REPORT_FIELDS if n.startswith("cache_"))


def _job_result(job: FleetJob) -> FleetJobResult:
    stats = job.controller.stats
    sources = (job.spec, stats, job)
    values = {
        name: getattr(sources[index], name)
        for name, index in _RESULT_SOURCES
    }
    # The few whose source is named (or typed) differently.
    values.update(
        intervals=job.intervals_done,
        bytes_logical=stats.bytes_written_logical,
        bytes_physical=stats.bytes_written_physical,
        model_fp32_bytes=job.model_fp32_bytes(),
        duration_s=job.clock.now,
        restore_samples=tuple(job.restore_samples),
    )
    return FleetJobResult(**values)


def summarize_fleet(
    scheduler: FleetScheduler, store: ObjectStore
) -> FleetRunReport:
    """Collect a finished fleet run's aggregate report."""
    job_results = tuple(_job_result(job) for job in scheduler.jobs)
    total = job_totals(job_results)
    puts = store.log.transfers("put")
    _, last_transfer_end = busy_span(store.log.transfers())
    duration = max(
        [last_transfer_end] + [job.clock.now for job in scheduler.jobs]
    )
    if duration <= 0:
        raise FleetError("fleet run produced no simulated time")
    total_physical = store.log.total_bytes("put")
    total_read = store.log.total_bytes("get")
    stats = store.stats()
    arbiter = store.arbiter
    assert arbiter is not None
    storm = None
    if (
        scheduler.storm_plan is not None
        and scheduler.storm_fired_at_s is not None
    ):
        storm = (
            scheduler.storm_plan.domain.kind,
            scheduler.storm_plan.domain.domain_id,
            scheduler.storm_fired_at_s,
            scheduler.storm_plan.affected_job_ids,
        )
    retries_by_op = tuple(
        (op, sum(r.retries for r in store.ops.receipts(op)))
        for op in OP_CLASSES
        if store.ops.receipts(op)
    )
    engine = store.engine
    from ..storage.cache import find_cache_tier

    cache = find_cache_tier(store.backend)
    cache_fields = {}
    if cache is not None:
        cache_stats = cache.stats()
        cache_fields = {
            name: getattr(cache_stats, name.removeprefix("cache_"))
            for name in _CACHE_FIELDS
        }
    replicator = scheduler.replicator
    return FleetRunReport(
        **cache_fields,
        **{name: total[name] for name in _FLEET_TOTALS},
        jobs=job_results,
        duration_s=duration,
        total_put_bytes_logical=total["bytes_logical"],
        total_put_bytes_physical=total_physical,
        aggregate_write_bandwidth=total_physical / duration,
        peak_logical_bytes=stats.peak_logical_bytes,
        peak_physical_bytes=stats.peak_physical_bytes,
        fairness_index=arbiter.fairness_index("put"),
        interleave_switches=interleave_score(puts),
        total_get_bytes=total_read,
        aggregate_read_bandwidth=total_read / duration,
        bandwidth_series=_bandwidth_series(store, "put"),
        read_bandwidth_series=_bandwidth_series(store, "get"),
        storm=storm,
        admission_deferrals=total["admission_deferred"],
        restore_deferrals=total["restore_deferred"],
        bitrot_injected=len(
            getattr(store.backend, "bitrot_injected", ())
        ),
        retries_by_op=retries_by_op,
        part_interleave_splits=part_split_score(puts),
        pool_busy_s=engine.pool_busy_s,
        pool_wait_s=engine.pool_wait_s,
        pool_overlap_s=engine.pool_overlap_s,
        # The per-job repl_* counters stay 0 with replication off.
        replicate_k=scheduler.config.replicate_k,
        repl_peer_restores=total["peer_restores"],
        repl_ring_evictions=(
            replicator.total_ring_evictions if replicator else 0
        ),
    )


def run_fleet(
    config: FleetConfig, specs: list[FleetJobSpec] | None = None
) -> tuple[FleetScheduler, FleetRunReport]:
    """Run one fleet to completion and summarise it."""
    scheduler, store = build_fleet(config, specs)
    scheduler.run()
    return scheduler, summarize_fleet(scheduler, store)


# ----------------------------------------------------------------------
# Fig 17 at fleet scale
# ----------------------------------------------------------------------


def format_fleet_report(report: FleetRunReport) -> str:
    """Human-readable fleet summary (CLI + benchmark artifact)."""
    lines = [
        f"fleet: {report.num_jobs} jobs sharing one store, "
        f"{report.duration_s:.1f} simulated seconds",
        "",
        "job      policy        quantizer  bits  rows/tbl  ckpts  skip"
        "  fail  rest  torn    KiB",
    ]
    lines.append("-" * len(lines[-1]))
    for j in report.jobs:
        lines.append(
            f"{j.job_id:<8s} {j.policy:<13s} {j.quantizer:<10s}"
            f" {j.bit_width:>4d}  {j.rows_per_table:>8d}"
            f"  {j.checkpoints_written:>5d} {j.checkpoints_skipped:>5d}"
            f" {j.failures:>5d} {j.restores:>5d} {j.torn_writes:>5d}"
            f" {j.bytes_logical / 1024:>6.0f}"
        )
    lines += [
        "",
        f"aggregate write bandwidth: "
        f"{report.aggregate_write_bandwidth / 2**20:.3f} MiB/s "
        f"(physical, over {report.duration_s:.1f} s)",
        f"aggregate read bandwidth: "
        f"{report.aggregate_read_bandwidth / 2**20:.3f} MiB/s "
        f"({report.total_get_bytes / 2**20:.2f} MiB restored/published)",
        f"total logical bytes written: "
        f"{report.total_put_bytes_logical / 2**20:.2f} MiB",
        f"peak live capacity: {report.peak_logical_bytes / 2**20:.2f}"
        f" MiB logical / {report.peak_physical_bytes / 2**20:.2f}"
        " MiB physical",
        f"link fairness (Jain): {report.fairness_index:.3f}",
        f"cross-job interleave switches: {report.interleave_switches}"
        f"  mid-chunk part splits: {report.part_interleave_splits}",
        f"failures: {report.failures}  restores: {report.restores}"
        f"  torn writes: {report.torn_writes}",
        "engine retries per op class: "
        + (
            "  ".join(
                f"{op}={retries}" for op, retries in report.retries_by_op
            )
            or "none"
        ),
        f"admission deferrals: {report.admission_deferrals}"
        f"  restore pacing deferrals: {report.restore_deferrals}"
        f"  baseline refreshes: {report.baseline_refreshes}",
        f"bit-rot injected writes: {report.bitrot_injected}"
        f"  restore fallbacks: {report.restore_fallbacks}"
        f"  scratch restarts: {report.scratch_restarts}",
    ]
    if report.replicate_k > 0:
        lines += [
            f"peer replication (k={report.replicate_k}): "
            f"peer restores: {report.repl_peer_restores}"
            f"  store fallbacks: {report.repl_store_fallbacks}"
            f"  deltas sent: {report.repl_deltas_sent}"
            f" ({report.repl_bytes_sent / 2**20:.2f} MiB)",
            f"replication rings: "
            f"partial discards: {report.repl_partial_discards}"
            f"  lost: {report.repl_rings_lost}"
            f"  rebuilt: {report.repl_rings_rebuilt}"
            f"  evictions: {report.repl_ring_evictions}",
        ]
    if report.cache_capacity_bytes > 0:
        lines += [
            f"cache tier ({report.cache_policy}, "
            f"{report.cache_capacity_bytes / 1024:.0f} KiB): "
            f"hit rate {report.cache_hit_rate:.3f} "
            f"(hits={report.cache_hits} misses={report.cache_misses})",
            f"cache evictions: {report.cache_evictions}"
            f"  dirty flushes: {report.cache_dirty_flushes}"
            f"  forced flushes: {report.cache_forced_flushes}"
            f"  flush failures: {report.cache_flush_failures}"
            f"  dirty backlog: {report.cache_dirty_backlog}"
            f" ({report.cache_dirty_bytes / 1024:.0f} KiB)",
        ]
    if report.bandwidth_series:
        # Write vs read link load per window, attributed by op class.
        lines += [
            "",
            "window_start  window_end   agg_put_MiB/s   agg_get_MiB/s",
        ]
        reads = report.read_bandwidth_series or tuple(
            (lo, hi, 0.0) for lo, hi, _ in report.bandwidth_series
        )
        for (lo, hi, put_bw), (_, _, get_bw) in zip(
            report.bandwidth_series, reads
        ):
            lines.append(
                f"{lo:>12.1f} {hi:>11.1f} {put_bw / 2**20:>13.3f}"
                f" {get_bw / 2**20:>15.3f}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Priority tiers and restore storms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TierSummary:
    """One priority tier's aggregate outcome in a fleet run."""

    tier: str
    num_jobs: int
    restores: int
    storm_restores: int
    preempted_writes: int
    #: Checkpoint triggers the admission controller deferred for this
    #: tier's jobs (dynamic mode defers experimental, admits prod).
    admission_deferred: int
    #: Restores the read-side admission controller paced for this
    #: tier's jobs (always 0 for prod — prod restores admit at once).
    restore_deferred: int
    #: Restore-latency distribution over the tier's storm restores
    #: (all restores when no storm fired), seconds.
    restore_latency_p50_s: float
    restore_latency_p95_s: float
    restore_latency_max_s: float
    #: Mean queueing-inflation factor (latency / idle-link service) of
    #: those restores: 1.0 = uncontended, higher = storm contention.
    restore_degradation: float
    #: Fraction of trained batches that survived (were never re-trained
    #: after a crash) — the CPR-style goodput number.
    goodput: float
    #: Useful (non-wasted) batches per simulated second.
    useful_batches_per_s: float


#: Tier columns named like the per-job counter they sum.
_TIER_TOTALS = tuple(
    f.name for f in fields(TierSummary) if f.name in _JOB_COUNTERS
)


def _latency_stats(samples: list[RestoreSample]) -> tuple[float, ...]:
    if not samples:
        return (0.0, 0.0, 0.0, 1.0)
    latencies = np.asarray([s.latency_s for s in samples])
    degradation = float(
        np.mean([s.degradation for s in samples])
    )
    return (
        float(np.quantile(latencies, 0.5)),
        float(np.quantile(latencies, 0.95)),
        float(latencies.max()),
        degradation,
    )


def summarize_tiers(report: FleetRunReport) -> tuple[TierSummary, ...]:
    """Per-tier restore-latency/preemption/goodput roll-up of a run.

    In a run whose storm fired, restore-latency statistics cover the
    *storm* restores of every tier (the correlated event is what the
    tier arbitration exists for) — the choice is global, so the two
    tiers' columns always describe the same event population. Without
    a storm they cover all restores. Tiers with no jobs are omitted.
    """
    storm_fired = report.storm is not None
    summaries = []
    for tier in (TIER_PROD, TIER_EXPERIMENTAL):
        jobs = report.jobs_in_tier(tier)
        if not jobs:
            continue
        all_samples = [s for j in jobs for s in j.restore_samples]
        storm_samples = [s for s in all_samples if s.cause == "storm"]
        samples = storm_samples if storm_fired else all_samples
        p50, p95, latest, degradation = _latency_stats(samples)
        total = job_totals(jobs)
        trained, useful = total["batches_trained"], total["useful_batches"]
        span = max(j.duration_s for j in jobs)
        summaries.append(
            TierSummary(
                **{name: total[name] for name in _TIER_TOTALS},
                tier=tier,
                num_jobs=len(jobs),
                storm_restores=len(storm_samples),
                restore_latency_p50_s=p50,
                restore_latency_p95_s=p95,
                restore_latency_max_s=latest,
                restore_degradation=degradation,
                goodput=(useful / trained) if trained else 1.0,
                useful_batches_per_s=(useful / span) if span > 0 else 0.0,
            )
        )
    return tuple(summaries)


def format_storm_report(report: FleetRunReport) -> str:
    """The fleet-storm results table: restore latency/goodput by tier."""
    lines = []
    if report.storm is not None:
        kind, domain_id, fired_at, affected = report.storm
        lines.append(
            f"storm: {kind} domain {domain_id} failed at "
            f"{fired_at:.1f} s, taking down {len(affected)} jobs "
            f"({', '.join(affected)})"
        )
    else:
        lines.append("storm: none fired (independent failures only)")
    lines.append(
        f"read traffic on the shared link: "
        f"{report.total_get_bytes / 2**20:.2f} MiB "
        f"({report.aggregate_read_bandwidth / 2**20:.3f} MiB/s mean) — "
        "GET-class transfers, attributed separately from writes"
    )
    lines.append(
        "engine retries per op class: "
        + (
            "  ".join(
                f"{op}={retries}" for op, retries in report.retries_by_op
            )
            or "none"
        )
        + f"  |  admission deferrals: {report.admission_deferrals}"
        + f"  |  restore pacing deferrals: {report.restore_deferrals}"
        + f"  |  baseline refreshes: {report.baseline_refreshes}"
    )
    if report.bitrot_injected or report.restore_fallbacks:
        lines.append(
            f"bit-rot injected writes: {report.bitrot_injected}"
            f"  |  restore fallbacks: {report.restore_fallbacks}"
            f"  |  scratch restarts: {report.scratch_restarts}"
        )
    if report.cache_capacity_bytes > 0:
        lines.append(
            f"cache tier ({report.cache_policy}): "
            f"hit rate {report.cache_hit_rate:.3f}"
            f"  |  cache evictions: {report.cache_evictions}"
            f"  |  dirty flushes: {report.cache_dirty_flushes}"
            f"  |  dirty backlog: {report.cache_dirty_backlog}"
        )
    if report.replicate_k > 0:
        lines.append(
            f"peer replication (k={report.replicate_k}): "
            f"peer restores: {report.repl_peer_restores}"
            f"  |  store fallbacks: {report.repl_store_fallbacks}"
            f"  |  partial discards: {report.repl_partial_discards}"
            f"  |  rings lost: {report.repl_rings_lost}"
        )
    lines.append("")
    header = (
        "tier          jobs  restores  storm  preempt  defer  rdefer"
        "  rst_p50_s  rst_p95_s  rst_max_s  degrade  goodput  useful_b/s"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for t in summarize_tiers(report):
        lines.append(
            f"{t.tier:<13s} {t.num_jobs:>4d}  {t.restores:>8d}"
            f"  {t.storm_restores:>5d}  {t.preempted_writes:>7d}"
            f"  {t.admission_deferred:>5d}"
            f"  {t.restore_deferred:>6d}"
            f"  {t.restore_latency_p50_s:>9.3f}"
            f"  {t.restore_latency_p95_s:>9.3f}"
            f"  {t.restore_latency_max_s:>9.3f}"
            f"  {t.restore_degradation:>7.2f}"
            f"  {t.goodput:>7.3f}"
            f"  {t.useful_batches_per_s:>10.2f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class FleetReductionResult:
    """Fleet-aggregate bandwidth/capacity reduction vs the fp32 baseline."""

    baseline: FleetRunReport
    checknrun: FleetRunReport
    bandwidth_reduction: float
    capacity_reduction: float

    def format(self) -> str:
        return "\n".join(
            [
                "fleet-aggregate reduction vs full-fp32 baseline "
                "(paper Fig 17: ~6x-17x bandwidth, ~2.5x-8x capacity):",
                f"  baseline fleet wrote "
                f"{self.baseline.total_put_bytes_logical / 2**20:.2f}"
                f" MiB, peak "
                f"{self.baseline.peak_logical_bytes / 2**20:.2f} MiB",
                f"  check-n-run fleet wrote "
                f"{self.checknrun.total_put_bytes_logical / 2**20:.2f}"
                f" MiB, peak "
                f"{self.checknrun.peak_logical_bytes / 2**20:.2f} MiB",
                f"  aggregate write-bandwidth reduction: "
                f"{self.bandwidth_reduction:.1f}x",
                f"  aggregate capacity reduction: "
                f"{self.capacity_reduction:.1f}x",
            ]
        )


def fleet_reduction_experiment(config: FleetConfig) -> FleetReductionResult:
    """Run the same fleet twice: full+fp32 vs intermittent+4-bit adaptive.

    Failure injection is disabled in both runs so the byte counts
    compare identical training work (the paper's Fig 17 baseline "uses
    neither quantization nor incremental views"). Model sizes,
    intervals and stagger offsets are held fixed across the two runs.
    """
    quiet = replace(config, inject_failures=False)
    specs = sample_fleet_specs(quiet)
    baseline_specs = [
        replace(s, policy="full", quantizer="none") for s in specs
    ]
    variant_specs = [
        replace(
            s,
            policy="intermittent",
            quantizer="adaptive",
            bit_width=4,
        )
        for s in specs
    ]
    _, baseline = run_fleet(quiet, specs=baseline_specs)
    _, variant = run_fleet(quiet, specs=variant_specs)
    if variant.total_put_bytes_logical == 0 or variant.peak_logical_bytes == 0:
        raise FleetError("variant fleet wrote no checkpoint bytes")
    return FleetReductionResult(
        baseline=baseline,
        checknrun=variant,
        bandwidth_reduction=(
            (baseline.total_put_bytes_logical / baseline.duration_s)
            / (variant.total_put_bytes_logical / variant.duration_s)
        ),
        capacity_reduction=(
            baseline.peak_logical_bytes / variant.peak_logical_bytes
        ),
    )
