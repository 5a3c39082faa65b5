"""The four seeded workloads, their simulated metrics and their oracles.

Shapes are fixed here and nowhere else; ``--seed`` only drives the
generated *inputs* (synthetic click logs and lookup streams), so every
seed exercises the same layers with the same amount of work. ``quick``
shrinks the shapes for the tier-1 smoke test.

One repeat of a workload is ``build`` (untimed for ``wall_s``; timed by
the set-up probes), ``run`` (the timed region), ``after`` (extra timed
samples outside ``wall_s``) and ``outcome`` (untimed: simulated metrics,
the determinism digest and the correctness checks).
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from metrics import MiB, percentile

from repro.config import BackendConfig, FleetConfig, StorageConfig
from repro.experiments import build_experiment, small_config
from repro.fleet import build_fleet, sample_fleet_specs, summarize_fleet
from repro.serving import ServingConfig, ServingFleet, decode_chunk_rows
from repro.storage.requests import OP_GET, StorageRequest

KiB = 1 << 10


@dataclass
class Outcome:
    """What one repeat reports besides its wall time."""

    #: ``sim_*`` metrics: simulated clock, deterministic under a seed.
    sim: dict[str, float]
    #: sha256 over the event log / report; equal across repeats.
    digest: str
    #: ``(check, attempted, failed)`` — operations, not assertions.
    checks: list[tuple[str, int, int]]
    #: Wall-clock detail metrics of this repeat (``events_per_s`` ...).
    detail: dict[str, float] = field(default_factory=dict)
    #: Per-operation wall samples pooled over repeats (restore ms).
    samples: dict[str, list[float]] = field(default_factory=dict)


def _digest(*parts: object) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(repr(part).encode())
    return sha.hexdigest()


def _mix(base: int, seed: int) -> int:
    """A per-object input seed from the run seed (never 0)."""
    return (base * 1_000_003 + seed * 7_919 + 1) % (2**31 - 1) or 1


class Workload:
    name: str

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def build(self, seed: int):
        raise NotImplementedError

    def run(self, state) -> None:
        raise NotImplementedError

    def after(self, state) -> None:
        """Timed samples that are not part of ``wall_s``."""

    def outcome(self, state, wall_s: float) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------


@dataclass
class _FleetState:
    scheduler: object
    store: object
    report: object = None


class _FleetWorkload(Workload):
    def config(self) -> FleetConfig:
        raise NotImplementedError

    def build(self, seed: int) -> _FleetState:
        config = self.config()
        # The job mix (sizes, policies, quantizers, tiers, start
        # offsets) is part of the shape; only each job's data seed
        # follows --seed.
        specs = [
            dataclasses.replace(spec, seed=_mix(spec.seed, seed))
            for spec in sample_fleet_specs(config)
        ]
        scheduler, store = build_fleet(config, specs=specs)
        return _FleetState(scheduler, store)

    def run(self, state: _FleetState) -> None:
        state.scheduler.run()
        state.report = summarize_fleet(state.scheduler, state.store)

    def _fleet_outcome(self, state: _FleetState, wall_s: float) -> Outcome:
        report, scheduler = state.report, state.scheduler
        trained = sum(j.batches_trained for j in report.jobs)
        sim = {
            "sim_stall_frac": statistics.fmean(
                job.controller.stall_fraction() for job in scheduler.jobs
            ),
            "sim_put_mb": report.total_put_bytes_physical / MiB,
            "sim_peak_store_mb": report.peak_physical_bytes / MiB,
            "sim_goodput": sum(j.useful_batches for j in report.jobs)
            / trained,
        }
        # The pool_* fields are measured wall seconds riding on the
        # simulated report; everything else must repeat exactly.
        stable = dataclasses.replace(
            report, pool_busy_s=0.0, pool_wait_s=0.0, pool_overlap_s=0.0
        )
        digest = _digest(
            stable,
            [
                (e.kind, e.job_id, e.time_s, sorted(e.payload.items()))
                for e in scheduler.events
            ],
        )
        detail = {"events_per_s": len(scheduler.events) / wall_s}
        return Outcome(sim, digest, [], detail)


class FleetDispatch1k(_FleetWorkload):
    """1000 one-checkpoint jobs with a 1 KiB table.

    Payload is negligible, so per-checkpoint fixed cost (manifest
    and frame headers, encode_array, pool round-trips, event queue)
    is all there is; quantization and multipart are bypassed.
    """

    name = "fleet_dispatch_1k"

    def config(self) -> FleetConfig:
        jobs = 40 if self.quick else 1000
        # benchmarks/test_b04_fleet_scale.py::scale_config, frozen here
        # so that editing the figure bench cannot move the yardstick.
        return FleetConfig(
            num_jobs=jobs,
            intervals_per_job=1,
            seed=0xB04,
            batch_size=4,
            embedding_dim=4,
            rows_per_table_choices=(64,),
            num_tables_choices=(1,),
            interval_batches_choices=(2,),
            policy_choices=("one_shot",),
            policy_weights=(1.0,),
            quantizer_choices=("none",),
            bit_width_choices=(8,),
            inject_failures=False,
            stagger_s=max(30.0, 0.05 * jobs),
        )

    def outcome(self, state: _FleetState, wall_s: float) -> Outcome:
        result = self._fleet_outcome(state, wall_s)
        jobs = len(state.report.jobs)
        landed = sum(j.checkpoints_written for j in state.report.jobs)
        events = len(state.scheduler.events)
        result.checks = [
            ("checkpoints_landed", jobs, max(0, jobs - landed)),
            ("event_count", 1, int(events != 3 * jobs)),
        ]
        return result


class FleetStormS3like(_FleetWorkload):
    """16 mixed jobs, priority tiers, a power storm, s3like backend.

    The only workload where parts, arbiter, admission, preemption,
    restore planning and ranged reads do real work, over adaptive
    quantizers and DLRM training.
    """

    name = "fleet_storm_s3like"

    def config(self) -> FleetConfig:
        shape = dict(num_jobs=16, intervals_per_job=6)
        if self.quick:
            shape = dict(
                num_jobs=4,
                intervals_per_job=3,
                rows_per_table_choices=(256, 512),
            )
        return FleetConfig(
            priority_mix=0.375,
            storm_domain="power",
            restore_admission="dynamic",
            retention_mode="storm_aware",
            inject_failures=False,
            # Tuned once, then frozen: at the default 30 s stagger the
            # latency-bound link lands experimental manifests after
            # their jobs' own clocks, and 7 of 16 storm victims restart
            # from scratch; at 60 s 15 of 16 restore from the store
            # while the run still preempts and splits parts.
            stagger_s=60.0,
            storage=StorageConfig(
                backend=BackendConfig(
                    kind="s3like",
                    part_size_bytes=16 * KiB,
                    multipart_fanout=2,
                    range_get_bytes=16 * KiB,
                )
            ),
            **shape,
        )

    @property
    def min_store_restores(self) -> int:
        return 1 if self.quick else 12

    def outcome(self, state: _FleetState, wall_s: float) -> Outcome:
        result = self._fleet_outcome(state, wall_s)
        report = state.report
        storm = [
            sample
            for job in report.jobs
            for sample in job.restore_samples
            if sample.cause == "storm"
        ]
        served = sum(1 for s in storm if s.source == "store")
        latencies = [s.latency_s for s in storm] or [0.0]
        result.sim["sim_recover_s_p50"] = statistics.median(latencies)
        result.sim["sim_recover_s_max"] = max(latencies)
        result.checks = [
            (
                "storm_store_restores",
                len(report.jobs),
                max(0, self.min_store_restores - served),
            ),
            ("restore_fallbacks", max(1, served), report.restore_fallbacks),
        ]
        return result


# ----------------------------------------------------------------------
# Single job: write, then restore
# ----------------------------------------------------------------------


@dataclass
class _SingleState:
    exp: object
    write_s: float = 0.0
    batches: int = 0
    restore_ms: list[float] = field(default_factory=list)
    reports: list = field(default_factory=list)
    reference: dict | None = None
    #: Restores whose tables differed from the reference or whose
    #: training position was wrong.
    mismatches: int = 0


class SingleWriteRestore(Workload):
    """One job, 4 x 65536-row tables, adaptive 4-bit, memory backend.

    Payload-dominated, so quantize/pack/encode and decode/dequantize
    do nearly all the work and fleet, arbiter and event queue none;
    write and read directions timed apart.
    """

    name = "single_write_restore"

    INTERVALS = 4

    @property
    def restores_per_repeat(self) -> int:
        return 2 if self.quick else 10

    def build(self, seed: int) -> _SingleState:
        config = small_config(
            policy="intermittent",
            quantizer="adaptive",
            bit_width=4,
            interval_batches=25,
            num_tables=4,
            rows_per_table=1024 if self.quick else 65536,
        )
        config = dataclasses.replace(
            config,
            data=dataclasses.replace(
                config.data, seed=_mix(config.data.seed, seed)
            ),
            model=dataclasses.replace(
                config.model, seed=_mix(config.model.seed, seed)
            ),
        )
        return _SingleState(build_experiment(config))

    def _restore_once(self, state: _SingleState) -> None:
        state.exp.model.reinitialize()
        start = perf_counter()
        report = state.exp.controller.restore_latest()
        state.restore_ms.append((perf_counter() - start) * 1e3)
        state.reports.append(report)

    def run(self, state: _SingleState) -> None:
        exp = state.exp
        start = perf_counter()
        exp.controller.run_intervals(self.INTERVALS)
        state.write_s = perf_counter() - start
        # Drain: let the last manifest land so it is the restore target.
        exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")
        state.batches = exp.model.batches_trained
        self._restore_once(state)

    def after(self, state: _SingleState) -> None:
        # The restore inside run() is checked here, outside wall_s.
        self._verify(state)
        for _ in range(self.restores_per_repeat - 1):
            self._restore_once(state)
            self._verify(state)

    def _reference(self, state: _SingleState) -> dict:
        """Expected tables, decoded by the *serving* chunk decoder.

        Reads the restored chain's chunk objects straight from the
        backend (no simulated time) and applies them in chain order
        through ``decode_chunk_rows`` — a decode path that shares no
        code with ``core.restore``'s model-writing one.
        """
        exp = state.exp
        tables = {
            t: np.zeros_like(exp.model.table_weight(t))
            for t in range(exp.model.num_tables)
        }
        for checkpoint_id in state.reports[0].chain_ids:
            manifest = exp.controller.manifests[checkpoint_id]
            for shard in manifest.shards:
                for chunk in shard.chunks:
                    blob = exp.store.backend.get_object(
                        StorageRequest(OP_GET, chunk.key)
                    )
                    rows, weights = decode_chunk_rows(
                        chunk.key, blob, chunk.digest
                    )
                    tables[shard.table_id][rows] = weights
        return tables

    def _verify(self, state: _SingleState) -> None:
        if state.reference is None:
            state.reference = self._reference(state)
        model = state.exp.model
        same = model.batches_trained == state.batches and all(
            np.array_equal(model.table_weight(t), expected)
            for t, expected in state.reference.items()
        )
        state.mismatches += int(not same)

    def outcome(self, state: _SingleState, wall_s: float) -> Outcome:
        exp = state.exp
        controller = exp.controller
        durations = [r.duration_s for r in state.reports]
        stats = exp.store.stats()
        sim = {
            "sim_stall_frac": controller.stall_fraction(),
            "sim_put_mb": exp.store.log.total_bytes("put") / MiB,
            "sim_peak_store_mb": stats.peak_physical_bytes / MiB,
            "sim_recover_s_p50": statistics.median(durations),
            "sim_recover_s_max": max(durations),
        }
        manifests = sorted(
            controller.manifests.values(), key=lambda m: m.interval_index
        )
        digest = _digest(
            [m.to_json() for m in manifests],
            [
                (r.checkpoint_id, r.chain_ids, r.bytes_read, r.rows_restored,
                 r.duration_s)
                for r in state.reports
            ],
            sim,
        )
        dim = exp.config.model.embedding_dim
        fp32_bytes = 4 * dim * sum(
            shard.row_count for m in manifests for shard in m.shards
        )
        checks = [
            ("restores", len(state.reports), state.mismatches),
            (
                "checkpoints_written",
                self.INTERVALS,
                self.INTERVALS - controller.stats.checkpoints_written,
            ),
        ]
        return Outcome(
            sim,
            digest,
            checks,
            {
                "ckpt_mb_per_s": fp32_bytes / MiB / state.write_s,
                "restore_wall_ms_p50": statistics.median(state.restore_ms),
                "restore_wall_ms_p80": percentile(state.restore_ms, 0.8),
            },
            {"restore_wall_ms": list(state.restore_ms)},
        )


# ----------------------------------------------------------------------
# Serving plane
# ----------------------------------------------------------------------


@dataclass
class _ServeState:
    fleet: ServingFleet
    report: object = None


class ServeFlips(Workload):
    """3 row-cached servers answer 1500 Zipf lookups over 6 versions.

    The read-mostly use of storage and serialize (ranged reads, row
    cache, atomic flips) on the separate ServingFleet loop.
    """

    name = "serve_flips"

    MIN_FLIPS = 3

    def build(self, seed: int) -> _ServeState:
        config = small_config(
            policy="consecutive",
            interval_batches=25,
            num_tables=2,
            rows_per_table=2048,
            batch_size=64,
        )
        config = dataclasses.replace(
            config,
            checkpoint=dataclasses.replace(config.checkpoint, chunk_rows=256),
            data=dataclasses.replace(
                config.data, seed=_mix(config.data.seed, seed)
            ),
        )
        # Open loop in simulated time (Poisson arrivals at 16 qps, each
        # lookup timed from its arrival); closed in wall time — the
        # event loop runs as fast as the host allows.
        serving = ServingConfig(
            num_servers=3,
            cache_rows=256,
            qps=16.0,
            num_queries=60 if self.quick else 1500,
            train_intervals=4 if self.quick else 6,
            hot_rows_per_table=48,
            verify=True,
            seed=_mix(7, seed),
        )
        return _ServeState(ServingFleet(config, serving))

    def run(self, state: _ServeState) -> None:
        state.report = state.fleet.run()

    def outcome(self, state: _ServeState, wall_s: float) -> Outcome:
        report, fleet = state.report, state.fleet
        sim = {
            "sim_stall_frac": fleet.exp.controller.stall_fraction(),
            "sim_put_mb": report.train_write_bytes / MiB,
            "sim_peak_store_mb": fleet.store.stats().peak_physical_bytes
            / MiB,
            "sim_lookup_ms_p99": report.lookup_p99_s * 1e3,
        }
        digest = _digest(
            report,
            [
                (r.request_id, r.server_id, r.version_index, r.completed_s)
                for r in fleet.results
            ],
        )
        checks = [
            ("lookups", report.requests, report.torn_lookups),
            ("flips", 1, int(report.version_flips < self.MIN_FLIPS)),
        ]
        return Outcome(sim, digest, checks)


WORKLOADS = {
    cls.name: cls
    for cls in (
        FleetDispatch1k,
        FleetStormS3like,
        SingleWriteRestore,
        ServeFlips,
    )
}
