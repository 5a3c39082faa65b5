"""Command-line interface: run jobs, fleets; inspect and scrub checkpoints.

Usage (after ``pip install -e .``)::

    python -m repro.tools run --store-dir /tmp/ckpts --intervals 4
    python -m repro.tools inspect --store-dir /tmp/ckpts --job job0
    python -m repro.tools scrub --store-dir /tmp/ckpts --job job0
    python -m repro.tools scan --store-dir /tmp/ckpts --job job0
    python -m repro.tools restore --store-dir /tmp/ckpts --job job0
    python -m repro.tools fleet --jobs 8 --intervals 4
    python -m repro.tools plan --jobs 8 --quotas none,262144
    python -m repro.tools serve --servers 3 --cache-rows 256

``run`` persists checkpoints (and the job's configuration) to a
directory-backed object store, so a later ``restore`` in a *different
process* rebuilds the model and resumes — the same crash-restart flow
the in-memory examples demonstrate, but across real process boundaries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..config import (
    BACKEND_KINDS,
    STORM_DOMAINS,
    BackendConfig,
    CheckpointConfig,
    FleetConfig,
    StorageConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from ..core.integrity import format_integrity_report, scan_job
from ..core.restore import CheckpointRestorer
from ..distributed.clock import SimClock
from ..errors import ReproError
from ..experiments.common import build_experiment, small_config
from ..storage.object_store import ObjectStore
from ..storage.requests import OP_GET
from . import metrics
from .inspect import format_summaries, scrub_job, summarize_job

JOB_CONFIG_KEY = "{job}/job_config.json"


def _emit(
    body: str,
    artifact: Path | None = None,
    metrics_out: str | None = None,
    samples: list[metrics.Metric] = (),
) -> None:
    """The shared command tail: print, write the artifact, export."""
    print(body)
    if artifact is not None:
        artifact.parent.mkdir(parents=True, exist_ok=True)
        artifact.write_text(body)
        print(f"wrote {artifact}")
    if metrics_out is not None:
        print(f"wrote {metrics.write_textfile(metrics_out, samples)}")


def _open_store(store_dir: str, clock: SimClock) -> ObjectStore:
    config = StorageConfig(
        backend=BackendConfig(kind="file", root=store_dir)
    )
    return ObjectStore(config, clock)


def _build_from_stored_config(store: ObjectStore, job: str, clock):
    key = JOB_CONFIG_KEY.format(job=job)
    if not store.exists(key):
        raise ReproError(
            f"no stored configuration for job {job!r}; was it created "
            "with `repro run`?"
        )
    config = experiment_config_from_dict(
        json.loads(store.engine.retry_probe(OP_GET, key))
    )
    return build_experiment(
        config, job_id=job, store=store, clock=clock
    ).controller


def cmd_run(args: argparse.Namespace) -> int:
    config = small_config(
        policy=args.policy,
        quantizer=args.quantizer,
        bit_width=args.bits,
        interval_batches=args.interval_batches,
        num_tables=args.tables,
        rows_per_table=args.rows,
    )
    clock = SimClock()
    store = _open_store(args.store_dir, clock)
    store.put(
        JOB_CONFIG_KEY.format(job=args.job),
        json.dumps(experiment_config_to_dict(config)).encode("utf-8"),
        overwrite=True,
    )
    exp = build_experiment(
        config, job_id=args.job, store=store, clock=clock
    )
    controller = exp.controller

    # Resume if the job already has checkpoints on disk. The fresh
    # process's clock starts at zero, before the stored checkpoints'
    # validity times: fast-forward past the newest one.
    restorer = CheckpointRestorer(store, clock)
    existing = restorer.list_manifests(args.job)
    if existing:
        newest_valid = max(m.valid_at_s for m in existing.values())
        clock.advance_to(newest_valid + 1.0, "prior-history")
        controller.adopt_manifests(existing)
        report = controller.restore_latest()
        print(
            f"resumed {report.checkpoint_id} at batch "
            f"{exp.model.batches_trained}"
        )
    for report in controller.run_intervals(args.intervals):
        print(
            f"interval done: loss={report.mean_loss:.4f} "
            f"({report.batches} batches)"
        )
    print(
        f"wrote {controller.stats.checkpoints_written} checkpoints, "
        f"{controller.stats.bytes_written_logical / 1024:.0f} KiB logical"
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    store = _open_store(args.store_dir, SimClock())
    print(format_summaries(summarize_job(store, args.job)))
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    store = _open_store(args.store_dir, SimClock())
    report = scrub_job(store, args.job)
    print(
        f"checked {report.objects_checked} objects, "
        f"{report.bytes_checked / 1024:.0f} KiB"
    )
    if report.clean:
        print("all chunks verified clean")
        return 0
    for key in report.corrupt_keys:
        print(f"CORRUPT: {key}")
    return 1


def cmd_scan(args: argparse.Namespace) -> int:
    """End-to-end integrity scan: digests, truncation, torn writes.

    Unlike ``scrub`` (chunk CRCs only), ``scan`` verifies every stored
    object against the manifest's sha256 digests and expected sizes,
    detects torn checkpoints (objects without a manifest), and
    quarantines corrupt checkpoints so restore planning skips them.
    """
    store = _open_store(args.store_dir, SimClock())
    report = scan_job(
        store, args.job, quarantine=not args.no_quarantine
    )
    _emit(
        format_integrity_report(report),
        metrics_out=args.metrics_out,
        samples=metrics.scan_metrics(report),
    )
    return 0 if report.clean else 1


def cmd_restore(args: argparse.Namespace) -> int:
    clock = SimClock()
    store = _open_store(args.store_dir, clock)
    controller = _build_from_stored_config(store, args.job, clock)
    restorer = CheckpointRestorer(store, clock)
    existing = restorer.list_manifests(args.job)
    if existing:
        clock.advance_to(
            max(m.valid_at_s for m in existing.values()) + 1.0,
            "prior-history",
        )
    controller.adopt_manifests(existing)
    report = controller.restore_latest()
    print(
        f"restored {report.checkpoint_id} "
        f"(chain {' -> '.join(report.chain_ids)}): "
        f"{report.rows_restored} rows, "
        f"{report.bytes_read / 1024:.0f} KiB, model at batch "
        f"{controller.trainer.model.batches_trained}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Check-N-Run reproduction tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a job with checkpoints")
    run.add_argument(
        "--store-dir", required=True,
        help="directory for the file-backed object store",
    )
    run.add_argument("--job", default="job0", help="job id (namespace)")
    run.add_argument(
        "--policy", default="intermittent",
        help="checkpoint policy: full, one_shot, consecutive, "
        "intermittent",
    )
    run.add_argument(
        "--quantizer", default="adaptive",
        help="quantizer: none, float16, symmetric, asymmetric, "
        "adaptive, kmeans",
    )
    run.add_argument(
        "--bits", type=int, default=4, help="quantization bit width"
    )
    run.add_argument(
        "--intervals", type=int, default=3,
        help="checkpoint intervals to train",
    )
    run.add_argument(
        "--interval-batches", type=int, default=20,
        help="training batches per checkpoint interval",
    )
    run.add_argument(
        "--tables", type=int, default=4, help="embedding tables"
    )
    run.add_argument(
        "--rows", type=int, default=4096, help="rows per embedding table"
    )
    run.set_defaults(func=cmd_run)

    inspect_cmd = sub.add_parser(
        "inspect", help="list a job's checkpoints"
    )
    inspect_cmd.add_argument(
        "--store-dir", required=True,
        help="directory of the file-backed object store",
    )
    inspect_cmd.add_argument(
        "--job", default="job0", help="job id to inspect"
    )
    inspect_cmd.set_defaults(func=cmd_inspect)

    scrub = sub.add_parser("scrub", help="verify stored chunk CRCs")
    scrub.add_argument(
        "--store-dir", required=True,
        help="directory of the file-backed object store",
    )
    scrub.add_argument("--job", default="job0", help="job id to scrub")
    scrub.set_defaults(func=cmd_scrub)

    scan = sub.add_parser(
        "scan",
        help="verify digests end-to-end; quarantine corrupt checkpoints",
    )
    scan.add_argument(
        "--store-dir", required=True,
        help="directory of the file-backed object store",
    )
    scan.add_argument("--job", default="job0", help="job id to scan")
    scan.add_argument(
        "--no-quarantine", action="store_true",
        help="report corruption but leave manifests unmodified",
    )
    scan.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write scan counters as a Prometheus textfile (.prom)",
    )
    scan.set_defaults(func=cmd_scan)

    restore = sub.add_parser(
        "restore", help="restore a job's newest checkpoint"
    )
    restore.add_argument(
        "--store-dir", required=True,
        help="directory of the file-backed object store",
    )
    restore.add_argument(
        "--job", default="job0", help="job id to restore"
    )
    restore.set_defaults(func=cmd_restore)

    figures = sub.add_parser(
        "figures", help="print the quick paper-figure reproductions"
    )
    figures.set_defaults(func=cmd_figures)

    fleet = sub.add_parser(
        "fleet",
        help="run N jobs against one shared store; emit fleet aggregates",
    )
    fleet.add_argument("--jobs", type=int, default=8)
    fleet.add_argument("--intervals", type=int, default=6)
    fleet.add_argument("--seed", type=int, default=0xF1EE7)
    fleet.add_argument(
        "--max-concurrent-writes", type=int, default=None,
        help="cap on simultaneous checkpoint writes under "
        "--admission static",
    )
    fleet.add_argument(
        "--admission", choices=["none", "static", "dynamic"],
        default="none",
        help="admission-control mode for checkpoint triggers: 'static' "
        "caps concurrent writes (needs --max-concurrent-writes), "
        "'dynamic' defers experimental triggers when the link's "
        "projected queue delay exceeds one checkpoint interval "
        "(prod always admitted)",
    )
    fleet.add_argument(
        "--admission-backlog-factor", type=float, default=1.0,
        help="dynamic admission threshold, in checkpoint intervals of "
        "projected backlog",
    )
    fleet.add_argument(
        "--restore-admission", choices=["none", "dynamic"],
        default="none",
        help="read-side admission for restores: 'dynamic' paces an "
        "experimental job's restore until the link's projected backlog "
        "(write parts + queued restore reads) drains to the threshold; "
        "prod restores always start at once",
    )
    fleet.add_argument(
        "--restore-backlog-factor", type=float, default=1.0,
        help="read-side pacing threshold, in checkpoint intervals of "
        "projected backlog",
    )
    fleet.add_argument(
        "--retention", choices=["chain_depth", "storm_aware"],
        default="chain_depth",
        help="retention flavour: 'storm_aware' bounds every job's "
        "restore chain at --storm-chain-limit by forcing baseline "
        "refreshes, so a correlated storm re-reads short chains "
        "(requires --storm)",
    )
    fleet.add_argument(
        "--storm-chain-limit", type=int, default=2,
        help="restore-chain length bound under --retention storm_aware",
    )
    fleet.add_argument(
        "--adaptive-chain", action="store_true",
        help="derive each job's storm chain limit from its expected "
        "storm read cost vs baseline-refresh write cost instead of "
        "the fixed --storm-chain-limit (requires --retention "
        "storm_aware)",
    )
    fleet.add_argument(
        "--restore-order", choices=["manifest", "hot_first"],
        default="manifest",
        help="row order for restore reads: 'hot_first' streams the "
        "hottest embedding rows first so training resumes before the "
        "full restore lands (improves time-to-first-batch in storm "
        "drains)",
    )
    fleet.add_argument(
        "--replicate-k", type=int, default=0, metavar="K",
        help="mirror each job's per-step delta into K peer jobs' "
        "bounded memory rings (a replication stream class below prod "
        "writes); the store only receives retention-boundary baseline "
        "flushes and recovery prefers the nearest live replica "
        "(same rack > cross rack > object store)",
    )
    fleet.add_argument(
        "--peer-ring-bytes", type=int, default=2 * 1024 * 1024,
        metavar="BYTES",
        help="per-replica delta-log capacity; older deltas fold into "
        "the ring's anchor when the log would overflow",
    )
    fleet.add_argument(
        "--baseline-flush-intervals", type=int, default=2,
        metavar="N",
        help="with --replicate-k, flush a full baseline to the store "
        "every Nth checkpoint interval (others are replicated only)",
    )
    fleet.add_argument(
        "--quota-bytes", type=int, default=None,
        help="per-job live physical-byte quota on the shared store",
    )
    fleet.add_argument(
        "--no-failures", action="store_true",
        help="disable failure injection in the heterogeneous run",
    )
    fleet.add_argument(
        "--priority-mix", type=float, default=0.0,
        help="fraction of jobs in the prod priority tier (0 disables "
        "tiering; prod streams get strict link priority)",
    )
    fleet.add_argument(
        "--storm", choices=list(STORM_DOMAINS), default=None,
        help="arm one correlated failure: a rack (--rack-size jobs) or "
        "the whole power domain dies at once mid-run",
    )
    fleet.add_argument(
        "--rack-size", type=int, default=4,
        help="jobs per rack when assigning rack failure domains",
    )
    fleet.add_argument(
        "--preempt-wait", type=float, default=0.1,
        help="link backlog (seconds) a prod transfer tolerates before "
        "preempting experimental staged writes",
    )
    fleet.add_argument(
        "--no-preempt", action="store_true",
        help="disable prod preemption of experimental staged writes",
    )
    fleet.add_argument(
        "--backend", choices=list(BACKEND_KINDS), default="memory",
        help="shared-store byte backend; 's3like' models per-op-class "
        "request latencies, multipart upload and ranged GETs",
    )
    fleet.add_argument(
        "--part-size", type=int, default=None, metavar="BYTES",
        help="multipart part size for --backend s3like (objects above "
        "this upload as parallel parts; default: single-shot PUTs)",
    )
    fleet.add_argument(
        "--part-fanout", type=int, default=4,
        help="parallel upload lanes for multipart parts / ranged GETs",
    )
    fleet.add_argument(
        "--put-latency", type=float, default=0.030, metavar="SECONDS",
        help="s3like per-request PUT latency",
    )
    fleet.add_argument(
        "--get-latency", type=float, default=0.020, metavar="SECONDS",
        help="s3like per-request GET latency",
    )
    fleet.add_argument(
        "--range-get", type=int, default=None, metavar="BYTES",
        help="split s3like GETs above this size into ranged sub-GETs",
    )
    fleet.add_argument(
        "--failure-prob", type=float, default=0.0, metavar="P",
        help="s3like transient-failure injection: each PUT/GET request "
        "fails with this probability and is retried by the transfer "
        "engine (deterministic under the seed)",
    )
    fleet.add_argument(
        "--write-bandwidth", type=float, default=None, metavar="B/S",
        help="shared-link write bandwidth in bytes/sec (default 1 GiB/s)",
    )
    fleet.add_argument(
        "--read-bandwidth", type=float, default=None, metavar="B/S",
        help="shared-link read bandwidth in bytes/sec (default 2 GiB/s)",
    )
    fleet.add_argument(
        "--cache-tier", action="store_true",
        help="layer an NVMe-class near tier (a write-back/write-through "
        "cache) over the shared backend; restores hit the near tier on "
        "a cache hit and spill to the far tier on a miss",
    )
    fleet.add_argument(
        "--cache-bytes", type=int, default=1024 * 1024, metavar="BYTES",
        help="near-tier capacity when --cache-tier is set",
    )
    fleet.add_argument(
        "--cache-policy", choices=["write_back", "write_through"],
        default="write_back",
        help="cache write policy: write_back acks at near-tier cost and "
        "flushes dirty objects asynchronously; write_through writes the "
        "far tier synchronously",
    )
    fleet.add_argument(
        "--bitrot-prob", type=float, default=0.0, metavar="P",
        help="silent-corruption injection: each stored PUT payload is "
        "bit-flipped with this probability (deterministic under "
        "--bitrot-seed); restores detect the damage via digests and "
        "fall back to older checkpoints",
    )
    fleet.add_argument(
        "--bitrot-seed", type=int, default=0xB17F,
        help="seed for the bit-rot injector's RNG",
    )
    fleet.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write fleet counters as a Prometheus textfile (.prom)",
    )
    fleet.add_argument(
        "--out", default="benchmarks/results",
        help="directory for fleet_aggregate.txt",
    )
    fleet.set_defaults(func=cmd_fleet)

    plan = sub.add_parser(
        "plan",
        help="capacity planner: sweep quota x retention x admission "
        "over one seeded fleet; emit the Fig-16 provisioning curve",
    )
    plan.add_argument("--jobs", type=int, default=8)
    plan.add_argument("--intervals", type=int, default=4)
    plan.add_argument("--seed", type=int, default=0xF1EE7)
    plan.add_argument(
        "--quotas", default="none",
        help="comma-separated per-job quota sweep in bytes; 'none' "
        "means unlimited (e.g. none,262144,524288)",
    )
    plan.add_argument(
        "--keep-last", default="1,2,3", dest="keep_last",
        help="comma-separated retention-depth sweep (checkpoints "
        "kept per job)",
    )
    plan.add_argument(
        "--admissions", default="none,dynamic",
        help="comma-separated admission-mode sweep: none, static "
        "(needs --max-concurrent-writes), dynamic",
    )
    plan.add_argument(
        "--max-concurrent-writes", type=int, default=None,
        help="concurrent-write cap used by the 'static' admission "
        "mode when it appears in --admissions",
    )
    plan.add_argument(
        "--storm", choices=list(STORM_DOMAINS), default=None,
        help="arm a correlated failure so every point also reports "
        "the fleet's storm time-to-recover",
    )
    plan.add_argument(
        "--rack-size", type=int, default=4,
        help="jobs per rack when assigning storm failure domains",
    )
    plan.add_argument(
        "--priority-mix", type=float, default=0.0,
        help="fraction of jobs in the prod priority tier",
    )
    plan.add_argument(
        "--no-failures", action="store_true",
        help="disable independent failure injection",
    )
    plan.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the curve as a Prometheus textfile (.prom)",
    )
    plan.add_argument(
        "--out", default="benchmarks/results",
        help="directory for plan_provisioning_curve.txt",
    )
    plan.set_defaults(func=cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="co-simulate the serving plane: checkpoints publish to "
        "inference servers answering row lookups",
    )
    serve.add_argument(
        "--servers", type=int, default=3, help="inference servers"
    )
    serve.add_argument(
        "--cache-rows", type=int, default=256,
        help="per-server row-cache capacity (pinned hot rows + LRU)",
    )
    serve.add_argument(
        "--qps", type=float, default=16.0,
        help="fleet-wide lookup arrival rate",
    )
    serve.add_argument(
        "--queries", type=int, default=300, help="lookup requests"
    )
    serve.add_argument(
        "--intervals", type=int, default=6,
        help="checkpoint intervals the training job runs underneath",
    )
    serve.add_argument(
        "--interval-batches", type=int, default=25,
        help="training batches per checkpoint interval",
    )
    serve.add_argument(
        "--tables", type=int, default=2, help="embedding tables"
    )
    serve.add_argument(
        "--rows", type=int, default=2048,
        help="rows per embedding table",
    )
    serve.add_argument(
        "--chunk-rows", type=int, default=256,
        help="embedding rows per checkpoint chunk (the ranged-GET unit "
        "serving misses read)",
    )
    serve.add_argument(
        "--pin-rows", type=int, default=48,
        help="hot rows the publisher announces (and servers pin) per "
        "table",
    )
    serve.add_argument(
        "--no-warm-pins", action="store_true",
        help="disable hot-row prefetch at version flips",
    )
    serve.add_argument(
        "--no-verify", action="store_true",
        help="skip the golden-snapshot torn-lookup verifier",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--out", default="benchmarks/results",
        help="directory for serving_cli_report.txt",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write serving counters as a Prometheus textfile (.prom)",
    )
    serve.set_defaults(func=cmd_serve)
    return parser


def cmd_figures(args: argparse.Namespace) -> int:
    from .figures import render_all

    print(render_all())
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run a heterogeneous fleet + the Fig 17 fleet-aggregate comparison.

    With ``--priority-mix``/``--storm`` the run also produces the
    fleet-storm table: restore-latency distribution, contention
    degradation, preemption counts and goodput per priority tier,
    written to ``fleet_cli_storm.txt`` next to the aggregate artifact.
    """
    from ..fleet import (
        fleet_reduction_experiment,
        format_fleet_report,
        format_storm_report,
        run_fleet,
    )

    if args.failure_prob > 0.0 and args.backend != "s3like":
        print(
            "warning: --failure-prob only injects on --backend s3like; "
            "ignoring it",
            file=sys.stderr,
        )
    storage_kwargs: dict = {}
    if args.write_bandwidth is not None:
        storage_kwargs["write_bandwidth"] = args.write_bandwidth
    if args.read_bandwidth is not None:
        storage_kwargs["read_bandwidth"] = args.read_bandwidth
    storage = StorageConfig(
        backend=BackendConfig(
            kind=args.backend,
            part_size_bytes=args.part_size,
            multipart_fanout=args.part_fanout,
            put_latency_s=args.put_latency,
            get_latency_s=args.get_latency,
            range_get_bytes=args.range_get,
            put_failure_prob=args.failure_prob,
            get_failure_prob=args.failure_prob,
            cache_bytes=args.cache_bytes if args.cache_tier else 0,
            cache_policy=args.cache_policy,
        ),
        **storage_kwargs,
    )
    config = FleetConfig(
        num_jobs=args.jobs,
        intervals_per_job=args.intervals,
        seed=args.seed,
        max_concurrent_writes=args.max_concurrent_writes,
        admission_mode=args.admission,
        admission_backlog_factor=args.admission_backlog_factor,
        restore_admission=args.restore_admission,
        restore_backlog_factor=args.restore_backlog_factor,
        retention_mode=args.retention,
        storm_chain_limit=args.storm_chain_limit,
        storm_chain_adaptive=args.adaptive_chain,
        restore_order=args.restore_order,
        replicate_k=args.replicate_k,
        peer_ring_bytes=args.peer_ring_bytes,
        baseline_flush_intervals=args.baseline_flush_intervals,
        per_job_quota_bytes=args.quota_bytes,
        inject_failures=not args.no_failures,
        priority_mix=args.priority_mix,
        storm_domain=args.storm,
        rack_size=args.rack_size,
        preempt_wait_s=args.preempt_wait,
        preempt_staged_writes=not args.no_preempt,
        bitrot_prob=args.bitrot_prob,
        bitrot_seed=args.bitrot_seed,
        storage=storage,
    )
    _, report = run_fleet(config)
    reduction = fleet_reduction_experiment(config)
    # The aggregate header names every knob that shaped the run, so
    # the artifact stays reproducible from its own first line.
    variant = ""
    if args.priority_mix > 0.0:
        variant += f", priority mix {args.priority_mix:.2f}"
    if args.storm is not None:
        variant += f", storm {args.storm}"
    if args.backend != "memory":
        variant += f", backend {args.backend}"
        if args.part_size is not None:
            variant += f" (part {args.part_size} B x{args.part_fanout})"
    if config.admission_mode != "none":
        variant += f", admission {config.admission_mode}"
    if args.restore_admission != "none":
        variant += f", restore admission {args.restore_admission}"
    if args.retention != "chain_depth":
        if args.adaptive_chain:
            variant += f", retention {args.retention} (adaptive chain)"
        else:
            variant += (
                f", retention {args.retention}"
                f" (chain <= {args.storm_chain_limit})"
            )
    if args.restore_order != "manifest":
        variant += f", restore order {args.restore_order}"
    if args.replicate_k > 0:
        variant += (
            f", replicate k={args.replicate_k} "
            f"(ring {args.peer_ring_bytes} B, baseline every "
            f"{args.baseline_flush_intervals})"
        )
    if args.failure_prob > 0.0 and args.backend == "s3like":
        variant += f", failure prob {args.failure_prob:g}"
    if args.cache_tier:
        variant += (
            f", cache {args.cache_policy} ({args.cache_bytes} B)"
        )
    if args.bitrot_prob > 0.0:
        variant += f", bit rot {args.bitrot_prob:g}"
    body = "\n".join(
        [
            f"== Fleet run: {args.jobs} jobs x {args.intervals} "
            f"intervals (seed {args.seed}{variant}) ==",
            format_fleet_report(report),
            "",
            reduction.format(),
            "",
        ]
    )
    out_dir = Path(args.out)
    _emit(
        body,
        out_dir / "fleet_cli_aggregate.txt",
        args.metrics_out,
        metrics.fleet_metrics(report),
    )
    # Wall-clock, so stdout only: the artifact reproduces byte for byte.
    print(
        f"quantize pool (measured): {report.pool_busy_s:.3f} s busy, "
        f"{report.pool_wait_s:.3f} s blocked, "
        f"{report.pool_overlap_s:.3f} s overlapped"
    )
    if args.priority_mix > 0.0 or args.storm is not None:
        storm_body = "\n".join(
            [
                f"== Fleet storm run: {args.jobs} jobs, priority mix "
                f"{args.priority_mix:.2f}, storm "
                f"{args.storm or 'none'} (seed {args.seed}) ==",
                format_storm_report(report),
                "",
            ]
        )
        _emit(storm_body, out_dir / "fleet_cli_storm.txt")
    return 0


def _parse_sweep(raw: str, name: str) -> list:
    """Parse a comma-separated sweep axis; 'none' maps to None."""
    values: list = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "none":
            values.append(None)
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise ReproError(
                    f"bad {name} value {token!r}: expected an "
                    "integer or 'none'"
                ) from None
    if not values:
        raise ReproError(f"empty {name} sweep")
    return values


def cmd_plan(args: argparse.Namespace) -> int:
    """Sweep provisioning knobs and emit the Fig-16 capacity curve.

    Each grid point re-runs the *same seeded fleet* with one
    (quota, retention depth, admission mode) combination, and the
    table reports the peak storage / peak link bandwidth / storm
    time-to-recover that setting would need — the numbers an operator
    provisions the checkpoint store from.
    """
    from ..fleet import run_plan

    quotas = _parse_sweep(args.quotas, "--quotas")
    keep_lasts = [
        k for k in _parse_sweep(args.keep_last, "--keep-last")
        if k is not None
    ]
    admissions = [
        token.strip()
        for token in args.admissions.split(",")
        if token.strip()
    ]
    base = FleetConfig(
        num_jobs=args.jobs,
        intervals_per_job=args.intervals,
        seed=args.seed,
        # The base only carries the cap for the sweep's static points.
        max_concurrent_writes=args.max_concurrent_writes,
        admission_mode=(
            "none" if args.max_concurrent_writes is None else "static"
        ),
        inject_failures=not args.no_failures,
        priority_mix=args.priority_mix,
        storm_domain=args.storm,
        rack_size=args.rack_size,
    )
    points = len(quotas) * len(keep_lasts) * len(admissions)
    print(
        f"sweeping {points} points ({len(quotas)} quotas x "
        f"{len(keep_lasts)} retention depths x {len(admissions)} "
        f"admission modes), {args.jobs} jobs each..."
    )
    curve = run_plan(
        base,
        quotas=quotas,
        keep_lasts=keep_lasts,
        admissions=admissions,
    )
    _emit(
        curve.format() + "\n",
        Path(args.out) / "plan_provisioning_curve.txt",
        args.metrics_out,
        metrics.plan_metrics(curve),
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the checkpoint-to-inference serving-plane co-simulation.

    One training job checkpoints under Check-N-Run while the serving
    fleet answers Zipfian row lookups against the latest published
    version — writes, publish reads and lookup GETs share one link.
    The report (lookup percentiles, cache hit rate, version flips and
    the must-be-zero torn-lookup count) lands in
    ``serving_cli_report.txt``.
    """
    import dataclasses

    from ..serving import ServingConfig, format_serving_report, run_serving

    config = small_config(
        policy="consecutive",
        interval_batches=args.interval_batches,
        num_tables=args.tables,
        rows_per_table=args.rows,
        batch_size=64,
    )
    config = dataclasses.replace(
        config,
        checkpoint=dataclasses.replace(
            config.checkpoint, chunk_rows=args.chunk_rows
        ),
    )
    serving = ServingConfig(
        num_servers=args.servers,
        cache_rows=args.cache_rows,
        qps=args.qps,
        num_queries=args.queries,
        hot_rows_per_table=args.pin_rows,
        warm_pins=not args.no_warm_pins,
        verify=not args.no_verify,
        seed=args.seed,
        train_intervals=args.intervals,
    )
    report = run_serving(config, serving)
    body = "\n".join(
        [
            f"== Serving run: {args.servers} servers x "
            f"{args.cache_rows} cache rows, {args.qps:g} qps over "
            f"{args.queries} queries (seed {args.seed}) ==",
            format_serving_report(report),
        ]
    )
    _emit(
        body,
        Path(args.out) / "serving_cli_report.txt",
        args.metrics_out,
        metrics.serving_metrics(report),
    )
    return 1 if report.torn_lookups else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
