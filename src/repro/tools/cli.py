"""Command-line interface: run jobs, fleets; inspect and scan checkpoints.

Usage (after ``pip install -e .``)::

    python -m repro.tools run --store-dir /tmp/ckpts --intervals 4
    python -m repro.tools inspect --store-dir /tmp/ckpts --job job0
    python -m repro.tools scan --store-dir /tmp/ckpts --job job0
    python -m repro.tools scan --store-dir /tmp/ckpts --no-quarantine
    python -m repro.tools restore --store-dir /tmp/ckpts --job job0
    python -m repro.tools fleet --jobs 8 --intervals 4
    python -m repro.tools plan --jobs 8 --quotas none,262144
    python -m repro.tools serve --servers 3 --cache-rows 256

``run`` persists checkpoints (and the job's configuration) to a
directory-backed object store, so a later ``restore`` in a *different
process* rebuilds the model and resumes — the same crash-restart flow
the in-memory examples demonstrate, but across real process boundaries.
``scan --no-quarantine`` is the read-only integrity check: it reports
corrupt, missing, truncated and torn objects and modifies nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..config import (
    BackendConfig,
    ExperimentConfig,
    FleetConfig,
    StorageConfig,
    declared_settings,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from ..core.integrity import format_integrity_report, scan_job
from ..core.controller import CheckNRun
from ..core.restore import RestoreReport
from ..distributed.clock import SimClock
from ..errors import CheckpointNotFoundError, ReproError
from ..experiments.common import build_experiment, small_config
from ..serving import ServingConfig
from ..storage.object_store import ObjectStore
from ..storage.requests import OP_GET, OP_HEAD
from . import metrics
from .inspect import format_summaries, summarize_job

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


def _stored_config(store: ObjectStore, job: str) -> ExperimentConfig | None:
    """The configuration ``repro run`` stored for ``job``, if any.

    Read untimed: checking a job's settings is not checkpoint traffic.
    """
    key = JOB_CONFIG_KEY.format(job=job)
    if not store.engine.retry_probe(OP_HEAD, key):
        return None
    blob = store.engine.retry_probe(OP_GET, key)
    return experiment_config_from_dict(json.loads(blob))


def _resume(controller: CheckNRun) -> RestoreReport | None:
    """Restore a job from the checkpoints an earlier process stored.

    Returns None when the job has none. The fresh process's clock
    starts at zero, before the stored checkpoints' validity times, so
    it is fast-forwarded past the newest one first.
    """
    existing = controller.restorer.list_manifests(controller.job_id)
    if not existing:
        return None
    newest_valid = max(m.valid_at_s for m in existing.values())
    controller.clock.advance_to(newest_valid + 1.0, "prior-history")
    controller.adopt_manifests(existing)
    return controller.restore_latest()


def cmd_run(args: argparse.Namespace) -> int:
    # Everything is checked before the first write: a rejected run
    # leaves the store byte-identical.
    if args.intervals < 1:
        raise ReproError("--intervals must be at least 1")
    config = small_config(
        policy=args.policy,
        quantizer=args.quantizer,
        bit_width=args.bits,
        interval_batches=args.interval_batches,
        num_tables=args.tables,
        rows_per_table=args.rows,
    )
    given = experiment_config_to_dict(config)
    clock = SimClock()
    store = _open_store(args.store_dir, clock)
    stored = _stored_config(store, args.job)
    kept = given if stored is None else experiment_config_to_dict(stored)
    differ = [
        f"{section}.{name}"
        for section, fields in given.items()
        for name, value in fields.items()
        if kept[section][name] != value
    ]
    if differ:
        names = ", ".join(differ)
        raise ReproError(f"job {args.job!r} was created with other {names}")
    controller = build_experiment(
        config, job_id=args.job, store=store, clock=clock
    ).controller
    if stored is None:
        blob = json.dumps(given).encode("utf-8")
        store.put(JOB_CONFIG_KEY.format(job=args.job), blob)
    report = _resume(controller)
    if report is not None:
        print(
            f"resumed {report.checkpoint_id} at batch "
            f"{controller.trainer.model.batches_trained}"
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


def cmd_scan(args: argparse.Namespace) -> int:
    """End-to-end integrity scan: digests, truncation, torn writes.

    Verifies every stored object against the manifest's sha256 digests
    and expected sizes (a manifest missing a digest is corrupt), detects
    torn checkpoints (objects without a manifest), and quarantines
    corrupt checkpoints so restore planning skips them — unless
    ``--no-quarantine``, which leaves the store untouched.
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
    config = _stored_config(store, args.job)
    if config is None:
        raise ReproError(
            f"no stored configuration for job {args.job!r}; was it "
            "created with `repro run`?"
        )
    controller = build_experiment(
        config, job_id=args.job, store=store, clock=clock
    ).controller
    report = _resume(controller)
    if report is None:
        raise CheckpointNotFoundError(
            f"job {args.job!r} has no checkpoint to restore"
        )
    print(
        f"restored {report.checkpoint_id} "
        f"(chain {' -> '.join(report.chain_ids)}): "
        f"{report.rows_restored} rows, "
        f"{report.bytes_read / 1024:.0f} KiB, model at batch "
        f"{controller.trainer.model.batches_trained}"
    )
    return 0


#: The flags that are exactly one config field's value, per command, in
#: ``docs/cli.md`` row order. ``build_parser`` slices them only to keep
#: the hand-written flags in their rows.
FLEET_SETTINGS = (
    "num_jobs", "intervals_per_job", "seed", "max_concurrent_writes",
    "admission_mode", "admission_backlog_factor", "restore_admission",
    "restore_backlog_factor", "retention_mode", "storm_chain_limit",
    "storm_chain_adaptive", "restore_order", "replicate_k",
    "peer_ring_bytes", "baseline_flush_intervals", "per_job_quota_bytes",
    "inject_failures", "priority_mix", "storm_domain", "rack_size",
    "preempt_wait_s", "preempt_staged_writes", "bitrot_prob", "bitrot_seed",
)
FLEET_BACKEND_SETTINGS = (
    "kind", "part_size_bytes", "multipart_fanout", "put_latency_s",
    "get_latency_s", "range_get_bytes", "cache_policy",
)
PLAN_SETTINGS = (
    "num_jobs", "intervals_per_job", "seed", "max_concurrent_writes",
    "storm_domain", "rack_size", "priority_mix", "inject_failures",
)
SERVE_SETTINGS = (
    "num_servers", "cache_rows", "qps", "num_queries", "train_intervals",
    "hot_rows_per_table", "warm_pins", "verify", "seed",
)
#: StorageConfig fields whose flags default to unset, not to the field.
_BANDWIDTHS = ("write_bandwidth", "read_bandwidth")
#: Where a command's default differs from the field's.
FLEET_DEFAULTS = dict(intervals_per_job=6)
SERVE_DEFAULTS = dict(
    num_servers=3, qps=16.0, num_queries=300, hot_rows_per_table=48
)


def add_settings(parser, cls, names, **cli_defaults) -> None:
    """Add one flag per named :func:`~repro.config.setting` of ``cls``.

    The dest is the field name, a bool becomes a ``store_true`` /
    ``store_false`` switch, and ``cli_defaults`` overrides a field's
    default for this command.
    """
    declared = declared_settings(cls)
    for name in names:
        spec = declared[name]
        default = cli_defaults.get(name, spec.default)
        kwargs = {"dest": name, "default": default, "help": spec.help}
        if spec.type is bool:
            kwargs["action"] = "store_false" if default else "store_true"
        else:
            kwargs.update(type=spec.type, choices=spec.choices)
            # argparse shows a choice flag's choices in its place.
            kwargs["metavar"] = None if spec.choices else spec.metavar
        parser.add_argument(spec.flag, **kwargs)


def settings(args: argparse.Namespace, names) -> dict:
    """The named settings' parsed values, keyed by field name."""
    return {name: getattr(args, name) for name in names}


def setting_argv(config, names, **cli_defaults) -> list[str]:
    """The flags that set each named setting of ``config`` that is off
    its default (the field's, or the command's ``cli_defaults``)."""
    declared = declared_settings(type(config))
    argv = []
    for name in names:
        spec = declared[name]
        value = getattr(config, name)
        if value != cli_defaults.get(name, spec.default):
            argv.append(spec.flag)
            if spec.type is not bool:
                argv.append(str(value))
    return argv


def _store_command(
    sub, name: str, func, help: str, job_help: str | None = None,
    store_help: str = "directory of the file-backed object store",
) -> argparse.ArgumentParser:
    """A subcommand working on one job of a file-backed store."""
    cmd = sub.add_parser(name, help=help)
    cmd.add_argument("--store-dir", required=True, help=store_help)
    cmd.add_argument(
        "--job", default="job0", help=job_help or f"job id to {name}"
    )
    cmd.set_defaults(func=func)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Check-N-Run reproduction tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = _store_command(
        sub, "run", cmd_run, "train a job with checkpoints",
        job_help="job id (namespace)",
        store_help="directory for the file-backed object store",
    )
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

    _store_command(sub, "inspect", cmd_inspect, "list a job's checkpoints")
    scan = _store_command(
        sub, "scan", cmd_scan,
        "verify digests end-to-end; quarantine corrupt checkpoints",
    )
    scan.add_argument(
        "--no-quarantine", action="store_true",
        help="report corruption but leave manifests unmodified",
    )
    scan.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write scan counters as a Prometheus textfile (.prom)",
    )
    _store_command(
        sub, "restore", cmd_restore, "restore a job's newest checkpoint"
    )

    figures = sub.add_parser(
        "figures", help="print the quick paper-figure reproductions"
    )
    figures.set_defaults(func=cmd_figures)

    fleet = sub.add_parser(
        "fleet",
        help="run N jobs against one shared store; emit fleet aggregates",
    )
    add_settings(fleet, FleetConfig, FLEET_SETTINGS[:-2], **FLEET_DEFAULTS)
    add_settings(fleet, BackendConfig, FLEET_BACKEND_SETTINGS[:-1])
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
    add_settings(fleet, BackendConfig, FLEET_BACKEND_SETTINGS[-1:])
    add_settings(fleet, FleetConfig, FLEET_SETTINGS[-2:])
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
    add_settings(plan, FleetConfig, PLAN_SETTINGS[:3])
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
    add_settings(plan, FleetConfig, PLAN_SETTINGS[3:])
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
    add_settings(serve, ServingConfig, SERVE_SETTINGS[:5], **SERVE_DEFAULTS)
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
    add_settings(serve, ServingConfig, SERVE_SETTINGS[5:], **SERVE_DEFAULTS)
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


def fleet_config(args: argparse.Namespace) -> FleetConfig:
    """The FleetConfig that ``repro fleet``'s parsed flags describe."""
    backend = BackendConfig(
        **settings(args, FLEET_BACKEND_SETTINGS),
        put_failure_prob=args.failure_prob,
        get_failure_prob=args.failure_prob,
        cache_bytes=args.cache_bytes if args.cache_tier else 0,
    )
    # Unset link bandwidths keep the StorageConfig defaults.
    bandwidths = {
        name: value
        for name, value in settings(args, _BANDWIDTHS).items()
        if value is not None
    }
    return FleetConfig(
        **settings(args, FLEET_SETTINGS),
        storage=StorageConfig(backend=backend, **bandwidths),
    )


def fleet_header(config: FleetConfig) -> str:
    """Line 1 of the fleet artifact: the run's shape, seed and every
    flag that moves it off the defaults, so the artifact is
    reproducible from its own first line."""
    backend = config.storage.backend
    flags = (
        setting_argv(config, FLEET_SETTINGS[3:])
        + setting_argv(config.storage, _BANDWIDTHS)
        + setting_argv(backend, FLEET_BACKEND_SETTINGS)
    )
    if backend.put_failure_prob > 0.0 and backend.kind == "s3like":
        flags += ["--failure-prob", str(backend.put_failure_prob)]
    if backend.cache_bytes:
        flags += ["--cache-tier", "--cache-bytes", str(backend.cache_bytes)]
    variant = f", {' '.join(flags)}" if flags else ""
    return (
        f"== Fleet run: {config.num_jobs} jobs x "
        f"{config.intervals_per_job} intervals "
        f"(seed {config.seed}{variant}) =="
    )


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

    if args.failure_prob > 0.0 and args.kind != "s3like":
        print(
            "warning: --failure-prob only injects on --backend s3like; "
            "ignoring it",
            file=sys.stderr,
        )
    config = fleet_config(args)
    _, report = run_fleet(config)
    reduction = fleet_reduction_experiment(config)
    body = "\n".join(
        [
            fleet_header(config),
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
    if config.priority_mix > 0.0 or config.storm_domain is not None:
        storm_body = "\n".join(
            [
                f"== Fleet storm run: {config.num_jobs} jobs, priority mix "
                f"{config.priority_mix:.2f}, storm "
                f"{config.storm_domain or 'none'} (seed {config.seed}) ==",
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
        **settings(args, PLAN_SETTINGS),
        # The base only carries the cap for the sweep's static points.
        admission_mode=(
            "none" if args.max_concurrent_writes is None else "static"
        ),
    )
    points = len(quotas) * len(keep_lasts) * len(admissions)
    print(
        f"sweeping {points} points ({len(quotas)} quotas x "
        f"{len(keep_lasts)} retention depths x {len(admissions)} "
        f"admission modes), {base.num_jobs} jobs each..."
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

    from ..serving import format_serving_report, run_serving

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
    serving = ServingConfig(**settings(args, SERVE_SETTINGS))
    report = run_serving(config, serving)
    body = "\n".join(
        [
            f"== Serving run: {serving.num_servers} servers x "
            f"{serving.cache_rows} cache rows, {serving.qps:g} qps over "
            f"{serving.num_queries} queries (seed {serving.seed}) ==",
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
