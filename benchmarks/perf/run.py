"""The repo benchmark: four seeded workloads, two clocks, per-layer trace.

Two ways in:

* ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
  --trace 0|1`` measures one workload in *this* (fresh) interpreter and
  prints, as its last line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
  with ``--trace 0``, the per-layer ones with ``--trace 1``.
* without ``--workload`` it runs every workload, each pass in its own
  fresh interpreter, and writes one result file (``--out``) with an
  environment stamp: the file ``compare.py`` reads.

End-to-end numbers only ever come from untraced repeats. The traced
pass alternates untraced and traced repeats in one interpreter, so the
tracing overhead it reports compares like with like.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fresh-interpreter set-up probes per untraced pass (this interpreter
#: is the first; the rest are child processes).
SETUP_PROBES = 5
#: The Chrome trace keeps the first this-many spans of a repeat (the
#: per-layer table and metrics always cover every span).
TRACE_EVENT_CAP = 60_000


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program():
    """Make ``repro`` and the benchmark's own modules importable."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"error: no program to measure: {SRC / 'repro'} is missing")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def probe_setup(name: str, seed: int, quick: bool):
    """Import the program and build one workload; returns (s, state).

    Only meaningful as the first thing a fresh interpreter does: the
    measured time is ``import repro`` plus the workload's build.
    """
    start = perf_counter()
    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](quick)
    state = workload.build(seed)
    return perf_counter() - start, workload, state


def _child_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--probe"]
    cmd += ["--workload", name, "--seed", str(seed)]
    done = subprocess.run(
        cmd, capture_output=True, text=True, check=True, timeout=170
    )
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One pass (one workload, this interpreter)
# ----------------------------------------------------------------------


def _summary(
    unit: str, better: str, samples: list[float], value: float | None = None
) -> dict:
    """One metric of one pass: the reported value and its samples.

    Host noise here is one-sided and bursty (a neighbour can only slow
    a repeat down), so the reported value of a timing is its *best*
    sample — the repeat the host disturbed least — which repeats far
    better across runs than the median does. Median and quartiles ride
    along for ``compare.py``'s spread check.
    """
    best = min(samples) if better == "lower" else max(samples)
    q1 = median = q3 = samples[0]
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {
        "value": best if value is None else value,
        "unit": unit,
        "better": better,
        "n": len(samples),
        "median": median,
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }


@dataclass
class Repeat:
    """One build + run + after + outcome of a workload."""

    wall_s: float
    outcome: object
    #: Traced repeats only: per-layer values, and the spans they came
    #: from (kept for the newest traced repeat alone — the trace file).
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_repeat(workload, seed: int, state=None) -> Repeat:
    """An untraced repeat; ``state`` reuses the set-up probe's build."""
    if state is None:
        state = workload.build(seed)
    start = perf_counter()
    workload.run(state)
    wall_s = perf_counter() - start
    workload.after(state)
    return Repeat(wall_s, workload.outcome(state, wall_s))


def run_traced_repeat(workload, seed: int, tracer) -> Repeat:
    """A repeat with every layer hook installed around build and run."""
    from layers import HOOKS
    from tracer import install

    gc_runs = 0

    def on_gc(phase, info):
        nonlocal gc_runs
        gc_runs += phase == "start"

    # Before build: objects capture bound methods (step hooks) when
    # they are wired, so the wrappers must already be in.
    installed = install(tracer, HOOKS)
    gc.callbacks.append(on_gc)
    try:
        state = workload.build(seed)
        cpu = time.process_time()
        root = tracer.begin("bench.run")
        start = perf_counter()
        workload.run(state)
        wall_s = perf_counter() - start
        tracer.end(root)
        cpu = time.process_time() - cpu
        spans, counts = tracer.drain()
        collections = gc_runs
        workload.after(state)
    finally:
        gc.callbacks.remove(on_gc)
        installed.remove()
        tracer.drain()  # spans of after(): outside wall_s
    layers = _layer_values(spans, counts, wall_s)
    layers["proc.cpu_s"] = cpu
    layers["proc.gc_collections"] = collections
    return Repeat(wall_s, workload.outcome(state, wall_s), layers, spans)


def _layer_values(spans: list, counts: dict, wall_s: float) -> dict:
    """Per-layer metric values of one traced repeat."""
    from metrics import LAYERS
    from tracer import totals_by_name

    totals = totals_by_name(spans)
    values: dict[str, float] = {}
    for layer in LAYERS:
        if layer.source == "self":
            value = sum(totals.self_s.get(k, 0.0) for k in layer.keys)
        elif layer.source == "duration":
            value = sum(totals.duration_s.get(k, 0.0) for k in layer.keys)
        elif layer.source == "calls":
            value = sum(totals.calls.get(k, 0) for k in layer.keys)
        elif layer.source == "count":
            value = sum(counts.get(k, 0) for k in layer.keys) / layer.scale
        else:
            continue  # derived: below, or by the caller
        values[layer.name] = value
    values["pool.overlap_s"] = max(
        0.0, values["pool.busy_s"] - values["pool.wait_s"]
    )
    lookups = values["rowcache.hits"] + values["rowcache.misses"]
    values["rowcache.hit_ratio"] = (
        values["rowcache.hits"] / lookups if lookups else 0.0
    )
    values["trace.spans"] = len(spans)
    # Share of the traced wall that lands in a named layer: whatever
    # the root span keeps as self time was spent in unwrapped code.
    values["trace.attributed_frac"] = (
        1.0 - totals.self_s["bench.run"] / wall_s
    )
    return values


def _write_trace_artifacts(
    out_dir: Path, name: str, repeat: Repeat, cap: int
) -> None:
    from tracer import totals_by_name, write_chrome_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    cut = write_chrome_trace(repeat.spans, out_dir / f"{name}.trace.json", cap)
    root = next(s for s in repeat.spans if s.name == "bench.run")
    lines = [
        f"{name}: self time per layer span, one traced repeat "
        f"(wall {repeat.wall_s:.4f} s, {len(repeat.spans)} spans"
        + (f", trace file cut to the first {cut}" if cut else "")
        + ")",
        "main = the thread that ran the workload (shares add up to 100%);"
        " pool = engine worker threads, running beside it",
        f"{'span':30s} {'thread':6s} {'self_s':>10s} {'share':>7s}"
        f" {'calls':>9s}",
    ]
    for on_main in (True, False):
        totals = totals_by_name(
            [s for s in repeat.spans if (s.thread == root.thread) == on_main]
        )
        for span_name, self_s in sorted(
            totals.self_s.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"{span_name:30s} {'main' if on_main else 'pool':6s} "
                f"{self_s:10.4f} {self_s / repeat.wall_s:7.1%} "
                f"{totals.calls[span_name]:9d}"
            )
    (out_dir / f"{name}.layers.txt").write_text("\n".join(lines) + "\n")


def _tally(repeats: list[Repeat]) -> dict[str, list[int]]:
    """``{check: [attempted, failed]}`` over every repeat of a pass."""
    checks: dict[str, list[int]] = {}
    for repeat in repeats:
        for check, attempted, failed in repeat.outcome.checks:
            entry = checks.setdefault(check, [0, 0])
            entry[0] += attempted
            entry[1] += failed
    digests = {r.outcome.digest for r in repeats}
    checks["sim_digest_repeats"] = [len(repeats), len(digests) - 1]
    return checks


def _detail_metrics(plain: list[Repeat], failed_frac: float) -> dict:
    """The report-level details, from a pass's untraced repeats."""
    from metrics import DETAILS, percentile

    # Simulated ones from any repeat: the digest check proves all equal.
    sim = plain[0].outcome.sim
    restore_ms = [
        ms
        for repeat in plain
        for ms in repeat.outcome.samples.get("restore_wall_ms", [])
    ]
    pooled = {"restore_wall_ms_p50": 0.5, "restore_wall_ms_p80": 0.8}
    metrics = {}
    for detail in DETAILS:
        value = None
        if detail.name == "failed_frac":
            samples = [failed_frac]
        elif detail.name.startswith("sim_"):
            samples = [sim[detail.name]] if detail.name in sim else []
        else:
            samples = [
                r.outcome.detail[detail.name]
                for r in plain
                if detail.name in r.outcome.detail
            ]
            if samples and detail.name in pooled:
                # Value over all restores of the pass; the per-repeat
                # figures in ``samples`` only show its spread.
                value = percentile(restore_ms, pooled[detail.name])
        if samples:
            metrics[detail.name] = _summary(
                detail.unit, detail.better, samples, value
            )
        else:
            # Not defined on this workload: reported as 0 so that the
            # traced pass always emits every per-layer name.
            metrics[detail.name] = _summary(detail.unit, detail.better, [0.0])
            metrics[detail.name]["n"] = 0
    return metrics


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    out_dir: Path,
) -> dict:
    """Measure one workload in this interpreter; returns the pass record."""
    setup_s, workload, state = probe_setup(name, seed, quick)
    from metrics import END_TO_END, LAYERS

    setup_samples = [setup_s]
    if not trace and not quick:
        setup_samples += [
            _child_probe(name, seed) for _ in range(SETUP_PROBES - 1)
        ]

    # The probe's build is the first untraced repeat. No repeat is set
    # aside as a warm-up: a slow first repeat cannot be the best one.
    plain = [run_repeat(workload, seed, state)]
    del state
    traced: list[Repeat] = []
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    def one_round() -> None:
        """One more untraced repeat, or a (traced, untraced) pair."""
        if trace:
            gc.collect()
            tracer.run_id += 1
            if traced:
                traced[-1].spans = []
            traced.append(run_traced_repeat(workload, seed, tracer))
        if not quick:
            gc.collect()
            plain.append(run_repeat(workload, seed))

    if quick:
        if trace:
            one_round()
    else:
        # Stop when another round of the average cost would overrun.
        min_rounds = 1 if trace else 2
        started = perf_counter()
        rounds = 0
        while rounds < min_rounds or (
            (perf_counter() - started) * (1 + 1 / rounds) <= seconds
        ):
            one_round()
            rounds += 1

    checks = _tally(plain + traced)
    attempted = sum(a for a, _ in checks.values())
    failed = sum(f for _, f in checks.values())

    metrics: dict[str, dict] = {}
    walls = [r.wall_s for r in plain]
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": setup_samples,
            "wall_s": walls,
            "peak_rss_mb": [rss_mb],
        }
        # The contract asks for the median of the set-up probes.
        reported = {"setup_s": statistics.median(setup_samples)}
        for metric in END_TO_END:
            metrics[metric.name] = _summary(
                metric.unit,
                metric.better,
                values[metric.name],
                reported.get(metric.name),
            )
    metrics.update(_detail_metrics(plain, failed / attempted))
    if trace:
        overhead = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(walls)
            - 1.0
        )
        for repeat in traced:
            repeat.layers["trace.overhead_frac"] = overhead
        for layer in LAYERS:
            samples = [r.layers[layer.name] for r in traced]
            metrics[layer.name] = _summary(
                layer.unit, layer.better, samples, statistics.median(samples)
            )
        cap = TRACE_EVENT_CAP // 10 if quick else TRACE_EVENT_CAP
        _write_trace_artifacts(out_dir, name, traced[-1], cap)

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "quick": quick,
        "seconds": seconds,
        "repeats": len(plain),
        "traced_repeats": len(traced),
        "setup_probes": len(setup_samples),
        "sim_digest": plain[0].outcome.digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": metrics,
    }


def print_pass(record: dict) -> None:
    kind = "traced" if record["trace"] else "untraced"
    print(
        f"== {record['workload']} seed={record['seed']} {kind} pass: "
        f"{record['repeats']} untraced + {record['traced_repeats']} traced "
        f"repeats, {record['setup_probes']} set-up probes, "
        f"failed {record['failed']}/{record['attempted']}, "
        f"sim_digest {record['sim_digest'][:16]}"
    )
    for name, metric in record["metrics"].items():
        if metric["n"] == 0:
            continue
        spread = ""
        if metric["n"] > 1:
            spread = (
                f"  [median {metric['median']:.6g},"
                f" q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]"
            )
        print(
            f"  {name:32s} {metric['value']:14.6g} {metric['unit']:6s}"
            f" n={metric['n']:<3d}{spread}"
        )


def contract_line(record: dict) -> str:
    """The driver's last line: bounded metrics, or per-layer ones."""
    from metrics import END_TO_END, per_layer_names

    names = (
        per_layer_names()
        if record["trace"]
        else [m.name for m in END_TO_END]
    )
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {
                    "value": record["metrics"][name]["value"],
                    "unit": record["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


# ----------------------------------------------------------------------
# Every workload, each pass in a fresh interpreter
# ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def _child_pass(
    name: str, trace: int, args: argparse.Namespace, out_dir: Path
) -> dict:
    """One pass of one workload in a fresh interpreter."""
    scratch = out_dir / f".{name}.{trace}.pass.json"
    cmd = [sys.executable, str(HERE / "run.py")]
    cmd += ["--workload", name, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
    cmd += ["--out", str(scratch), "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(
            cmd, check=True, timeout=900, stdout=subprocess.PIPE, text=True
        )
        # Everything but the driver's contract line (the last one).
        print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
        return json.loads(scratch.read_text())
    finally:
        scratch.unlink(missing_ok=True)


def run_all(args: argparse.Namespace, out_dir: Path) -> int:
    _import_program()
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    result = {
        "env": environment(args.seed),
        "quick": args.quick,
        "seconds": args.seconds,
        "workloads": {},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in names:
        passes = {}
        for trace in (0, 1) if args.trace else (0,):
            key = "traced" if trace else "end_to_end"
            if args.quick:
                # Not a measurement, so not worth a fresh interpreter.
                record = measure(
                    name, args.seed, args.seconds, bool(trace), True, out_dir
                )
                print_pass(record)
            else:
                record = _child_pass(name, trace, args, out_dir)
            passes[key] = record
            failed += record["failed"]
        result["workloads"][name] = passes
    result["env"]["repeats"] = {
        name: passes["end_to_end"]["repeats"]
        for name, passes in result["workloads"].items()
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="measuring time per pass (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="1: traced pass, per-layer metrics (all workloads: both passes)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down shapes, one repeat (smoke test, not a measurement)",
    )
    parser.add_argument("--out", help="write the result as JSON here")
    parser.add_argument(
        "--out-dir",
        default=str(HERE / "out"),
        help="directory for trace artifacts (default: benchmarks/perf/out)",
    )
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(repr(probe_setup(args.workload, args.seed, args.quick)[0]))
        return 0
    if args.seconds is None:
        args.seconds = float(_benchmark_json()["run_seconds"])
    out_dir = Path(args.out_dir)
    if args.workload is None:
        return run_all(args, out_dir)

    record = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.quick,
        out_dir,
    )
    print_pass(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(contract_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
