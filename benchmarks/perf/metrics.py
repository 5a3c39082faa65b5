"""The one place a benchmark metric is declared.

``BENCHMARK.json`` repeats the names, units, directions and bounds
declared here because the driver reads that file; the smoke test fails
when the two disagree.

Two clocks, never mixed: a name starting with ``sim_`` is *simulated*
seconds/bytes from the program's public reports (deterministic under a
seed, compared exactly); every other timing is host wall clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MiB = float(1 << 20)

@dataclass(frozen=True)
class EndToEnd:
    """A bounded metric, emitted by the untraced pass on every workload."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median it may worsen before a PR is
    #: rejected. At least three times the spread this host shows
    #: between identical runs (README, "Steadiness"): a narrower bound
    #: would reject PRs that changed nothing.
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05),
)


@dataclass(frozen=True)
class Detail:
    """A report-level metric of one or two workloads (untraced repeats).

    These are what the issue calls end-to-end metrics too; the driver's
    contract wants every bounded metric non-zero on every workload and
    steady across seeds, which workload-specific and simulated-clock
    numbers are not, so they are reported unbounded beside the layers.
    ``compare.py`` still holds ``sim_*`` to exact equality and the wall
    ones to the same bound as ``wall_s`` when two results share a seed.
    """

    name: str
    unit: str
    better: str
    bound: float = 0.25


# A workload reports a detail when its outcome carries it: the fleets
# events_per_s and sim_goodput, single_write_restore the ckpt/restore
# ones, serve_flips the lookup p99, storm and single the recover pair.
DETAILS = (
    Detail("events_per_s", "1/s", "higher"),
    Detail("ckpt_mb_per_s", "MiB/s", "higher"),
    Detail("restore_wall_ms_p50", "ms", "lower"),
    Detail("restore_wall_ms_p80", "ms", "lower"),
    Detail("sim_stall_frac", "ratio", "lower", 0.0),
    Detail("sim_put_mb", "MiB", "lower", 0.0),
    Detail("sim_peak_store_mb", "MiB", "lower", 0.0),
    Detail("sim_recover_s_p50", "s", "lower", 0.0),
    Detail("sim_recover_s_max", "s", "lower", 0.0),
    Detail("sim_goodput", "ratio", "higher", 0.0),
    Detail("sim_lookup_ms_p99", "ms", "lower", 0.0),
    Detail("failed_frac", "ratio", "lower", 0.0),
)


@dataclass(frozen=True)
class Layer:
    """A traced-pass metric of one layer.

    ``source`` says how it is derived from one repeat's trace:
    ``self`` / ``duration`` sum span self / inclusive seconds over the
    span names in ``keys``; ``calls`` counts those spans; ``count``
    sums the named counters, divided by ``scale``.
    """

    name: str
    unit: str
    source: str
    keys: tuple[str, ...]
    better: str = "lower"
    scale: float = 1.0


def _self(name: str, *spans: str) -> Layer:
    return Layer(name, "s", "self", spans)


def _calls(name: str, *spans: str) -> Layer:
    return Layer(name, "count", "calls", spans)


def _count(name: str, *counters: str, better: str = "lower") -> Layer:
    return Layer(name, "count", "count", counters, better)


def _mb(name: str, *counters: str) -> Layer:
    return Layer(name, "MiB", "count", counters, scale=MiB)


LAYERS = (
    # distributed.trainer / model / data
    _self("trainer.step_s", "trainer.step"),
    _calls("trainer.steps", "trainer.step"),
    _self("model.train_step_s", "model.train_step"),
    _self("data.next_batch_s", "data.next_batch"),
    # core.tracker
    _self("tracker.step_hook_s", "tracker.step_hook"),
    _count("tracker.rows_marked", "tracker.rows_marked"),
    # core.snapshot
    _self("snapshot.take_s", "snapshot.take"),
    _calls("snapshot.count", "snapshot.take"),
    _mb("snapshot.mb", "snapshot.bytes"),
    # quant
    _self("quant.quantize_s", "quant.quantize"),
    _calls("quant.quantize_calls", "quant.quantize"),
    _mb("quant.quantize_mb", "quant.quantize_bytes"),
    _self("quant.dequantize_s", "quant.dequantize"),
    _calls("quant.dequantize_calls", "quant.dequantize"),
    # storage.engine worker pool
    Layer("pool.busy_s", "s", "duration", ("pool.task",)),
    Layer("pool.wait_s", "s", "duration", ("pool.wait",)),
    # pool.overlap_s is busy - wait, derived in run.py
    Layer("pool.overlap_s", "s", "derived", (), "higher"),
    _calls("pool.tasks", "pool.task"),
    # serialize.codec / serialize.format
    _self("codec.encode_s", "codec.encode"),
    _calls("codec.encode_calls", "codec.encode"),
    _mb("codec.encode_mb", "codec.encode_bytes"),
    _self("codec.decode_s", "codec.decode"),
    _calls("codec.decode_calls", "codec.decode"),
    _self("format.encode_frames_s", "format.encode_frames"),
    _calls("format.encode_frames_calls", "format.encode_frames"),
    _self("format.decode_frames_s", "format.decode_frames"),
    _calls("format.decode_frames_calls", "format.decode_frames"),
    # core.manifest / core.integrity
    _self("manifest.to_json_s", "manifest.to_json"),
    _calls("manifest.to_json_calls", "manifest.to_json"),
    _self("manifest.from_json_s", "manifest.from_json"),
    _calls("manifest.from_json_calls", "manifest.from_json"),
    _self("integrity.sha256_s", "integrity.sha256"),
    _mb("integrity.sha256_mb", "integrity.sha256_bytes"),
    # core.writer / core.controller
    _self("writer.steps_s", "writer.steps"),
    _count("writer.checkpoints", "writer.steps:generators"),
    _count("writer.put_steps", "writer.steps:yields"),
    _self("controller.begin_checkpoint_s", "controller.begin_checkpoint"),
    _self("controller.finish_checkpoint_s", "controller.finish_checkpoint"),
    _self("controller.begin_restore_s", "controller.begin_restore"),
    _self("controller.finish_restore_s", "controller.finish_restore"),
    # storage.engine parts and admission
    _self("engine.put_submit_s", "engine.put_submit"),
    _calls("engine.put_parts", "engine.put_submit"),
    _self("engine.get_submit_s", "engine.get_submit"),
    _calls("engine.get_parts", "engine.get_submit"),
    _count("engine.retries", "engine.retries"),
    _self("engine.admission_decide_s", "engine.admission_decide"),
    _count("engine.admission_deferrals", "engine.admission_deferrals"),
    # storage.bandwidth
    _self("arbiter.pick_s", "arbiter.pick"),
    _calls("arbiter.picks", "arbiter.pick"),
    _calls("arbiter.preemptions", "arbiter.preempt"),
    # storage.object_store
    _self("store.put_s", "store.put"),
    _calls("store.put_calls", "store.put"),
    _mb("store.put_mb", "store.put_bytes"),
    _self("store.get_s", "store.get"),
    _calls("store.get_calls", "store.get"),
    _mb("store.get_mb", "store.get_bytes"),
    _self("store.list_s", "store.list"),
    _calls("store.list_calls", "store.list"),
    _self("store.delete_s", "store.delete"),
    # fleet.scheduler / fleet.eventqueue
    _self("scheduler.run_s", "scheduler.run"),
    _count("scheduler.events", "scheduler.events"),
    _self("eventqueue.ops_s", "eventqueue.ops"),
    _calls("eventqueue.ops", "eventqueue.ops"),
    # core.restore
    _self("restore.plan_s", "restore.plan"),
    _self("restore.steps_s", "restore.steps"),
    _count("restore.count", "restore.count"),
    _count("restore.rows", "restore.rows"),
    _mb("restore.read_mb", "restore.read_bytes"),
    _count("restore.fallbacks", "restore.fallbacks"),
    # serving
    _self("servingfleet.run_s", "servingfleet.run"),
    _self("server.lookup_s", "server.lookup"),
    _count("server.lookups", "server.lookup:generators"),
    _self("server.flip_s", "server.flip"),
    _count("server.flips", "server.flip:generators"),
    _self("rowcache.lookup_s", "rowcache.lookup"),
    _count("rowcache.hits", "rowcache.hits", better="higher"),
    _count("rowcache.misses", "rowcache.misses"),
    # hits / (hits + misses), derived in run.py
    Layer("rowcache.hit_ratio", "ratio", "derived", (), "higher"),
    _self("publisher.poll_s", "publisher.poll"),
    _count("publisher.publishes", "publisher.publishes"),
    # process and the tracer itself (derived in run.py)
    Layer("proc.cpu_s", "s", "derived", ()),
    Layer("proc.gc_collections", "count", "derived", ()),
    Layer("trace.spans", "count", "derived", ()),
    Layer("trace.overhead_frac", "ratio", "derived", ()),
    Layer("trace.attributed_frac", "ratio", "derived", (), "higher"),
)


def percentile(values: list[float], share: float) -> float:
    """The smallest sample with at least ``share`` of them at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def per_layer_names() -> list[str]:
    """Every metric the traced pass emits, details first."""
    return [d.name for d in DETAILS] + [m.name for m in LAYERS]
