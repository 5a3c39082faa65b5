"""Ablation a05: chunked pipelining hides quantization latency.

Paper (section 6.1): quantization is pipelined chunk by chunk with the
storage writes, so "the latency of our pipelined quantization approach
is virtually zero" whenever storage bandwidth is the bottleneck. The
bench compares the checkpoint's trigger-to-valid latency against the
serial lower bound (quantize everything, then write everything).
"""

from __future__ import annotations

from repro.core.manifest import KIND_FULL
from repro.core.snapshot import SnapshotManager
from repro.core.writer import CheckpointWriter
from repro.experiments import build_experiment, small_config
from repro.quant import make_quantizer
from repro.storage.engine import drain

TITLE = "Ablation a05 - pipelined vs serial checkpoint write latency"


def _run():
    exp = build_experiment(
        small_config(
            num_tables=4,
            rows_per_table=16384,
            embedding_dim=16,
            interval_batches=10,
        )
    )
    exp.controller.coordinator.grant_interval(10)
    exp.trainer.train_interval(10)
    manager = SnapshotManager(exp.trainer, exp.clock)
    snapshot = manager.take_snapshot(
        0, exp.controller.tracker_set, exp.reader.collect_state()
    )
    writer = CheckpointWriter(exp.store, exp.clock)
    quantizer = make_quantizer("adaptive", bits=4, num_bins=25)
    manifest, pipelined = drain(writer.write_checkpoint_steps(
        snapshot, KIND_FULL, "pipe", "job0", None, "full",
        quantizer, chunk_rows=2048,
    ))
    snapshot.release(exp.trainer)

    # Serial lower bound: all quantization strictly before all writes.
    serial_latency = pipelined.quantize_sim_s + sum(
        t.duration_s
        for t in exp.store.log.transfers("put")
        if t.key.startswith("job0/pipe/")
    )
    return {
        "pipelined_s": pipelined.pipeline_duration_s,
        "serial_s": serial_latency,
        "quantize_s": pipelined.quantize_sim_s,
        "chunks": pipelined.num_chunks,
    }


def test_a05_pipelining(benchmark, report):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    report.table(
        "metric                 seconds",
        [
            f"pipelined trigger-to-valid   {results['pipelined_s']:8.2f}",
            f"serial (quantize then write) {results['serial_s']:8.2f}",
            f"total quantization work      {results['quantize_s']:8.2f}",
            f"chunks written               {results['chunks']:8d}",
        ],
    )

    # Pipelining always beats (or matches) the serial schedule...
    assert results["pipelined_s"] <= results["serial_s"] + 1e-6
    # ...and hides a meaningful share of the quantization work.
    hidden = results["serial_s"] - results["pipelined_s"]
    assert hidden > 0.25 * results["quantize_s"]
    report.row(
        f"pipelining hid {hidden:.2f}s of {results['quantize_s']:.2f}s "
        f"quantization work "
        f"({hidden / results['quantize_s']:.0%}) behind storage writes"
    )
