#!/usr/bin/env python
"""Transfer learning from a checkpoint (paper sections 1 and 4.1).

"Checkpoints are also used for performing transfer learning, where an
intermediate model state is used as a seed, which is then trained for a
different goal." Such checkpoints "do not require the reader state" —
the new job trains its own dataset from the start.

This example trains a *source* job with checkpoints, then seeds a new
job — different synthetic dataset (a different "product surface"), same
model architecture — from the source's checkpoint, and compares its
learning curve against training the target task from scratch. Warm
embeddings transfer the hot-row structure, so the seeded run starts
ahead.

Run:  python examples/transfer_learning.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.restore import CheckpointRestorer
from repro.data.synthetic import SyntheticClickDataset
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM


def train_curve(
    model: DLRM, dataset: SyntheticClickDataset, batches: int
) -> list[float]:
    """Per-10-batch mean training loss."""
    losses = []
    window: list[float] = []
    for i in range(batches):
        window.append(model.train_step(dataset.batch(i)).loss)
        if len(window) == 10:
            losses.append(float(np.mean(window)))
            window.clear()
    return losses


def main() -> None:
    # --- Source job: train and checkpoint. -----------------------------
    config = small_config(
        policy="intermittent",
        quantizer="asymmetric",
        bit_width=8,
        interval_batches=30,
        num_tables=4,
        rows_per_table=2048,
    )
    source = build_experiment(config)
    print("== training the source job (3 checkpoint intervals) ==")
    source.controller.run_intervals(3)
    source.clock.advance_to(
        source.store.timeline.free_at + 1.0, "drain"
    )
    print(
        f"source trained {source.model.batches_trained} batches, "
        f"{source.controller.stats.checkpoints_written} checkpoints\n"
    )

    # --- Target task: same architecture, different data distribution. --
    target_data = replace(
        source.config.data, seed=source.config.data.seed ^ 0x7777
    )
    target_dataset = SyntheticClickDataset(
        source.config.model, target_data
    )

    # Seeded model: restore_for_transfer loads weights but no reader
    # state and zeroes the progress counters — a fresh job.
    restorer = CheckpointRestorer(source.store, source.clock)
    target = restorer.plan_resume(source.controller.job_id)[0]
    seeded = DLRM(source.config.model)
    report = restorer.restore_for_transfer(
        seeded, target, source.controller.manifests,
        policy=source.controller.policy,
    )
    assert seeded.batches_trained == 0  # progress reset: a new job
    print(
        f"seeded new job from {report.checkpoint_id} "
        f"(chain {' -> '.join(report.chain_ids)})"
    )

    scratch = DLRM(
        replace(source.config.model, seed=source.config.model.seed + 1)
    )

    print("\n== target-task learning curves (mean loss per 10 batches) ==")
    seeded_curve = train_curve(seeded, target_dataset, 60)
    scratch_curve = train_curve(scratch, target_dataset, 60)
    print(f"{'batches':>8s} {'seeded':>8s} {'scratch':>8s}")
    for i, (a, b) in enumerate(zip(seeded_curve, scratch_curve)):
        print(f"{(i + 1) * 10:>8d} {a:>8.4f} {b:>8.4f}")

    advantage = float(np.mean(np.array(scratch_curve[:3])
                              - np.array(seeded_curve[:3])))
    print(
        f"\nearly-training advantage of the transferred seed: "
        f"{advantage:+.4f} loss (positive = seeded run learns faster)"
    )


if __name__ == "__main__":
    main()
