#!/usr/bin/env python
"""Online training: publishing checkpoints to a live inference model.

The paper's second use case (sections 1 and 5.1): an interim model
serves predictions while training continues; *consecutive* incremental
checkpoints are "directly applied to an already-trained model in
inference to improve its freshness and accuracy".

This example runs a training job with the consecutive policy and an
inference replica that applies each incremental checkpoint as it
becomes valid. It reports the inference replica's held-out quality
after every publish, against a frozen model that never refreshes —
the freshness gap online training exists to close.

Run:  python examples/online_training.py
"""

from __future__ import annotations

from repro.core.publisher import OnlinePublisher
from repro.experiments import build_experiment, small_config
from repro.metrics.accuracy import evaluate
from repro.model.dlrm import DLRM
from repro.storage.engine import drain


def main() -> None:
    config = small_config(
        policy="consecutive",  # each increment applies onto the previous
        quantizer="asymmetric",
        bit_width=8,
        interval_batches=20,
        num_tables=4,
        rows_per_table=4096,
        keep_last=1_000_000,  # the serving side applies every increment
    )
    exp = build_experiment(config)
    held_out = exp.dataset.eval_batches(8)

    # The inference replica starts untrained and a frozen twin never
    # updates (the "stale model" comparison).
    inference_model = DLRM(exp.config.model)
    frozen_model = DLRM(exp.config.model)
    publisher = OnlinePublisher(
        exp.store, exp.clock, inference_model, exp.controller.job_id
    )

    print("== consecutive incremental publishing ==")
    print(
        f"{'interval':>8s} {'ckpt':>12s} {'kind':>12s} {'KiB':>7s} "
        f"{'stale_s':>8s} {'live NE':>8s} {'frozen NE':>10s}"
    )
    for interval in range(6):
        exp.controller.run_intervals(1)
        manifest = exp.controller.stats.events[-1].manifest
        # Wait until the write lands, then poll the publisher: every
        # newly valid checkpoint is applied to the replica.
        exp.clock.advance_to(manifest.valid_at_s + 1.0, "serve")
        for event in drain(publisher.poll_steps()):
            live = evaluate(inference_model, held_out)
            stale = evaluate(frozen_model, held_out)
            print(
                f"{interval:>8d} {event.checkpoint_id:>12s} "
                f"{event.kind:>12s} {event.bytes_read / 1024:>7.0f} "
                f"{event.staleness_s:>8.1f} "
                f"{live.normalized_entropy:>8.4f} "
                f"{stale.normalized_entropy:>10.4f}"
            )

    stats = publisher.stats
    print(
        f"\npublished {stats.publishes} checkpoints "
        f"({stats.bytes_read / 1024:.0f} KiB read), mean staleness "
        f"{stats.mean_staleness_s:.1f}s; the live replica tracks "
        "training quality while the frozen model stagnates."
    )
    publisher.require_fresh(max_staleness_s=3600.0)
    trainer_eval = evaluate(exp.model, held_out)
    live_eval = evaluate(inference_model, held_out)
    gap = (
        live_eval.normalized_entropy - trainer_eval.normalized_entropy
    ) / trainer_eval.normalized_entropy
    print(
        f"live replica NE is within {gap:+.3%} of the trainer's "
        "(8-bit de-quantization noise only)"
    )


if __name__ == "__main__":
    main()
