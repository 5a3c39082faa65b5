"""Restore round-trips across backend x bit-width x checkpoint kind.

The fleet mixes byte backends (in-memory, filesystem, mirrored
replicas), precision rungs (4-bit adaptive, 8-bit asymmetric, fp16
cast, fp32 baseline) and full/incremental policies. Every combination
must restore *bit-exactly*: two restores of the same checkpoint yield
identical arrays, lossless rungs reproduce the training state exactly
(fp16 up to the deterministic cast), and manifest validity times order
strictly by interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.restore import CheckpointRestorer
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM
from repro.storage.backends import (
    FileBackend,
    InMemoryBackend,
    MirroredBackend,
)
from repro.storage.engine import drain

#: (label, quantizer, effective bits) — the fleet's precision rungs.
PRECISIONS = (
    ("q4", "adaptive", 4),
    ("q8", "asymmetric", 8),
    ("fp16", "float16", 16),
    ("fp32", "none", 32),
)

KINDS = ("full", "incremental")

BACKENDS = ("inmemory", "file", "mirrored")


def make_backend(name: str, tmp_path):
    if name == "inmemory":
        return InMemoryBackend()
    if name == "file":
        return FileBackend(tmp_path / "store")
    if name == "mirrored":
        return MirroredBackend([InMemoryBackend(), InMemoryBackend()])
    raise AssertionError(name)


def run_job(backend, quantizer: str, bits: int, kind: str):
    """Train three intervals and return (experiment, live weights)."""
    config = small_config(
        policy="full" if kind == "full" else "one_shot",
        quantizer=quantizer,
        bit_width=bits if bits <= 8 else None,
        interval_batches=5,
        num_tables=2,
        rows_per_table=512,
        embedding_dim=8,
        batch_size=32,
        num_nodes=1,
        devices_per_node=2,
        keep_last=10,  # keep everything; ordering checks want history
    )
    exp = build_experiment(config, backend=backend)
    exp.controller.run_intervals(3)
    live = {
        t: exp.model.table_weight(t).copy()
        for t in range(exp.model.num_tables)
    }
    return exp, live


def newest_target(exp):
    """The newest checkpoint once every background write has landed."""
    horizon = (
        max(m.valid_at_s for m in exp.controller.manifests.values()) + 1.0
    )
    plan = exp.controller.restorer.plan_resume(
        exp.controller.job_id, at_time_s=horizon
    )
    assert plan
    return plan[0]


def restore_fresh(exp) -> DLRM:
    fresh = DLRM(exp.config.model)
    drain(exp.controller.restorer.restore_steps(
        fresh,
        newest_target(exp),
        exp.controller.manifests,
        policy=exp.controller.policy,
    ))
    return fresh


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("label,quantizer,bits", PRECISIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_restore_roundtrip(backend_name, label, quantizer, bits, kind, tmp_path):
    backend = make_backend(backend_name, tmp_path)
    exp, live = run_job(backend, quantizer, bits, kind)

    if kind == "incremental":
        # The policy actually produced increments after the baseline.
        kinds = [m.kind for m in exp.controller.manifests.values()]
        assert "incremental" in kinds

    # Manifest validity strictly orders by interval.
    ordered = sorted(
        exp.controller.manifests.values(),
        key=lambda m: m.interval_index,
    )
    for a, b in zip(ordered, ordered[1:]):
        assert b.valid_at_s > a.valid_at_s

    first = restore_fresh(exp)
    second = restore_fresh(exp)

    for t in range(exp.model.num_tables):
        # Bit-exact determinism: restoring twice gives identical bytes.
        np.testing.assert_array_equal(
            first.table_weight(t), second.table_weight(t)
        )
        restored = first.table_weight(t)
        expected = live[t]
        if quantizer == "none":
            np.testing.assert_array_equal(restored, expected)
        elif quantizer == "float16":
            np.testing.assert_array_equal(
                restored,
                expected.astype(np.float16).astype(np.float32),
            )
        else:
            # Lossy rungs: bounded error around the training state.
            err = np.abs(restored - expected)
            assert float(err.mean()) < 0.02
            assert float(err.max()) < 1.0

    if kind == "full" and quantizer not in ("none", "float16"):
        # Bit-exact dequantization: re-quantizing the live rows with an
        # identically configured quantizer reproduces the restored
        # bytes exactly — storage and codec added no drift.
        target = newest_target(exp)
        reference = exp.controller._build_quantizer()
        for shard in target.shards:
            shard_rows = live[shard.table_id][
                shard.row_start : shard.row_end
            ]
            np.testing.assert_array_equal(
                first.table_weight(shard.table_id)[
                    shard.row_start : shard.row_end
                ],
                reference.roundtrip(shard_rows),
            )

    # Optimizer accumulators ride along; the fp32 rung keeps them exact.
    if quantizer == "none":
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                first.table_accumulator(t),
                exp.model.table_accumulator(t),
            )


def test_mirrored_backend_survives_replica_loss(tmp_path):
    backend = MirroredBackend([InMemoryBackend(), InMemoryBackend()])
    exp, live = run_job(backend, "none", 32, "incremental")
    backend.fail_replica(0)
    restored = restore_fresh(exp)
    for t in range(exp.model.num_tables):
        np.testing.assert_array_equal(
            restored.table_weight(t), live[t]
        )


def test_file_backend_restores_across_processes(tmp_path):
    """A second 'process' (fresh store/restorer) reads the same files."""
    from repro.distributed.clock import SimClock
    from repro.storage.object_store import ObjectStore

    backend_dir = tmp_path / "store"
    exp, live = run_job(FileBackend(backend_dir), "none", 32, "full")
    newest_valid = max(
        m.valid_at_s for m in exp.controller.manifests.values()
    )

    clock = SimClock()
    clock.advance(newest_valid + 1.0, "prior-history")
    reopened = ObjectStore(
        exp.config.storage, clock, backend=FileBackend(backend_dir)
    )
    restorer = CheckpointRestorer(reopened, clock)
    manifests = restorer.list_manifests("job0")
    plan = restorer.plan_resume("job0")
    assert plan
    target = plan[0]
    fresh = DLRM(exp.config.model)
    drain(restorer.restore_steps(fresh, target, manifests))
    for t in range(fresh.num_tables):
        np.testing.assert_array_equal(fresh.table_weight(t), live[t])
