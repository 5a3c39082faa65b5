"""Snapshot atomicity: the decoupling correctness property (§4.2).

"Checkpointing requires the model parameters to be atomically copied
... Otherwise, training processes may update the model during the
copying time window, causing substantial consistency challenges."

These tests verify that once the snapshot exists, *continued training
cannot leak into the checkpoint*: the bytes written to storage reflect
the model exactly as it was at the stall, no matter how much the live
model changes while the background write runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manifest import KIND_FULL, checkpoint_prefix
from repro.core.restore import CheckpointRestorer
from repro.core.snapshot import SnapshotManager
from repro.core.writer import CheckpointWriter
from repro.errors import StorageError
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM
from repro.quant import make_quantizer
from repro.storage.backends import (
    CrashingBackend,
    InMemoryBackend,
    MirroredBackend,
)
from repro.storage.engine import drain


def test_checkpoint_reflects_snapshot_not_live_model():
    exp = build_experiment(
        small_config(
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=512,
            batch_size=32,
        )
    )
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    manager = SnapshotManager(exp.trainer, exp.clock)
    snapshot = manager.take_snapshot(
        0, exp.controller.tracker_set, exp.reader.collect_state()
    )
    at_snapshot = {
        t: exp.model.table_weight(t).copy()
        for t in range(exp.model.num_tables)
    }

    # Training continues while the checkpoint is being written — the
    # paper's whole point. Here: train more *before* the write call.
    exp.controller.coordinator.resume()
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    assert not np.allclose(
        exp.model.table_weight(0), at_snapshot[0]
    )  # the live model moved on

    writer = CheckpointWriter(exp.store, exp.clock)
    manifest, _ = drain(writer.write_checkpoint_steps(
        snapshot, KIND_FULL, "atomic", "job0", None, "full",
        make_quantizer("none"), chunk_rows=128,
        quantize_optimizer_state=False,
    ))
    snapshot.release(exp.trainer)

    # Restore into a fresh model: it must equal the snapshot-time
    # state, not the post-snapshot training state.
    fresh = DLRM(exp.config.model)
    restorer = CheckpointRestorer(exp.store, exp.clock)
    drain(restorer.restore_steps(fresh, manifest, {"atomic": manifest}))
    for t in range(exp.model.num_tables):
        np.testing.assert_array_equal(
            fresh.table_weight(t), at_snapshot[t]
        )
        assert not np.array_equal(
            fresh.table_weight(t), exp.model.table_weight(t)
        ) or np.array_equal(
            at_snapshot[t], exp.model.table_weight(t)
        )


def test_tracker_mask_in_snapshot_is_frozen():
    """Rows modified after the snapshot do not join its increment."""
    exp = build_experiment(
        small_config(
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=512,
            batch_size=32,
        )
    )
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    manager = SnapshotManager(exp.trainer, exp.clock)
    snapshot = manager.take_snapshot(
        0, exp.controller.tracker_set, exp.reader.collect_state()
    )
    masked_at_snapshot = {
        sid: int(s.mask.sum()) for sid, s in snapshot.shards.items()
    }
    # More training marks more rows in the live tracker...
    exp.controller.coordinator.resume()
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    live_marked = exp.controller.tracker_set.modified_rows
    assert live_marked >= sum(masked_at_snapshot.values())
    # ...but the snapshot's masks are unchanged.
    for sid, shard in snapshot.shards.items():
        assert int(shard.mask.sum()) == masked_at_snapshot[sid]
    snapshot.release(exp.trainer)


def _crash_config():
    return small_config(
        policy="full",
        quantizer="none",
        interval_batches=5,
        num_tables=2,
        rows_per_table=256,
        batch_size=32,
        keep_last=10,
    )


def _weights(model):
    return {
        t: model.table_weight(t).copy() for t in range(model.num_tables)
    }


def test_staged_write_killed_before_manifest_is_skipped_on_restore():
    """Crash between the last chunk PUT and the manifest PUT (§4.4).

    The manifest-last invariant is validity: a torn checkpoint has
    chunks on storage but no manifest, so the restorer must fall back
    to the previous valid checkpoint. If a (broken) writer stored the
    manifest before its chunks, the torn checkpoint would be selected
    and this test fails.
    """
    exp = build_experiment(_crash_config())
    exp.controller.run_intervals(1)  # ckpt-000000 lands fully
    state_at_first = _weights(exp.model)

    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    # Let the first write's validity pass before triggering the next.
    first = exp.controller.manifests["ckpt-000000"]
    exp.clock.advance_to(first.valid_at_s + 1.0, "drain")

    from repro.core.controller import PendingCheckpoint

    pending = exp.controller.begin_checkpoint()
    assert isinstance(pending, PendingCheckpoint)
    # Submit every chunk and the dense blob, but NOT the manifest.
    while pending.next_step is not None and pending.next_step.kind != "manifest":
        pending.advance()
    assert pending.next_step is not None  # stopped at the manifest
    exp.controller.abort_pending(pending)

    torn_prefix = checkpoint_prefix("job0", pending.checkpoint_id)
    torn_keys = exp.store.list_keys(torn_prefix)
    assert torn_keys, "the torn checkpoint left no chunks — bad setup"
    assert not any(k.endswith("manifest.json") for k in torn_keys)

    restorer = CheckpointRestorer(exp.store, exp.clock)
    plan = restorer.plan_resume("job0", at_time_s=exp.clock.now + 1e9)
    assert plan
    target = plan[0]
    assert target.checkpoint_id == "ckpt-000000"

    fresh = DLRM(exp.config.model)
    drain(
        restorer.restore_steps(fresh, target, {target.checkpoint_id: target})
    )
    for t in range(fresh.num_tables):
        np.testing.assert_array_equal(
            fresh.table_weight(t), state_at_first[t]
        )


def test_mirrored_backend_crash_between_chunk_and_manifest_put():
    """A process death mid-write on replicated storage leaves a torn
    checkpoint on every replica; the restorer falls back cleanly."""
    mirrored = MirroredBackend([InMemoryBackend(), InMemoryBackend()])
    crashing = CrashingBackend(mirrored)
    exp = build_experiment(_crash_config(), backend=crashing)

    exp.controller.run_intervals(1)
    state_at_first = _weights(exp.model)
    objects_per_checkpoint = len(
        exp.store.list_keys(checkpoint_prefix("job0", "ckpt-000000"))
    )
    assert objects_per_checkpoint >= 3  # chunks + dense + manifest

    # The full policy writes identical layouts each interval: arm the
    # crash on what would be the next checkpoint's manifest PUT.
    crashing.arm(objects_per_checkpoint)
    with pytest.raises(StorageError):
        exp.controller.run_intervals(1)

    torn_keys = exp.store.list_keys(
        checkpoint_prefix("job0", "ckpt-000001")
    )
    assert torn_keys, "chunks of the torn checkpoint should remain"
    assert not any(k.endswith("manifest.json") for k in torn_keys)

    # Survive the loss of one replica on top of the torn write.
    mirrored.fail_replica(1)
    restorer = CheckpointRestorer(exp.store, exp.clock)
    plan = restorer.plan_resume("job0", at_time_s=exp.clock.now + 1e9)
    assert plan
    target = plan[0]
    assert target.checkpoint_id == "ckpt-000000"
    fresh = DLRM(exp.config.model)
    drain(
        restorer.restore_steps(fresh, target, {target.checkpoint_id: target})
    )
    for t in range(fresh.num_tables):
        np.testing.assert_array_equal(
            fresh.table_weight(t), state_at_first[t]
        )


def test_fleet_job_crash_mid_write_restores_previous_checkpoint():
    """The fleet path: a job dies between its last chunk and manifest
    PUT; recovery restores its newest *valid* checkpoint and scrubs
    the torn chunks from the shared store."""
    from repro.config import FailureConfig, FleetConfig, MiB, StorageConfig
    from repro.fleet import build_fleet, summarize_fleet

    config = FleetConfig(
        num_jobs=2,
        intervals_per_job=3,
        seed=77,
        rows_per_table_choices=(2048,),
        storage=StorageConfig(
            write_bandwidth=1.0 * MiB,
            read_bandwidth=2.0 * MiB,
            replication_factor=2,
            latency_s=0.002,
        ),
        failures=FailureConfig(min_failure_s=0.0),
        inject_failures=False,  # we crash one job surgically instead
        stagger_s=2.0,
    )
    scheduler, store = build_fleet(config)
    written: set[str] = set()
    armed: list[str] = []

    def on_event(event):
        if event.kind == "written":
            written.add(event.job_id)
        if (
            not armed
            and event.kind == "write_step"
            and event.payload["next_kind"] == "manifest"
            and event.job_id in written
        ):
            armed.append(event.job_id)
            scheduler.inject_crash(event.job_id)

    scheduler.on_event = on_event
    scheduler.run()

    crashes = [e for e in scheduler.events if e.kind == "crash"]
    assert crashes, "the surgical crash never fired"
    crash = crashes[0]
    assert crash.payload["torn_checkpoint"] is not None
    assert crash.payload["torn_chunks"] > 0
    valid_before = crash.payload["valid_before"]
    assert valid_before, "job should have had a valid checkpoint"
    assert crash.payload["restored_from"] == valid_before[-1][0]

    # Torn chunks are gone from the shared store; every surviving
    # object belongs to a checkpoint with a manifest.
    torn_id = crash.payload["torn_checkpoint"]
    assert not store.list_keys(
        checkpoint_prefix(crash.job_id, torn_id)
    )

    report = summarize_fleet(scheduler, store)
    for job in scheduler.jobs:
        assert job.controller.interval_index >= job.target_intervals
    assert report.torn_writes == 1


def test_discard_unlanded_write_removes_it_and_rolls_back_baseline():
    """A crash kills the background write pipeline: a checkpoint whose
    manifest transfer had not landed must never become valid later."""
    exp = build_experiment(_crash_config())
    exp.controller.run_intervals(1)
    manifest = exp.controller.manifests["ckpt-000000"]
    assert manifest.valid_at_s > exp.clock.now  # still in flight

    discarded = exp.controller.discard_unlanded_write()
    assert discarded == "ckpt-000000"
    assert "ckpt-000000" not in exp.controller.manifests
    assert not exp.store.list_keys(checkpoint_prefix("job0", discarded))
    # Baseline rolled back: the next checkpoint re-takes a full one.
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    event = exp.controller.checkpoint()
    assert event.manifest is not None
    assert event.manifest.kind == KIND_FULL

    # Once a write has landed it is not discardable.
    exp.clock.advance_to(event.manifest.valid_at_s + 1.0, "drain")
    assert exp.controller.discard_unlanded_write() is None
    assert event.manifest.checkpoint_id in exp.controller.manifests


def test_scratch_restart_forgets_previous_checkpoint_state():
    """A from-scratch recovery must not keep baselines or manifests
    from the job's previous life (they describe pre-restart weights)."""
    exp = build_experiment(
        small_config(
            policy="one_shot",
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=256,
            batch_size=32,
        )
    )
    exp.controller.run_intervals(2)  # full + one increment
    assert exp.controller._current_base_id is not None
    forgotten = exp.controller.reset_for_scratch_restart()
    assert set(forgotten) == {"ckpt-000000", "ckpt-000001"}
    assert exp.controller.manifests == {}
    assert exp.controller._current_base_id is None
    assert exp.controller.interval_index == 0
    # The next checkpoint after the scratch restart is a fresh full.
    exp.controller.coordinator.grant_interval(5)
    exp.trainer.train_interval(5)
    event = exp.controller.checkpoint()
    assert event.manifest is not None
    assert event.manifest.kind == KIND_FULL
    assert event.manifest.base_id is None


def test_scratch_restart_starts_the_job_over():
    """A from-scratch recovery reinitialises the model, rewinds the
    reader to the first batch and deletes the forgotten checkpoints'
    stored objects."""
    exp = build_experiment(
        small_config(
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=256,
            batch_size=32,
        )
    )
    fresh = exp.model.clone_config_model()
    exp.controller.run_intervals(2)
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")
    assert exp.model.batches_trained == 10
    assert exp.store.list_keys("job0/")
    exp.controller.reset_for_scratch_restart()
    assert exp.model.batches_trained == 0
    for t in range(exp.model.num_tables):
        np.testing.assert_array_equal(
            exp.model.table_weight(t), fresh.table_weight(t)
        )
    state = exp.reader.collect_state()
    assert (state.next_batch_index, state.batches_delivered) == (0, 0)
    assert exp.store.list_keys("job0/") == []


def test_two_snapshots_are_independent():
    exp = build_experiment(
        small_config(
            quantizer="none",
            interval_batches=3,
            num_tables=2,
            rows_per_table=256,
            batch_size=32,
        )
    )
    manager = SnapshotManager(exp.trainer, exp.clock)
    exp.controller.coordinator.grant_interval(3)
    exp.trainer.train_interval(3)
    first = manager.take_snapshot(
        0, exp.controller.tracker_set, exp.reader.collect_state()
    )
    exp.controller.coordinator.resume()
    exp.controller.coordinator.grant_interval(3)
    exp.trainer.train_interval(3)
    second = manager.take_snapshot(
        1, exp.controller.tracker_set, exp.reader.collect_state()
    )
    shard_id = next(iter(first.shards))
    assert not np.array_equal(
        first.shards[shard_id].weight, second.shards[shard_id].weight
    )
    first.release(exp.trainer)
    second.release(exp.trainer)
    assert manager.snapshots_taken == 2
