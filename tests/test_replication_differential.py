"""Recovery-equivalence differential suite for the replication tier.

Three layers of proof that a peer-replica restore is *the same
recovery* a store restore would perform, just nearer:

* **replica == live truth** — after a quiet (failure-free) run, every
  ring materializes byte-identical to its owner's live model (weights,
  accumulators, dense state) at the same step, across seeds x K x
  priority mixes. Replica deltas are captured from exact touched rows,
  so this holds bit-exactly — which is why the suite pins
  ``quantizer_choices=("none",)``: store restores of *quantized*
  checkpoints are lossy by design, and byte-identity is only a fair
  ask when both paths carry full-precision bytes.
* **peer == store at the same step** — the ring anchor (rebased at the
  owner's last baseline flush) restores byte-identical to draining the
  store's own restore of that same checkpoint.
* **dispatch bit-identity** — the heap and the lockstep scan kept in
  ``tests/reference_lockstep.py`` produce equal reports and equal event
  logs with replication on, including under a storm.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FailureConfig, FleetConfig, MiB
from repro.fleet import run_fleet

from reference_lockstep import run_fleet_lockstep


def repl_config(
    seed: int,
    k: int = 2,
    priority_mix: float = 0.0,
    **overrides,
) -> FleetConfig:
    """A small replicated fleet; full-precision so restores are exact."""
    defaults = dict(
        num_jobs=6,
        intervals_per_job=4,
        seed=seed,
        replicate_k=k,
        quantizer_choices=("none",),
        bit_width_choices=(4,),
        priority_mix=priority_mix,
        inject_failures=False,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def assert_states_equal(job, state) -> None:
    """Byte-identity between a job's live model and a ReplicaState."""
    model = job.model
    assert model.batches_trained == state.batches_trained
    assert model.samples_trained == state.samples_trained
    for table_id in range(model.num_tables):
        np.testing.assert_array_equal(
            model.table_weight(table_id),
            state.table_weights[table_id],
        )
        np.testing.assert_array_equal(
            model.table_accumulator(table_id),
            state.table_accumulators[table_id],
        )
    dense = model.dense_state()
    assert dense.keys() == state.dense.keys()
    for name in dense:
        np.testing.assert_array_equal(dense[name], state.dense[name])


class TestReplicaMatchesLiveState:
    """Fold(anchor, deltas) reproduces training bit-exactly."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("priority_mix", [0.0, 0.5])
    def test_every_ring_materializes_the_owner(
        self, seed, k, priority_mix
    ):
        config = repl_config(seed, k=k, priority_mix=priority_mix)
        scheduler, report = run_fleet(config)
        replicator = scheduler.replicator
        assert replicator is not None
        checked = 0
        for owner_id, rings in replicator.rings.items():
            owner = scheduler._jobs_by_id[owner_id]
            assert len(rings) == k
            for ring in rings.values():
                ring.check_invariants()
                # Quiet run: every delta committed, so the replica is
                # current through the owner's final trained batch.
                assert ring.last_step == owner.model.batches_trained
                assert_states_equal(owner, ring.materialize())
                checked += 1
        assert checked == config.num_jobs * k
        assert report.repl_deltas_sent > 0
        assert report.repl_partial_discards == 0

    def test_reader_and_countdown_travel_with_the_replica(self):
        config = repl_config(seed=11, k=1)
        scheduler, _ = run_fleet(config)
        for owner_id, rings in scheduler.replicator.rings.items():
            owner = scheduler._jobs_by_id[owner_id]
            for ring in rings.values():
                state = ring.materialize()
                assert state.reader_state == owner.reader.collect_state()
                # Captured post-decrement, the final delta of the run
                # sits at the interval boundary: countdown exhausted.
                # (The owner's own counter was re-armed to
                # ``interval_batches`` by the checkpoint trigger.)
                assert state.batches_left == 0
                # Likewise captured *before* the final checkpoint
                # trigger bumped the owner's interval counter.
                assert (
                    state.interval_index
                    == owner.controller.interval_index - 1
                )


class TestPeerMatchesStoreRestore:
    """Anchor at a baseline flush == the store's checkpoint, restored."""

    @pytest.mark.parametrize("seed", [11, 23])
    def test_anchor_equals_drained_store_restore(self, seed):
        # A roomy ring: no evictions fold post-flush deltas into the
        # anchor, so it stays frozen at the last baseline-flush step.
        config = repl_config(seed, k=2, peer_ring_bytes=64 * MiB)
        scheduler, _ = run_fleet(config)
        compared = 0
        for owner_id, rings in scheduler.replicator.rings.items():
            owner = scheduler._jobs_by_id[owner_id]
            if owner.controller.stats.checkpoints_written == 0:
                continue
            anchor = next(iter(rings.values())).anchor
            # Drain the store restore of the owner's newest checkpoint
            # into the live model, exactly as crash recovery would.
            pending = owner.controller.begin_restore()
            assert pending is not None
            while pending.advance() is not None:
                pass
            owner.controller.finish_restore(pending)
            # Same step, same bytes: the peer path and the store path
            # reconstruct one identical state.
            assert anchor.step == owner.model.batches_trained
            assert_states_equal(owner, anchor)
            compared += 1
        assert compared > 0

    def test_all_anchors_agree_across_peers(self):
        """K rings of one owner are replicas of *each other* too."""
        config = repl_config(seed=31, k=2, peer_ring_bytes=64 * MiB)
        scheduler, _ = run_fleet(config)
        for rings in scheduler.replicator.rings.values():
            states = [ring.materialize() for ring in rings.values()]
            first = states[0]
            for other in states[1:]:
                assert other.step == first.step
                for table_id in first.table_weights:
                    np.testing.assert_array_equal(
                        first.table_weights[table_id],
                        other.table_weights[table_id],
                    )


#: Replicated regimes the heap and the reference scan must agree on,
#: including crash-heavy and storm rows (the recovery ladder runs
#: identically).
REPL_IDENTITY_MATRIX = [
    (
        "repl-quiet-seed11",
        repl_config(11, k=2),
    ),
    (
        "repl-crashes-seed11",
        repl_config(
            11,
            k=2,
            intervals_per_job=6,
            inject_failures=True,
            priority_mix=0.5,
            failures=FailureConfig(
                mean_time_to_failure_s=120.0, min_failure_s=5.0
            ),
        ),
    ),
    (
        "repl-storm-seed47",
        repl_config(
            47,
            k=2,
            priority_mix=0.5,
            inject_failures=True,
            storm_domain="rack",
            rack_size=2,
        ),
    ),
    (
        "repl-k1-tiny-ring-seed23",
        repl_config(
            23,
            k=1,
            peer_ring_bytes=64 * 1024,
            inject_failures=True,
            failures=FailureConfig(
                mean_time_to_failure_s=120.0, min_failure_s=5.0
            ),
        ),
    ),
]


class TestReplicatedDispatchBitIdentity:
    @pytest.mark.parametrize(
        "config",
        [cfg for _, cfg in REPL_IDENTITY_MATRIX],
        ids=[name for name, _ in REPL_IDENTITY_MATRIX],
    )
    def test_heap_matches_lockstep(self, config):
        heap_sched, heap_report = run_fleet(config)
        lock_sched, lock_report = run_fleet_lockstep(config)
        assert heap_report == lock_report
        heap_log = [
            (e.kind, e.job_id, e.time_s, e.payload)
            for e in heap_sched.events
        ]
        lock_log = [
            (e.kind, e.job_id, e.time_s, e.payload)
            for e in lock_sched.events
        ]
        assert heap_log == lock_log

    def test_crash_row_actually_recovered_from_a_peer(self):
        """Guard the matrix against silently exercising nothing."""
        config = dict(REPL_IDENTITY_MATRIX)["repl-crashes-seed11"]
        _, report = run_fleet(config)
        assert report.failures > 0
        assert report.repl_peer_restores > 0

    def test_replication_off_is_the_seed_fleet(self):
        """replicate_k=0 runs must not even construct the tier."""
        base = FleetConfig(num_jobs=4, intervals_per_job=2, seed=11)
        scheduler, report = run_fleet(base)
        assert scheduler.replicator is None
        assert report.replicate_k == 0
        assert report.repl_deltas_sent == 0
