"""Unit tests: online publisher, transfer restore, manifest adoption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.publisher import OnlinePublisher
from repro.core.restore import CheckpointRestorer
from repro.errors import CheckpointError
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM
from repro.storage.engine import drain


def settle(exp) -> None:
    """Advance the clock past every in-flight background write."""
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


@pytest.fixture
def consecutive_exp():
    exp = build_experiment(
        small_config(
            policy="consecutive",
            quantizer="none",
            interval_batches=5,
            num_tables=3,
            rows_per_table=512,
            batch_size=32,
            keep_last=1_000_000,
        )
    )
    return exp


class TestOnlinePublisher:
    def test_replica_matches_trainer_after_polls(self, consecutive_exp):
        exp = consecutive_exp
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        for _ in range(3):
            exp.controller.run_intervals(1)
            settle(exp)
            drain(publisher.poll_steps())
        # fp32 consecutive increments reproduce the trainer exactly.
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                replica.table_weight(t), exp.model.table_weight(t)
            )

    def test_poll_is_incremental(self, consecutive_exp):
        exp = consecutive_exp
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        exp.controller.run_intervals(2)
        settle(exp)
        first = drain(publisher.poll_steps())
        assert len(first) == 2
        assert drain(publisher.poll_steps()) == []  # nothing new
        exp.controller.run_intervals(1)
        settle(exp)
        assert len(drain(publisher.poll_steps())) == 1

    def test_pending_respects_validity(self, consecutive_exp):
        exp = consecutive_exp
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        exp.controller.run_intervals(1)
        # Write still in flight: nothing valid to publish yet.
        assert publisher.pending() == []
        settle(exp)
        assert len(publisher.pending()) == 1

    def test_staleness_tracking(self, consecutive_exp):
        exp = consecutive_exp
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        exp.controller.run_intervals(1)
        settle(exp)
        events = drain(publisher.poll_steps())
        assert events[0].staleness_s > 0
        assert publisher.stats.mean_staleness_s > 0

    def test_require_fresh(self, consecutive_exp):
        exp = consecutive_exp
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        with pytest.raises(CheckpointError, match="never"):
            publisher.require_fresh(10.0)
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        publisher.require_fresh(max_staleness_s=1e9)
        exp.clock.advance(1e6, "idle")
        with pytest.raises(CheckpointError, match="freshness"):
            publisher.require_fresh(max_staleness_s=10.0)


class TestTransferRestore:
    def test_weights_load_but_progress_resets(self):
        exp = build_experiment(
            small_config(quantizer="none", interval_batches=5)
        )
        exp.controller.run_intervals(2)
        settle(exp)
        restorer = CheckpointRestorer(exp.store, exp.clock)
        target = restorer.plan_resume(exp.controller.job_id)[0]
        seeded = DLRM(exp.config.model)
        report = restorer.restore_for_transfer(
            seeded, target, exp.controller.manifests,
            policy=exp.controller.policy,
        )
        np.testing.assert_array_equal(
            seeded.table_weight(0), exp.model.table_weight(0)
        )
        assert seeded.batches_trained == 0
        assert seeded.samples_trained == 0
        assert report.rows_restored > 0

    def test_apply_single_overlays_rows(self):
        exp = build_experiment(
            small_config(
                policy="consecutive",
                quantizer="none",
                interval_batches=5,
                keep_last=1_000_000,
            )
        )
        exp.controller.run_intervals(2)
        settle(exp)
        manifests = sorted(
            exp.controller.manifests.values(),
            key=lambda m: m.interval_index,
        )
        restorer = CheckpointRestorer(exp.store, exp.clock)
        replica = DLRM(exp.config.model)
        bytes_read, _ = drain(
            restorer.apply_single_steps(replica, manifests[0])
        )
        assert bytes_read > 0
        drain(restorer.apply_single_steps(replica, manifests[1]))
        np.testing.assert_array_equal(
            replica.table_weight(0), exp.model.table_weight(0)
        )


class TestAdoptManifests:
    def test_counter_and_lineage_resume(self):
        exp = build_experiment(
            small_config(policy="intermittent", rows_per_table=4096)
        )
        exp.controller.run_intervals(3)
        settle(exp)
        stored = dict(exp.controller.manifests)

        # A "new process": same store, fresh controller.
        fresh = build_experiment(
            small_config(policy="intermittent", rows_per_table=4096)
        )
        fresh.controller.store = exp.store  # not used before adopt
        controller = fresh.controller
        controller.adopt_manifests(stored)
        assert controller._checkpoint_counter == len(stored)
        assert controller.interval_index == 3
        # Baseline lineage reconstructed.
        fulls = [m for m in stored.values() if m.kind == "full"]
        newest_full = max(fulls, key=lambda m: m.interval_index)
        assert controller._current_base_id == newest_full.checkpoint_id
        assert controller._last_full_bytes == newest_full.logical_bytes

    def test_adopt_empty_is_noop(self, tiny_experiment):
        controller = tiny_experiment.controller
        controller.adopt_manifests({})
        assert controller.interval_index == 0
        assert controller._checkpoint_counter == 0
