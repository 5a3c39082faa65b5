"""Integration tests: whole-system behaviour across subsystems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReaderConfig
from repro.core.manifest import KIND_FULL, KIND_INCREMENTAL
from repro.experiments import build_experiment, small_config
from repro.metrics.accuracy import evaluate


def drain(exp) -> None:
    """Advance the clock past all in-flight background writes."""
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


class TestEndToEnd:
    def test_crash_restore_bitexact_with_fp32(self):
        """With the 'none' quantizer a restore is bit-exact: the resumed
        run continues exactly where the original would have."""
        exp = build_experiment(
            small_config(quantizer="none", policy="intermittent")
        )
        exp.controller.run_intervals(3)
        drain(exp)
        expected = {
            t: exp.model.table_weight(t).copy()
            for t in range(exp.model.num_tables)
        }
        exp.model.reinitialize()
        exp.controller.restore_latest()
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                exp.model.table_weight(t), expected[t]
            )

    def test_restored_run_trains_same_batches(self):
        """Resume must continue the dataset at the exact batch: no
        sample trained twice, none skipped (paper section 4.1)."""
        exp = build_experiment(small_config(quantizer="none"))
        exp.controller.run_intervals(2)
        drain(exp)
        seen: list[int] = []
        exp.trainer.register_step_hook(
            lambda result, batch: seen.append(batch.batch_index)
        )
        exp.controller.restore_latest()
        exp.controller.run_intervals(1)
        interval = exp.config.checkpoint.interval_batches
        assert seen == list(range(2 * interval, 3 * interval))

    def test_divergence_free_resume_fp32(self):
        """A crash-restored fp32 run reaches the same weights as an
        uninterrupted run over the same data."""
        config = small_config(quantizer="none", interval_batches=10)
        straight = build_experiment(config)
        straight.controller.run_intervals(3)

        crashed = build_experiment(config)
        crashed.controller.run_intervals(2)
        drain(crashed)
        crashed.model.reinitialize()
        crashed.controller.restore_latest()
        crashed.controller.run_intervals(1)

        for t in range(straight.model.num_tables):
            np.testing.assert_allclose(
                straight.model.table_weight(t),
                crashed.model.table_weight(t),
                atol=1e-6,
            )

    def test_quantized_restore_within_accuracy_budget(self):
        """A single 4-bit restore must not measurably damage model
        quality (the Fig 14 regime for few restores)."""
        config = small_config(quantizer="adaptive", bit_width=4,
                              interval_batches=15)
        baseline = build_experiment(config)
        baseline.controller.run_intervals(4)

        restored = build_experiment(config)
        restored.controller.run_intervals(2)
        drain(restored)
        restored.model.reinitialize()
        restored.controller.restore_latest()
        restored.controller.run_intervals(2)

        eval_batches = baseline.dataset.eval_batches(8)
        base_eval = evaluate(baseline.model, eval_batches)
        rest_eval = evaluate(restored.model, eval_batches)
        # Continued training absorbs the quantization noise almost
        # entirely; NE must agree to well under a percent.
        assert rest_eval.normalized_entropy == pytest.approx(
            base_eval.normalized_entropy, rel=0.01
        )


class TestPolicyBehaviour:
    @pytest.mark.parametrize(
        "policy", ["full", "one_shot", "consecutive", "intermittent"]
    )
    def test_every_policy_restores_correctly(self, policy):
        exp = build_experiment(
            small_config(policy=policy, quantizer="none")
        )
        exp.controller.run_intervals(4)
        drain(exp)
        expected = exp.model.table_weight(0).copy()
        batches = exp.model.batches_trained
        exp.model.reinitialize()
        report = exp.controller.restore_latest()
        np.testing.assert_array_equal(
            exp.model.table_weight(0), expected
        )
        assert exp.model.batches_trained == batches
        if policy == "consecutive":
            assert len(report.chain_ids) >= 2

    def test_incremental_policies_write_fewer_bytes_than_full(self):
        totals = {}
        for policy in ("full", "intermittent", "consecutive"):
            exp = build_experiment(
                small_config(
                    policy=policy,
                    quantizer="none",
                    rows_per_table=16384,
                    interval_batches=10,
                )
            )
            exp.controller.run_intervals(5)
            totals[policy] = exp.controller.stats.bytes_written_logical
        assert totals["intermittent"] < totals["full"]
        assert totals["consecutive"] < totals["full"]

    def test_one_shot_increment_sizes_grow(self):
        exp = build_experiment(
            small_config(
                policy="one_shot",
                quantizer="none",
                rows_per_table=32768,
                interval_batches=10,
            )
        )
        exp.controller.run_intervals(5)
        sizes = [
            e.report.logical_bytes
            for e in exp.controller.stats.events
            if e.manifest and e.manifest.kind == KIND_INCREMENTAL
        ]
        assert sizes == sorted(sizes)  # monotone non-decreasing


class TestReaderGapScenario:
    def test_uncoordinated_resume_skips_samples(self):
        """Ablation a03: without the coordination protocol, resuming
        from a checkpoint loses the in-flight batches."""
        config = small_config().with_overrides(
            reader=ReaderConfig(
                num_workers=2, prefetch_depth=6, coordinated=False
            )
        )
        exp = build_experiment(config)
        trained: list[int] = []
        exp.trainer.register_step_hook(
            lambda result, batch: trained.append(batch.batch_index)
        )
        for _ in range(10):
            exp.trainer.train_one_batch()
        state = exp.reader.collect_state()
        assert state.in_flight > 0
        exp.reader.restore(state)
        resumed_first = exp.reader.next_batch().batch_index
        skipped = resumed_first - (trained[-1] + 1)
        assert skipped > 0  # samples lost forever

    def test_coordinated_resume_is_seamless(self):
        exp = build_experiment(small_config())
        exp.controller.coordinator.grant_interval(10)
        trained: list[int] = []
        exp.trainer.register_step_hook(
            lambda result, batch: trained.append(batch.batch_index)
        )
        exp.trainer.train_interval(10)
        state = exp.controller.coordinator.collect_state()
        exp.reader.restore(state)
        exp.controller.coordinator.grant_interval(1)
        assert exp.reader.next_batch().batch_index == trained[-1] + 1


class TestStorageIntegration:
    def test_checkpoints_share_store_capacity_accounting(self):
        exp = build_experiment(
            small_config(policy="consecutive", keep_last=100)
        )
        exp.controller.run_intervals(4)
        stats = exp.store.stats()
        assert stats.live_logical_bytes > 0
        assert (
            stats.total_bytes_written
            >= stats.live_physical_bytes
        )

    def test_replication_multiplies_physical_bytes(self):
        exp = build_experiment(small_config())
        exp.controller.run_intervals(1)
        stats = exp.store.stats()
        factor = exp.config.storage.replication_factor
        assert stats.live_physical_bytes == (
            stats.live_logical_bytes * factor
        )
