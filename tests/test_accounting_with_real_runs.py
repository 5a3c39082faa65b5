"""Accounting metrics computed from real controller runs."""

from __future__ import annotations

from repro.experiments import build_experiment, small_config
from repro.metrics.accounting import peak_capacity
from repro.storage.engine import drain


def run_policy(policy: str, quantizer: str, bits):
    exp = build_experiment(
        small_config(
            policy=policy,
            quantizer=quantizer,
            bit_width=bits,
            interval_batches=8,
            num_tables=3,
            rows_per_table=4096,
            batch_size=64,
        )
    )
    exp.controller.run_intervals(5)
    reports = [
        e.report for e in exp.controller.stats.events if e.report
    ]
    return exp, reports


class TestAccountingOnRealRuns:
    def test_peak_capacity_from_store(self):
        exp, _ = run_policy("full", "none", None)
        peak = peak_capacity(exp.store.capacity_series())
        assert peak >= exp.store.live_logical_bytes
        assert peak <= exp.store.stats().total_bytes_written


class TestPublisherWithCumulativeIncrements:
    def test_one_shot_increments_apply_on_top(self):
        """One-shot increments are cumulative-from-baseline, so
        applying the latest on an already-published replica is exact."""
        import numpy as np

        from repro.core.publisher import OnlinePublisher
        from repro.model.dlrm import DLRM

        exp = build_experiment(
            small_config(
                policy="one_shot",
                quantizer="none",
                interval_batches=5,
                num_tables=2,
                rows_per_table=1024,
                batch_size=32,
                keep_last=1_000_000,
            )
        )
        replica = DLRM(exp.config.model)
        publisher = OnlinePublisher(
            exp.store, exp.clock, replica, exp.controller.job_id
        )
        for _ in range(3):
            exp.controller.run_intervals(1)
            exp.clock.advance_to(
                exp.store.timeline.free_at + 1.0, "drain"
            )
            drain(publisher.poll_steps())
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                replica.table_weight(t), exp.model.table_weight(t)
            )
        assert publisher.stats.publishes == 3
