"""Accounting metrics computed from real controller runs."""

from __future__ import annotations

from repro.experiments import build_experiment, small_config
from repro.storage.engine import drain
from repro.storage.requests import OP_DELETE, OP_PUT


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
    def test_peak_logical_bytes_is_the_op_log_high_water_mark(self):
        """Replaying the run's landed PUTs and DELETEs in booking order
        reaches exactly the peak the store reports; retention deleted
        on the way, so the peak lies above what is live at the end."""
        exp, _ = run_policy("full", "none", None)
        store = exp.store
        sizes: dict[str, int] = {}
        live = peak = 0
        for receipt in store.ops.receipts():
            if receipt.op == OP_PUT:
                live += receipt.logical_bytes - sizes.get(receipt.key, 0)
                sizes[receipt.key] = receipt.logical_bytes
            elif receipt.op == OP_DELETE:
                live -= sizes.pop(receipt.key, 0)
            peak = max(peak, live)
        stats = store.stats()
        assert stats.live_logical_bytes == live
        assert stats.peak_logical_bytes == peak
        assert stats.live_logical_bytes < peak
        assert peak <= stats.total_bytes_written
        assert stats.peak_physical_bytes == (
            peak * store.config.replication_factor
        )


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
