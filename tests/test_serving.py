"""Unit tests: row cache, serving publisher, hot-first restore order."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.integrity import quarantine_checkpoint
from repro.core.restore import (
    ORDER_HOT_FIRST,
    ORDER_MANIFEST,
    CheckpointRestorer,
)
from repro.errors import CheckpointError, ServingError
from repro.experiments import build_experiment, small_config
from repro.model.dlrm import DLRM
from repro.serving import RowCache, RowCacheStats, ServingPublisher
from repro.storage.engine import TransferStep, drain

import backend_ops as ops


def settle(exp) -> None:
    """Advance the clock past every in-flight background write."""
    exp.clock.advance_to(exp.store.timeline.free_at + 1.0, "drain")


def _value(seed: int) -> np.ndarray:
    return np.full(4, float(seed), dtype=np.float32)


class TestRowCache:
    def test_lru_evicts_oldest_untouched(self):
        cache = RowCache(3, version_index=0)
        for row in range(3):
            cache.admit(0, row, _value(row))
        cache.lookup(0, 0)  # refresh row 0's recency
        cache.admit(0, 3, _value(3))  # evicts row 1, the LRU victim
        assert cache.lookup(0, 1) is None
        assert cache.lookup(0, 0) is not None
        assert cache.lookup(0, 3) is not None

    def test_pinned_rows_never_evicted(self):
        cache = RowCache(2, version_index=0)
        assert cache.pin(0, 7, _value(7))
        for row in range(10, 20):
            cache.admit(0, row, _value(row))
        assert cache.lookup(0, 7) is not None
        assert len(cache) <= 2

    def test_pin_budget_is_capacity(self):
        cache = RowCache(2, version_index=0)
        assert cache.pin(0, 1, _value(1))
        assert cache.pin(0, 2, _value(2))
        assert not cache.pin(0, 3, _value(3))
        assert cache.pinned_rows == 2

    def test_admit_is_noop_for_pinned_row(self):
        stats = RowCacheStats()
        cache = RowCache(4, version_index=0, stats=stats)
        cache.pin(0, 1, _value(1))
        inserts = stats.inserts
        cache.admit(0, 1, _value(99))
        assert stats.inserts == inserts
        np.testing.assert_array_equal(cache.lookup(0, 1), _value(1))

    def test_peek_counts_nothing(self):
        stats = RowCacheStats()
        cache = RowCache(2, version_index=0, stats=stats)
        cache.admit(0, 1, _value(1))
        hits, misses = stats.hits, stats.misses
        assert cache.peek(0, 1) is not None
        assert cache.peek(0, 2) is None
        assert (stats.hits, stats.misses) == (hits, misses)

    def test_stats_count_hits_and_misses(self):
        stats = RowCacheStats()
        cache = RowCache(2, version_index=0, stats=stats)
        cache.admit(0, 1, _value(1))
        assert cache.lookup(0, 1) is not None
        assert cache.lookup(0, 2) is None
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_carry_drops_invalidated_rows(self):
        old = RowCache(4, version_index=0)
        old.admit(0, 1, _value(1))
        old.admit(0, 2, _value(2))
        old.pin(0, 3, _value(3))
        new = RowCache.from_previous(
            old, 1, {0: np.asarray([2], dtype=np.int64)}
        )
        assert new.version_index == 1
        assert new.peek(0, 1) is not None  # untouched row carried
        assert new.peek(0, 2) is None  # modified row dropped
        assert new.peek(0, 3) is not None  # pins carry as plain entries
        assert new.pinned_rows == 0
        assert new.stats is old.stats

    def test_rejects_zero_capacity(self):
        with pytest.raises(ServingError):
            RowCache(0, version_index=0)


@pytest.fixture
def serving_exp():
    exp = build_experiment(
        small_config(
            policy="consecutive",
            quantizer="none",
            interval_batches=5,
            num_tables=2,
            rows_per_table=256,
            batch_size=32,
            keep_last=1_000_000,
        )
    )
    return exp


class TestServingPublisher:
    def _publisher(self, exp) -> ServingPublisher:
        return ServingPublisher(
            exp.store,
            exp.clock,
            DLRM(exp.config.model),
            exp.controller.job_id,
            hot_rows_per_table=16,
        )

    def test_versions_announce_in_order(self, serving_exp):
        exp = serving_exp
        publisher = self._publisher(exp)
        for _ in range(3):
            exp.controller.run_intervals(1)
            settle(exp)
            drain(publisher.poll_steps())
        assert len(publisher.versions) == 3
        assert [v.version_index for v in publisher.versions] == [0, 1, 2]
        assert publisher.latest_version is publisher.versions[-1]

    def test_locator_covers_every_row_and_matches_replica(
        self, serving_exp
    ):
        exp = serving_exp
        publisher = self._publisher(exp)
        exp.controller.run_intervals(2)
        settle(exp)
        drain(publisher.poll_steps())
        version = publisher.latest_version
        assert version is not None
        for t in range(exp.model.num_tables):
            rows = exp.model.table_weight(t).shape[0]
            assert len(version.locator[t]) == rows
            np.testing.assert_array_equal(
                publisher.replica.table_weight(t),
                exp.model.table_weight(t),
            )

    def test_hot_rows_only_count_incremental_touches(self, serving_exp):
        exp = serving_exp
        publisher = self._publisher(exp)
        # After only a full checkpoint there is no tracker signal yet.
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        first = publisher.versions[0]
        assert all(ids.size == 0 for ids in first.hot_rows.values())
        # Incremental checkpoints carry exactly the modified rows.
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        second = publisher.versions[1]
        for t, hot in second.hot_rows.items():
            assert hot.size > 0
            assert set(hot.tolist()) <= set(
                second.modified_rows[t].tolist()
            )

    def test_row_ref_unknown_row_raises(self, serving_exp):
        exp = serving_exp
        publisher = self._publisher(exp)
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        with pytest.raises(ServingError):
            publisher.latest_version.row_ref(0, 10_000_000)

    def test_quarantined_checkpoint_never_publishes(self, serving_exp):
        """Satellite: the publisher must skip quarantined checkpoints."""
        exp = serving_exp
        publisher = self._publisher(exp)
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        exp.controller.run_intervals(1)
        settle(exp)
        restorer = CheckpointRestorer(exp.store, exp.clock)
        manifests = restorer.list_manifests(exp.controller.job_id)
        newest = max(manifests.values(), key=lambda m: m.interval_index)
        quarantine_checkpoint(exp.store, newest)
        events = drain(publisher.poll_steps())
        assert newest.checkpoint_id not in {
            e.checkpoint_id for e in events
        }
        assert all(
            v.checkpoint_id != newest.checkpoint_id
            for v in publisher.versions
        )
        # A descendant increment chains *through* the quarantined link,
        # so it must stay unpublishable until a full re-anchors it.
        exp.controller.run_intervals(1)
        settle(exp)
        assert drain(publisher.poll_steps()) == []


class TestDecodeChunkRows:
    def _chunk(self, exp, publisher):
        version = publisher.latest_version
        ref = next(iter(version.locator[0].values()))
        return ref, ops.read(exp.store.backend, ref.key)

    def test_round_trip_matches_replica(self, serving_exp):
        from repro.serving import decode_chunk_rows

        exp = serving_exp
        publisher = ServingPublisher(
            exp.store, exp.clock, DLRM(exp.config.model),
            exp.controller.job_id,
        )
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        ref, blob = self._chunk(exp, publisher)
        rows, weights = decode_chunk_rows(ref.key, blob, ref.digest)
        assert rows.dtype == np.int64
        assert weights.shape == (rows.shape[0], weights.shape[1])
        replica = publisher.replica.table_weight(0)
        for i, row in enumerate(rows.tolist()[:8]):
            np.testing.assert_array_equal(weights[i], replica[row])

    def test_digest_mismatch_raises(self, serving_exp):
        from repro.errors import CheckpointCorruptError
        from repro.serving import decode_chunk_rows

        exp = serving_exp
        publisher = ServingPublisher(
            exp.store, exp.clock, DLRM(exp.config.model),
            exp.controller.job_id,
        )
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        ref, blob = self._chunk(exp, publisher)
        with pytest.raises(CheckpointCorruptError):
            decode_chunk_rows(ref.key, blob, "00" * 32)
        # A tampered byte fails the recorded digest too.
        tampered = bytes([blob[0] ^ 0x01]) + blob[1:]
        with pytest.raises(CheckpointCorruptError):
            decode_chunk_rows(ref.key, tampered, ref.digest)

    def test_digest_goes_through_the_integrity_layer(
        self, serving_exp, monkeypatch
    ):
        """Serving hashes with ``core.integrity.sha256_hex`` like the
        writer and the restorer, so a tracer that wraps that one
        function sees all hashing."""
        from repro.serving import chunks

        exp = serving_exp
        publisher = ServingPublisher(
            exp.store, exp.clock, DLRM(exp.config.model),
            exp.controller.job_id,
        )
        exp.controller.run_intervals(1)
        settle(exp)
        drain(publisher.poll_steps())
        ref, blob = self._chunk(exp, publisher)
        hashed = []
        real = chunks.sha256_hex

        def recording(data):
            hashed.append(len(data))
            return real(data)

        monkeypatch.setattr(chunks, "sha256_hex", recording)
        chunks.decode_chunk_rows(ref.key, blob, ref.digest)
        assert hashed == [len(blob)]

    def test_structural_garbage_raises(self):
        from repro.errors import CheckpointCorruptError
        from repro.serving import decode_chunk_rows

        with pytest.raises(CheckpointCorruptError):
            decode_chunk_rows("k", b"not a chunk at all", None)


class TestHotFirstRestore:
    def _run_and_manifests(self, exp, intervals=2):
        exp.controller.run_intervals(intervals)
        settle(exp)
        restorer = CheckpointRestorer(exp.store, exp.clock)
        manifests = restorer.list_manifests(exp.controller.job_id)
        target = max(manifests.values(), key=lambda m: m.interval_index)
        return restorer, manifests, target

    def _steps_and_report(self, restorer, model, target, manifests, **kw):
        steps: list[TransferStep] = []
        gen = restorer.restore_steps(model, target, manifests, **kw)
        try:
            while True:
                steps.append(next(gen))
        except StopIteration as stop:
            return steps, stop.value

    def test_hot_first_restores_identical_state(self, serving_exp):
        exp = serving_exp
        restorer, manifests, target = self._run_and_manifests(exp)
        hot = {
            t: np.arange(8, dtype=np.int64)
            for t in range(exp.model.num_tables)
        }
        plain = DLRM(exp.config.model)
        self._steps_and_report(
            restorer, plain, target, manifests, order=ORDER_MANIFEST
        )
        hot_first = DLRM(exp.config.model)
        self._steps_and_report(
            restorer,
            hot_first,
            target,
            manifests,
            order=ORDER_HOT_FIRST,
            hot_rows=hot,
        )
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                plain.table_weight(t), hot_first.table_weight(t)
            )

    def test_hot_first_reads_dense_before_chunks(self, serving_exp):
        exp = serving_exp
        restorer, manifests, target = self._run_and_manifests(exp)
        steps, report = self._steps_and_report(
            restorer,
            DLRM(exp.config.model),
            target,
            manifests,
            order=ORDER_HOT_FIRST,
            hot_rows={0: np.arange(4, dtype=np.int64)},
        )
        assert "dense" in steps[0].key
        assert report.first_batch_ready_s <= report.finished_at_s
        assert report.time_to_first_batch_s >= 0.0

    def test_manifest_order_first_batch_equals_finish(self, serving_exp):
        exp = serving_exp
        restorer, manifests, target = self._run_and_manifests(exp)
        _, report = self._steps_and_report(
            restorer, DLRM(exp.config.model), target, manifests
        )
        assert report.first_batch_ready_s == report.finished_at_s

    def test_unknown_order_raises(self, serving_exp):
        exp = serving_exp
        restorer, manifests, target = self._run_and_manifests(exp)
        with pytest.raises(CheckpointError):
            next(
                restorer.restore_steps(
                    DLRM(exp.config.model),
                    target,
                    manifests,
                    order="sideways",
                )
            )
