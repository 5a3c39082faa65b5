"""Crash-consistency matrix for the write-back cache tier.

A write-back flush is one far-tier PUT, and the crash injector
(:class:`~repro.storage.backends.CrashingBackend`) fires *before* the
inner write — so a crash anywhere in a flush train must leave every
far-tier object either wholly old or wholly new, never torn. These
tests sweep the crash point across multi-object flushes (backend-level
matrix, then through a full checkpointing experiment), assert the
old-or-new invariant at every point, and prove the two recovery paths:

* **crash mid-flush** — the interrupted objects stay dirty; after the
  far tier recovers, a re-flush converges far == near and a
  quarantine-level ``repro scan`` over the composed store comes back
  clean (no torn checkpoints, no quarantines);
* **near-tier loss** — :meth:`CacheTierBackend.wipe_near` drops
  dirty-but-unflushed checkpoints outright; ``plan_resume`` then falls
  back to the newest fully flushed checkpoint instead of failing the
  restore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.integrity import scan_job
from repro.core.restore import CheckpointRestorer
from repro.errors import StorageError, TransientStorageError
from repro.experiments import build_experiment, small_config
from repro.storage.backends import CrashingBackend, InMemoryBackend
from repro.storage.cache import POLICY_WRITE_BACK, CacheTierBackend
from repro.storage.engine import drain

import backend_ops as ops


def _tiered(capacity: int = 1 << 20):
    """A write-back cache over a crash-injectable far tier.

    A flush watermark of 1.0 keeps the background flusher quiet until
    dirty bytes exceed the whole capacity, so tests control exactly
    when far writes happen.
    """
    inner = InMemoryBackend()
    far = CrashingBackend(inner)
    cache = CacheTierBackend(
        far, capacity_bytes=capacity, policy=POLICY_WRITE_BACK
    )
    cache.flush_watermark = 1.0
    return inner, far, cache


class TestMidFlushCrashMatrix:
    """Sweep the crash point across a 10-object flush train."""

    @pytest.mark.parametrize("crash_at", [1, 2, 3, 5, 8, 10])
    def test_far_object_is_old_or_new_never_torn(self, crash_at):
        rng = np.random.default_rng(crash_at)
        inner, far, cache = _tiered(capacity=100_000)
        # Far tier starts with *older versions* of some keys, so the
        # matrix covers overwrite flushes, not just creations.
        old = {}
        for i in range(4):
            key = f"job0/obj-{i}"
            old[key] = bytes([i]) * 100
            ops.write(inner, key, old[key])
        new = {}
        for i in range(10):
            key = f"job0/obj-{i}"
            size = int(rng.integers(50, 400))
            new[key] = rng.integers(
                0, 256, size=size, dtype=np.uint8
            ).tobytes()
            ops.write(cache, key, new[key])
        assert cache.dirty_backlog == 10

        far.arm(crash_at)
        with pytest.raises(StorageError):
            cache.flush()
        assert cache.flush_failures == 1

        # The invariant: every far object is byte-identical to either
        # its pre-flush version or its new near copy — no far key holds
        # anything else, and no partial/truncated object appeared.
        for key in ops.list_keys(inner, ""):
            data = ops.read(inner, key)
            assert data == new[key] or data == old.get(key), key
        # Flush order is write order: everything before the crash point
        # landed whole, everything at/after it is still dirty with the
        # far tier untouched.
        for index, key in enumerate(new):
            if index < crash_at - 1:
                assert ops.read(inner, key) == new[key]
                assert key not in cache.dirty_keys()
            else:
                assert key in cache.dirty_keys()
                if key in old:
                    assert ops.read(inner, key) == old[key]
                else:
                    assert not ops.exists(inner, key)

        # Recovery: the far tier is back; a re-flush converges.
        flushed = cache.flush()
        assert flushed == 10 - (crash_at - 1)
        assert cache.dirty_backlog == 0
        for key, data in new.items():
            assert ops.read(inner, key) == data
        assert cache.flush_failures == 1  # the one crash, no more

    def test_repeated_crashes_make_progress(self):
        """A flush train that crashes on every attempt still converges:
        each attempt lands at least the objects before its crash
        point, and already-flushed objects are not re-sent."""
        inner, far, cache = _tiered(capacity=100_000)
        for i in range(6):
            ops.write(cache, f"k{i}", bytes([i]) * 64)
        attempts = 0
        while cache.dirty_backlog:
            far.arm(2)  # every attempt dies on its second far PUT
            try:
                cache.flush()
            except StorageError:
                pass
            attempts += 1
            assert attempts <= 6  # one object of progress per attempt
        far.disarm()
        for i in range(6):
            assert ops.read(inner, f"k{i}") == bytes([i]) * 64
        assert cache.dirty_flushes == 6
        assert cache.flush_failures == attempts - 1


@pytest.fixture
def tiered_experiment():
    """A checkpointing experiment writing through a write-back cache
    big enough that nothing flushes until the test says so."""
    inner, far, cache = _tiered(capacity=1 << 22)
    exp = build_experiment(
        small_config(
            num_tables=3,
            rows_per_table=512,
            embedding_dim=8,
            batch_size=32,
            interval_batches=5,
            num_nodes=1,
            devices_per_node=2,
        ),
        backend=cache,
    )
    return exp, inner, far, cache


class TestCheckpointFlushCrash:
    def test_scan_stays_clean_through_crash_and_recovery(
        self, tiered_experiment
    ):
        exp, inner, far, cache = tiered_experiment
        exp.controller.run_intervals(3)
        newest = max(
            m.valid_at_s for m in exp.controller.manifests.values()
        )
        exp.clock.advance_to(newest + 1.0, "settle")

        # Everything the run wrote is dirty in the near tier; the far
        # tier has seen nothing.
        assert cache.dirty_backlog > 0
        assert ops.list_keys(inner, "") == []

        # Crash at several points of the flush train. After each crash
        # the *composed* store still presents every object (near copies
        # back the unflushed tail), so an operator scan never reports a
        # torn checkpoint — chunks-without-manifest can exist on the
        # far tier mid-flush, but the store's view is whole.
        for crash_at in (1, 4, 9):
            far.arm(crash_at)
            with pytest.raises(StorageError):
                cache.flush()
            for key in ops.list_keys(inner, ""):
                assert ops.read(inner, key) == ops.read(cache, key), key
            report = scan_job(exp.store, "job0")
            assert report.clean
            assert report.torn_checkpoint_ids == []

        # Recovery: far tier healthy again, drain the backlog.
        far.disarm()
        cache.flush()
        assert cache.dirty_backlog == 0
        report = scan_job(exp.store, "job0", quarantine=True)
        assert report.clean
        assert report.quarantined_ids == []
        # The far tier alone now holds every object, byte-identical.
        assert ops.list_keys(inner, "") == ops.list_keys(exp.store.backend, "")
        for key in ops.list_keys(inner, ""):
            assert ops.read(inner, key) == ops.read(cache, key), key

    def test_transient_far_failure_inside_flush_is_retried(
        self, tiered_experiment
    ):
        """A *transient* far error (not a crash) rides the attached
        engine's retry loop: the flush succeeds without surfacing."""
        exp, inner, far, cache = tiered_experiment
        exp.controller.run_intervals(1)
        assert cache.dirty_backlog > 0

        real_put = far.put_object
        fail_once = {"armed": True}

        def flaky_put(request, data):
            if fail_once["armed"]:
                fail_once["armed"] = False
                raise TransientStorageError("simulated 503")
            return real_put(request, data)

        far.put_object = flaky_put
        before = dict(exp.store.engine.retries_by_op)
        cache.flush()
        assert cache.dirty_backlog == 0
        assert cache.flush_failures == 0
        retried = sum(exp.store.engine.retries_by_op.values()) - sum(
            before.values()
        )
        assert retried == 1


class TestNearTierLoss:
    def test_wipe_falls_back_to_newest_flushed_checkpoint(
        self, tiered_experiment
    ):
        exp, inner, far, cache = tiered_experiment
        # Two checkpoints written and durably flushed to the far tier.
        exp.controller.run_intervals(2)
        cache.flush()
        assert cache.dirty_backlog == 0
        settled = max(
            m.valid_at_s for m in exp.controller.manifests.values()
        )
        exp.clock.advance_to(settled + 1.0, "settle")
        restorer = CheckpointRestorer(exp.store, exp.clock)
        flushed_plan = restorer.plan_resume("job0")
        assert flushed_plan
        flushed_newest = flushed_plan[0]

        # A third checkpoint lands only in the near tier.
        exp.controller.run_intervals(1)
        newest = max(
            m.valid_at_s for m in exp.controller.manifests.values()
        )
        exp.clock.advance_to(newest + 1.0, "settle")
        assert cache.dirty_backlog > 0
        dirty_before = restorer.plan_resume("job0")
        assert (
            dirty_before[0].interval_index > flushed_newest.interval_index
        )

        # The NVMe tier dies: dirty-unflushed checkpoint 3 is gone.
        lost = cache.wipe_near()
        assert lost > 0
        assert cache.stats().near_wipes == 1

        # plan_resume falls back to the newest *flushed* checkpoint —
        # the unflushed one's manifest no longer exists anywhere.
        plan = restorer.plan_resume("job0")
        assert plan
        assert plan[0].checkpoint_id == flushed_newest.checkpoint_id
        manifests = restorer.list_manifests("job0")
        assert dirty_before[0].checkpoint_id not in manifests

        # And the fallback restore actually lands, through the policy's
        # chain, instead of failing on the lost checkpoint.
        report = drain(restorer.restore_steps(
            exp.model,
            plan[0],
            manifests,
            reader=exp.reader,
            policy=exp.controller.policy,
        ))
        assert report.checkpoint_id == flushed_newest.checkpoint_id
        assert report.rows_restored > 0

    def test_wipe_with_nothing_dirty_loses_nothing(
        self, tiered_experiment
    ):
        exp, inner, far, cache = tiered_experiment
        exp.controller.run_intervals(1)
        cache.flush()
        settled = max(
            m.valid_at_s for m in exp.controller.manifests.values()
        )
        exp.clock.advance_to(settled + 1.0, "settle")
        assert cache.wipe_near() == 0
        # Every object survives on the far tier; reads re-warm the near
        # tier as misses.
        restorer = CheckpointRestorer(exp.store, exp.clock)
        assert restorer.plan_resume("job0")
        misses_before = cache.misses
        for key in exp.store.list_keys(""):
            assert ops.read(cache, key)
        assert cache.misses > misses_before
