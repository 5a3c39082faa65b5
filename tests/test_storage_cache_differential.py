"""Differential proof: a cache-layered store equals the bare backend.

The cache tier (:mod:`repro.storage.cache`) claims to be *transparent*:
whatever policy, whatever eviction pressure, the composed near/far
stack must be observationally identical to a single flat backend —
same bytes, same listings, same not-found errors. These tests drive a
seeded-random PUT/GET/DELETE/LIST/HEAD stream through a
:class:`CacheTierBackend` and a bare :class:`InMemoryBackend` side by
side and compare every observable after every op, for both policies,
across enough traffic that evictions (and, under write-back, dirty
flushes and forced flushes) demonstrably fired — transparency is only
interesting once the cache has actually churned.

A second differential runs the same idea one layer up, through two
timed :class:`ObjectStore` instances, so the engine integration
(``cost_for`` pricing, ``attach_engine`` flushes, ranged GETs) is
covered too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import ObjectNotFoundError, StorageError
from repro.storage.backends import CrashingBackend, InMemoryBackend
from repro.storage.cache import (
    CACHE_POLICIES,
    FLUSH_WATERMARK,
    POLICY_WRITE_BACK,
    POLICY_WRITE_THROUGH,
    CacheTierBackend,
    find_cache_tier,
)
from repro.storage.object_store import ObjectStore
from repro.storage.requests import OP_GET, StorageRequest

import backend_ops as ops

#: Small key pool so the stream revisits keys (hits, overwrites,
#: delete-then-recreate) instead of write-once-read-never traffic.
KEY_POOL = [f"job0/ckpt-{i:03d}/chunk-{i % 4}" for i in range(12)]
#: Capacity far below pool-size * max-payload, so eviction is constant.
CAPACITY = 6_000
MAX_PAYLOAD = 4_000

OPS = ["put", "get", "delete", "list", "head"]
WEIGHTS = [0.40, 0.25, 0.10, 0.10, 0.15]


def _observe(fn):
    """Run one read-class op, normalising absence into a value."""
    try:
        return ("ok", fn())
    except ObjectNotFoundError:
        return ("missing", None)


def _payload(rng: np.random.Generator) -> bytes:
    size = int(rng.integers(1, MAX_PAYLOAD + 1))
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _assert_same_listings(cache, bare):
    assert ops.list_keys(cache, "") == ops.list_keys(bare, "")
    # A narrower prefix exercises the near/far union filter.
    assert ops.list_keys(cache, "job0/ckpt-00") == ops.list_keys(
        bare, "job0/ckpt-00"
    )


def _assert_same_contents(cache, bare):
    for key in ops.list_keys(bare, ""):
        assert ops.read(cache, key) == ops.read(bare, key), key


@pytest.mark.parametrize("policy", CACHE_POLICIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_differential_op_stream(policy, seed):
    """400 seeded ops: every observable matches after every op."""
    rng = np.random.default_rng(seed)
    far = InMemoryBackend()
    cache = CacheTierBackend(far, capacity_bytes=CAPACITY, policy=policy)
    bare = InMemoryBackend()

    for step in range(400):
        op = OPS[int(rng.choice(len(OPS), p=WEIGHTS))]
        key = KEY_POOL[int(rng.integers(len(KEY_POOL)))]
        if op == "put":
            data = _payload(rng)
            ops.write(cache, key, data)
            ops.write(bare, key, data)
        elif op == "get":
            got = _observe(lambda: ops.read(cache, key))
            want = _observe(lambda: ops.read(bare, key))
            assert got == want, key
        elif op == "delete":
            got = _observe(lambda: ops.delete(cache, key))
            want = _observe(lambda: ops.delete(bare, key))
            assert got[0] == want[0], key
        elif op == "head":
            assert ops.exists(cache, key) == ops.exists(bare, key), key
        _assert_same_listings(cache, bare)
        if step % 50 == 49:
            _assert_same_contents(cache, bare)
        if policy == POLICY_WRITE_THROUGH:
            # Write-through keeps the far tier authoritative at every
            # instant, not just after a flush.
            assert ops.list_keys(far, "") == ops.list_keys(bare, "")

    # The stream must actually have churned the cache, or transparency
    # was never under pressure.
    assert cache.evictions > 0
    assert cache.hits > 0 and cache.misses > 0
    if policy == POLICY_WRITE_BACK:
        assert cache.dirty_flushes > 0
        cache.flush()
        assert cache.dirty_backlog == 0
        assert cache.dirty_bytes == 0
    # After draining, the far tier alone reproduces the bare backend.
    assert ops.list_keys(far, "") == ops.list_keys(bare, "")
    for key in ops.list_keys(bare, ""):
        assert ops.read(far, key) == ops.read(bare, key), key
    _assert_same_contents(cache, bare)


@pytest.mark.parametrize("policy", CACHE_POLICIES)
def test_differential_through_timed_stores(policy):
    """Same differential one layer up: two full ObjectStores.

    Covers the engine path — ``cost_for`` per-request pricing,
    ``attach_engine`` so flushes ride the retry loop, staged PUT/GET
    submission — rather than the raw backend shims.
    """
    rng = np.random.default_rng(7)
    config = StorageConfig()
    far = InMemoryBackend()
    cached_store = ObjectStore(
        config,
        SimClock(),
        backend=CacheTierBackend(
            far, capacity_bytes=CAPACITY, policy=policy
        ),
    )
    bare_store = ObjectStore(config, SimClock(), backend=InMemoryBackend())

    for step in range(120):
        op = OPS[int(rng.choice(len(OPS), p=WEIGHTS))]
        key = KEY_POOL[int(rng.integers(len(KEY_POOL)))]
        if op == "put":
            data = _payload(rng)
            if bare_store.exists(key):
                cached_store.delete(key)
                bare_store.delete(key)
            cached_store.put(key, data)
            bare_store.put(key, data)
        elif op == "get":
            got = _observe(lambda: cached_store.get(key))
            want = _observe(lambda: bare_store.get(key))
            assert got == want, key
        elif op == "delete":
            if bare_store.exists(key):
                cached_store.delete(key)
                bare_store.delete(key)
        elif op == "head":
            assert cached_store.exists(key) == bare_store.exists(key)
        assert cached_store.list_keys("") == bare_store.list_keys("")

    tier = find_cache_tier(cached_store.backend)
    assert tier is not None
    assert tier.evictions > 0
    if policy == POLICY_WRITE_BACK:
        tier.flush()
    for key in bare_store.list_keys(""):
        assert cached_store.get(key) == bare_store.get(key), key
        assert ops.read(far, key) == bare_store.get(key), key


class TestCacheSemantics:
    """Targeted invariants the random stream cannot pin down exactly."""

    def _cache(
        self,
        policy=POLICY_WRITE_BACK,
        capacity=1_000,
        flush_watermark=FLUSH_WATERMARK,
    ):
        far = InMemoryBackend()
        cache = CacheTierBackend(far, capacity_bytes=capacity, policy=policy)
        cache.flush_watermark = flush_watermark
        return far, cache

    def test_eviction_prefers_clean_lru(self):
        far, cache = self._cache(capacity=1_000, flush_watermark=1.0)
        ops.write(cache, "dirty-old", b"d" * 300)
        ops.write(far, "clean-a", b"a" * 300)
        ops.write(far, "clean-b", b"b" * 300)
        ops.read(cache, "clean-a")  # admitted clean, LRU-oldest clean
        ops.read(cache, "clean-b")
        assert cache.near_bytes == 900
        ops.write(cache, "new", b"n" * 300)  # forces one eviction
        assert cache.evictions == 1
        # The dirty object survived; the least-recent clean one went.
        assert "dirty-old" in cache.cached_keys()
        assert "clean-a" not in cache.cached_keys()
        assert "clean-b" in cache.cached_keys()
        assert cache.forced_flushes == 0

    def test_all_dirty_eviction_forces_a_flush(self):
        """When the background flusher fails, eviction force-flushes.

        In the healthy path the auto-flusher keeps dirty bytes below
        the watermark, so eviction always finds clean victims; a
        transient far failure leaves everything dirty, and the next
        capacity squeeze must flush-then-evict rather than drop bytes.
        """
        inner = InMemoryBackend()
        far = CrashingBackend(inner)
        cache = CacheTierBackend(far, capacity_bytes=1_000)
        cache.flush_watermark = 1.0
        ops.write(cache, "k0", b"0" * 600)
        far.arm(1)  # the auto-flush triggered by the next write crashes
        ops.write(cache, "k1", b"1" * 600)
        assert cache.flush_failures == 1  # swallowed, write still acked
        # Eviction pressure inside the same write saw only dirty
        # objects: the oldest was force-flushed to the (recovered) far
        # tier, then evicted.
        assert cache.forced_flushes == 1
        assert cache.evictions == 1
        assert ops.read(inner, "k0") == b"0" * 600
        assert "k0" not in cache.cached_keys()
        assert cache.dirty_keys() == ["k1"]

    def test_watermark_triggers_background_flush(self):
        far, cache = self._cache(capacity=1_000, flush_watermark=0.5)
        ops.write(cache, "k0", b"0" * 300)
        assert cache.dirty_flushes == 0  # 300 <= 500: below watermark
        ops.write(cache, "k1", b"1" * 300)  # 600 > 500: flusher drains
        assert cache.dirty_flushes >= 1
        assert ops.exists(far, "k0")
        assert cache.dirty_bytes <= 500

    def test_oversized_object_bypasses_near_tier(self):
        far, cache = self._cache(capacity=1_000)
        big = b"x" * 2_000
        ops.write(cache, "big", big)
        assert cache.bypass_writes == 1
        assert "big" not in cache.cached_keys()
        assert ops.read(far, "big") == big
        # Reads of the bypassed object also refuse admission.
        assert ops.read(cache, "big") == big
        assert "big" not in cache.cached_keys()

    def test_ranged_get_never_admits(self):
        far, cache = self._cache()
        ops.write(far, "obj", bytes(range(200)))
        request = StorageRequest(OP_GET, "obj", byte_range=(10, 20))
        assert cache.get_object(request) == bytes(range(10, 20))
        assert cache.misses == 1
        assert "obj" not in cache.cached_keys()
        # A whole-object read admits; a ranged hit then clips near data.
        assert ops.read(cache, "obj") == bytes(range(200))
        assert cache.get_object(request) == bytes(range(10, 20))
        assert cache.hits == 1

    def test_delete_of_dirty_only_object_succeeds(self):
        far, cache = self._cache(flush_watermark=1.0)
        ops.write(cache, "dirty", b"d")
        assert not ops.exists(far, "dirty")
        ops.delete(cache, "dirty")  # far raises not-found; near copy absorbs
        assert not ops.exists(cache, "dirty")
        with pytest.raises(ObjectNotFoundError):
            ops.delete(cache, "never-existed")

    def test_constructor_validation(self):
        far = InMemoryBackend()
        with pytest.raises(StorageError):
            CacheTierBackend(far, capacity_bytes=0)
        with pytest.raises(StorageError):
            CacheTierBackend(far, capacity_bytes=10, policy="write_around")

    def test_stats_snapshot_round_trip(self):
        _, cache = self._cache(flush_watermark=1.0)
        ops.write(cache, "k", b"abc")
        ops.read(cache, "k")
        stats = cache.stats()
        assert stats.policy == POLICY_WRITE_BACK
        assert stats.hits == 1 and stats.misses == 0
        assert stats.hit_rate == 1.0
        assert stats.dirty_backlog == 1
        assert stats.near_bytes == 3
        empty = cache.stats()
        assert empty.hit_rate == stats.hit_rate  # frozen snapshot math
