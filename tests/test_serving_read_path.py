"""The serving read path: block admission, shared decodes, frozen values.

Three promises are held here. ``RowCache.admit_many`` is today's
one-row admission rule applied to a batch (differential against the
frozen body in ``tests/reference_rowcache.py``). The plane's
``DecodedChunkCache`` shares only the decode of bytes a reader has just
verified — every read is still one GET and one sha256. And nothing a
lookup hands out can be written through into the cache.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import backend_ops as ops
import reference_rowcache as ref
from repro.errors import CheckpointCorruptError
from repro.serving import (
    DecodedChunkCache,
    InferenceServer,
    LookupRequest,
    RowCache,
    chunks,
)
from repro.storage.engine import drain
from test_serving_flip import published_pair  # noqa: F401 (fixture)

# ----------------------------------------------------------------------
# (a) admit_many == admit, row by row
# ----------------------------------------------------------------------

_ROWS = st.integers(0, 11)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("pin"), st.integers(0, 1), _ROWS),
        st.tuples(
            st.just("admit"),
            st.integers(0, 1),
            st.lists(_ROWS, max_size=20),
        ),
    ),
    max_size=30,
)


def _observable(cache: RowCache):
    return (
        [(key, float(value[0])) for key, value in cache._lru.items()],
        [(key, float(value[0])) for key, value in cache._pinned.items()],
        cache.stats.inserts,
        cache.stats.evictions,
    )


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), ops=_OPS)
# Pins fill the whole cache: every later admission bounces.
@example(
    capacity=2,
    ops=[("pin", 0, 1), ("pin", 0, 2), ("admit", 0, [1, 3, 4]), ("pin", 0, 5)],
)
# One batch larger than the ring leaves only its own tail, in order.
@example(capacity=3, ops=[("pin", 0, 0), ("admit", 0, [1, 2, 3, 4, 2, 5, 0])])
# Pinning a ring row mid-stream shrinks the ring the next batch sees.
@example(
    capacity=3,
    ops=[("admit", 1, [7, 8, 9]), ("pin", 1, 8), ("admit", 1, [9, 10, 7, 7])],
)
def test_admit_many_is_admit_row_by_row(capacity, ops):
    batched = RowCache(capacity, version_index=0)
    one_by_one = RowCache(capacity, version_index=0)
    stamp = 0
    for kind, table_id, arg in ops:
        if kind == "pin":
            stamp += 1
            assert batched.pin(
                table_id, arg, np.full(2, stamp, dtype=np.float32)
            ) == one_by_one.pin(
                table_id, arg, np.full(2, stamp, dtype=np.float32)
            )
        else:
            stamps = range(stamp + 1, stamp + 1 + len(arg))
            stamp += len(arg)
            # The batch's values are rows of one block, as the server
            # hands them over.
            block = np.repeat(
                np.asarray(stamps, dtype=np.float32)[:, None], 2, axis=1
            )
            batched.admit_many(table_id, zip(arg, block))
            for row, value in zip(arg, stamps):
                ref.admit(
                    one_by_one,
                    table_id,
                    row,
                    np.full(2, value, dtype=np.float32),
                )
        assert _observable(batched) == _observable(one_by_one)
        assert len(batched) <= capacity


def test_admit_is_the_one_row_case():
    """``admit`` and ``admit_many`` share one loop: same counts, same
    order, and numpy integer rows land under plain-int keys."""
    cache = RowCache(2, version_index=0)
    for row in np.arange(3):
        cache.admit(0, row, np.full(2, row, dtype=np.float32))
    assert list(cache._lru) == [(0, 1), (0, 2)]
    assert all(type(row) is int for _, row in cache._lru)
    assert (cache.stats.inserts, cache.stats.evictions) == (3, 1)


# ----------------------------------------------------------------------
# (b) the decoded-chunk cache
# ----------------------------------------------------------------------


@pytest.fixture
def hashed(monkeypatch):
    """Byte lengths the serving read path hashed, in call order."""
    lengths = []
    real = chunks.sha256_hex

    def recording(data):
        lengths.append(len(data))
        return real(data)

    monkeypatch.setattr(chunks, "sha256_hex", recording)
    return lengths


def _chunk_blobs(exp, publisher, count: int):
    """``count`` distinct ``(RowRef, stored bytes)`` of the newest version."""
    refs = {}
    for table in publisher.latest_version.locator.values():
        for row_ref in table.values():
            refs.setdefault(row_ref.key, row_ref)
    assert len(refs) >= count
    return [
        (refs[key], ops.read(exp.store.backend, key))
        for key in sorted(refs)[:count]
    ]


class TestDecodedChunkCache:
    def test_decodes_each_digest_once(self, published_pair):
        exp, publisher, _ = published_pair
        (row_ref, blob), = _chunk_blobs(exp, publisher, 1)
        cache = DecodedChunkCache()
        first = cache.decode(row_ref.key, blob, row_ref.digest)
        again = cache.decode(row_ref.key, blob, row_ref.digest)
        assert cache.decodes == 1 and len(cache) == 1
        assert again[0] is first[0] and again[1] is first[1]
        rows, weights = chunks.decode_chunk_rows(
            row_ref.key, blob, row_ref.digest
        )
        np.testing.assert_array_equal(first[0], rows)
        np.testing.assert_array_equal(first[1], weights)
        assert cache.held_bytes == rows.nbytes + weights.nbytes

    def test_tampered_bytes_under_a_cached_key_still_raise(
        self, published_pair
    ):
        """The hash is of the bytes just read, not of the key."""
        exp, publisher, _ = published_pair
        (row_ref, blob), = _chunk_blobs(exp, publisher, 1)
        cache = DecodedChunkCache()
        cache.decode(row_ref.key, blob, row_ref.digest)
        tampered = blob[:-1] + bytes([blob[-1] ^ 0x01])
        with pytest.raises(CheckpointCorruptError):
            cache.decode(row_ref.key, tampered, row_ref.digest)
        assert cache.decodes == 1

    def test_every_read_is_hashed(self, published_pair, hashed):
        exp, publisher, _ = published_pair
        (row_ref, blob), = _chunk_blobs(exp, publisher, 1)
        cache = DecodedChunkCache()
        for _ in range(3):
            cache.decode(row_ref.key, blob, row_ref.digest)
        assert hashed == [len(blob)] * 3 and cache.decodes == 1

    def test_byte_budget_evicts_oldest_first(self, published_pair):
        exp, publisher, _ = published_pair
        (a, blob_a), (b, blob_b), (c, blob_c) = _chunk_blobs(
            exp, publisher, 3
        )
        sizes = [
            sum(
                x.nbytes
                for x in chunks.decode_chunk_rows(r.key, blob, r.digest)
            )
            for r, blob in ((a, blob_a), (b, blob_b), (c, blob_c))
        ]
        cache = DecodedChunkCache()
        cache.budget_bytes = max(sizes) * 2
        for row_ref, blob in ((a, blob_a), (b, blob_b), (c, blob_c)):
            cache.decode(row_ref.key, blob, row_ref.digest)
        assert cache.decodes == 3 and len(cache) == 2
        assert cache.held_bytes <= cache.budget_bytes
        cache.decode(b.key, blob_b, b.digest)
        cache.decode(c.key, blob_c, c.digest)
        assert cache.decodes == 3  # b and c survived, a (oldest) did not
        cache.decode(a.key, blob_a, a.digest)
        assert cache.decodes == 4  # ... which pushed b out in turn
        cache.decode(c.key, blob_c, c.digest)
        assert cache.decodes == 4
        cache.decode(b.key, blob_b, b.digest)
        assert cache.decodes == 5

    def test_chunk_over_budget_is_served_but_not_held(
        self, published_pair
    ):
        exp, publisher, _ = published_pair
        (row_ref, blob), = _chunk_blobs(exp, publisher, 1)
        cache = DecodedChunkCache()
        cache.budget_bytes = 1
        for expected in (1, 2):
            rows, _ = cache.decode(row_ref.key, blob, row_ref.digest)
            assert rows.size and cache.decodes == expected
        assert len(cache) == 0 and cache.held_bytes == 0

    def test_returned_arrays_are_not_writeable(self, published_pair):
        exp, publisher, _ = published_pair
        (row_ref, blob), = _chunk_blobs(exp, publisher, 1)
        rows, weights = DecodedChunkCache().decode(
            row_ref.key, blob, row_ref.digest
        )
        with pytest.raises(ValueError):
            rows[0] = -1
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0


# ----------------------------------------------------------------------
# (c) what is per server, what the plane shares
# ----------------------------------------------------------------------


def _unmodified_row(publisher) -> tuple[int, int]:
    """A (table, row) version 1 still reads from version 0's chunk."""
    v0, v1 = publisher.versions
    for table_id in sorted(v1.locator):
        for row, row_ref in sorted(v1.locator[table_id].items()):
            if row_ref.key == v0.locator[table_id][row].key:
                return table_id, row
    raise AssertionError("the increment re-wrote every row")


def _lookup(server, exp, *rows, request_id=0):
    return drain(
        server.lookup_steps(
            LookupRequest(
                request_id=request_id, arrival_s=exp.clock.now, rows=rows
            )
        )
    )


def test_two_servers_one_chunk_two_gets_two_hashes_one_decode(
    published_pair, hashed
):
    exp, publisher, golden = published_pair
    shared = DecodedChunkCache()
    servers = [
        InferenceServer(
            stream,
            exp.store,
            publisher,
            cache_rows=64,
            stream=stream,
            warm_pins=False,
            decoded_chunks=shared,
        )
        for stream in ("s0", "s1")
    ]
    table_id, row = _unmodified_row(publisher)
    key = publisher.versions[1].row_ref(table_id, row).key
    for server in servers:
        drain(server.flip_steps(publisher.versions[1], exp.clock.now))
        result = _lookup(server, exp, (table_id, row))
        assert (result.hits, result.misses) == (0, 1)
        np.testing.assert_array_equal(
            result.values[(table_id, row)], golden[1][table_id][row]
        )
    for stream in ("s0", "s1"):
        gets = exp.store.log.transfers(kind="get", stream=stream)
        assert [t.key for t in gets] == [key]
    assert len(hashed) == 2 and hashed[0] == hashed[1]
    assert shared.decodes == 1
    # Row caches stay private: each server admitted its own copy.
    blocks = [s.current.cache.peek(table_id, row) for s in servers]
    assert not np.shares_memory(blocks[0], blocks[1])


def test_a_lone_server_makes_its_own_cache(published_pair):
    exp, publisher, _ = published_pair
    one, other = (
        InferenceServer(name, exp.store, publisher, cache_rows=64)
        for name in ("s0", "s1")
    )
    assert isinstance(one.decoded_chunks, DecodedChunkCache)
    assert one.decoded_chunks is not other.decoded_chunks


def test_window_admits_only_rows_the_version_maps_to_the_chunk(
    published_pair,
):
    """A full checkpoint's chunk carries stale copies of rows a later
    increment re-wrote; neither the first fetch of a chunk (residency
    computed) nor the second (residency reused) may admit them."""
    exp, publisher, golden = published_pair
    v1 = publisher.versions[1]
    server = InferenceServer(
        "s0", exp.store, publisher, cache_rows=64, warm_pins=False
    )
    drain(server.flip_steps(v1, exp.clock.now))
    table_id, unmodified = _unmodified_row(publisher)
    stale = set(v1.modified_rows[table_id].tolist())
    assert stale, "version 1 modified nothing in this table"
    chunk_key = v1.row_ref(table_id, unmodified).key
    in_chunk = sorted(
        row
        for row, row_ref in v1.locator[table_id].items()
        if row_ref.key == chunk_key
    )
    cache = server.current.cache
    fetched = 0
    for request_id, row in enumerate(in_chunk):
        if cache.contains(table_id, row):
            continue
        result = _lookup(server, exp, (table_id, row), request_id=request_id)
        assert result.misses == 1
        fetched += 1
    assert fetched >= 2  # the chunk was fetched again, residency reused
    assert list(server.current.resident) == [chunk_key]
    assert server.decoded_chunks.decodes == 1
    for (cached_table, row), value in cache._lru.items():
        assert cached_table == table_id and row not in stale
        np.testing.assert_array_equal(value, golden[1][table_id][row])


# ----------------------------------------------------------------------
# Served values cannot be written through into the cache
# ----------------------------------------------------------------------


class TestServedValuesAreFrozen:
    def test_rowcache_freezes_what_it_stores(self):
        cache = RowCache(4, version_index=0)
        admitted, pinned = np.ones(2, np.float32), np.ones(2, np.float32)
        cache.admit(0, 1, admitted)
        cache.pin(0, 2, pinned)
        for value in (admitted, pinned, cache.lookup(0, 1), cache.lookup(0, 2)):
            with pytest.raises(ValueError):
                value[0] = 7.0

    @pytest.mark.parametrize("warm_pins", [False, True])
    def test_writing_to_a_served_value_raises_and_hits_stay_golden(
        self, published_pair, warm_pins
    ):
        exp, publisher, golden = published_pair
        v1 = publisher.versions[1]
        server = InferenceServer(
            "s0", exp.store, publisher, cache_rows=64, warm_pins=warm_pins
        )
        drain(server.flip_steps(v1, exp.clock.now))
        cold = _unmodified_row(publisher)
        hot_table = next(t for t in sorted(v1.hot_rows) if v1.hot_rows[t].size)
        wanted = [cold, (hot_table, int(v1.hot_rows[hot_table][0]))]
        first = _lookup(server, exp, *wanted)
        assert first.misses >= 1
        again = _lookup(server, exp, *wanted, request_id=1)
        assert (again.hits, again.misses) == (2, 0)
        for result in (first, again):
            for (table_id, row), value in result.values.items():
                with pytest.raises(ValueError):
                    value[...] = 0.0
        final = _lookup(server, exp, *wanted, request_id=2)
        for (table_id, row), value in final.values.items():
            np.testing.assert_array_equal(value, golden[1][table_id][row])
