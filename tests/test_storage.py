"""Unit tests for backends, bandwidth accounting, and the object store."""

from __future__ import annotations

import pytest

from repro.config import StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import (
    ObjectExistsError,
    ObjectNotFoundError,
    StorageError,
)
from repro.storage.backends import (
    FileBackend,
    InMemoryBackend,
    MirroredBackend,
)
from repro.storage.bandwidth import Transfer, TransferLog, transfer_time_s
from repro.storage.engine import drain
from repro.storage.object_store import ObjectStore

import backend_ops as ops


@pytest.fixture(params=["memory", "file", "mirrored"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryBackend()
    if request.param == "file":
        return FileBackend(tmp_path / "store")
    return MirroredBackend([InMemoryBackend() for _ in range(3)])


class TestBackends:
    def test_write_read(self, backend):
        ops.write(backend, "a/b/key1", b"data")
        assert ops.read(backend, "a/b/key1") == b"data"
        assert ops.exists(backend, "a/b/key1")

    def test_overwrite(self, backend):
        ops.write(backend, "k", b"v1")
        ops.write(backend, "k", b"v2")
        assert ops.read(backend, "k") == b"v2"

    def test_missing_key(self, backend):
        with pytest.raises(ObjectNotFoundError):
            ops.read(backend, "missing")
        with pytest.raises(ObjectNotFoundError):
            ops.delete(backend, "missing")

    def test_delete(self, backend):
        ops.write(backend, "k", b"v")
        ops.delete(backend, "k")
        assert not ops.exists(backend, "k")

    def test_list_prefix(self, backend):
        ops.write(backend, "job0/ckpt0/a", b"1")
        ops.write(backend, "job0/ckpt1/b", b"2")
        ops.write(backend, "job1/ckpt0/c", b"3")
        assert ops.list_keys(backend, "job0/") == [
            "job0/ckpt0/a",
            "job0/ckpt1/b",
        ]
        assert len(ops.list_keys(backend)) == 3


class TestFileBackend:
    def test_rejects_traversal_keys(self, tmp_path):
        backend = FileBackend(tmp_path)
        with pytest.raises(StorageError, match="invalid"):
            ops.write(backend, "../escape", b"x")
        with pytest.raises(StorageError, match="invalid"):
            ops.write(backend, "/absolute", b"x")

    def test_survives_reopen(self, tmp_path):
        ops.write(FileBackend(tmp_path / "s"), "k", b"persisted")
        assert ops.read(FileBackend(tmp_path / "s"), "k") == b"persisted"


class TestMirroredBackend:
    def test_survives_replica_loss(self):
        mirror = MirroredBackend([InMemoryBackend() for _ in range(3)])
        ops.write(mirror, "k", b"v")
        mirror.fail_replica(0)
        mirror.fail_replica(1)
        assert ops.read(mirror, "k") == b"v"

    def test_all_replicas_failed(self):
        mirror = MirroredBackend([InMemoryBackend()])
        mirror.fail_replica(0)
        with pytest.raises(StorageError, match="all replicas"):
            ops.read(mirror, "k")

    def test_requires_replicas(self):
        with pytest.raises(StorageError):
            MirroredBackend([])


class TestTransferMath:
    def test_transfer_time(self):
        assert transfer_time_s(1000, 100.0, 0.5) == pytest.approx(10.5)

    def test_invalid_args(self):
        with pytest.raises(StorageError):
            transfer_time_s(-1, 100, 0)
        with pytest.raises(StorageError):
            transfer_time_s(1, 0, 0)

    def test_windowed_bandwidth_pro_rata(self):
        log = TransferLog()
        log.record(Transfer("k", 100, 0.0, 10.0, "put"))
        # Half the transfer overlaps [5, 10]: 50 bytes over 5 s.
        assert log.average_bandwidth(5.0, 10.0) == pytest.approx(10.0)

    def test_window_without_transfers(self):
        assert TransferLog().average_bandwidth(0, 10) == 0.0

    def test_empty_window_rejected(self):
        with pytest.raises(StorageError):
            TransferLog().average_bandwidth(5, 5)


class TestObjectStore:
    @pytest.fixture
    def store(self):
        clock = SimClock()
        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=3,
            latency_s=0.0,
        )
        return ObjectStore(config, clock)

    def test_put_get_roundtrip(self, store):
        store.put("k", b"hello")
        assert store.get("k") == b"hello"

    def test_put_duration_uses_replicated_bytes(self, store):
        receipt = store.put("k", b"x" * 1000)
        # 3000 physical bytes over 1000 B/s.
        assert receipt.duration_s == pytest.approx(3.0)
        assert receipt.physical_bytes == 3000

    def test_puts_serialise_on_the_link(self, store):
        r1 = store.put("a", b"x" * 1000)
        r2 = store.put("b", b"x" * 1000)
        assert r2.start_s == pytest.approx(r1.completed_s)

    def test_no_accidental_overwrite(self, store):
        store.put("k", b"v1")
        with pytest.raises(ObjectExistsError):
            store.put("k", b"v2")
        assert store.get("k") == b"v1"

    def test_delete_frees_capacity(self, store):
        store.put("k", b"x" * 100)
        assert store.live_logical_bytes == 100
        store.delete("k")
        assert store.live_logical_bytes == 0
        assert store.stats().peak_physical_bytes == 300

    def test_peak_is_the_max_over_put_put_delete(self, store):
        peaks = []
        for mutate in (
            lambda: store.put("a", b"x" * 10),
            lambda: store.put("b", b"x" * 20),
            lambda: store.delete("a"),
        ):
            mutate()
            stats = store.stats()
            peaks.append(stats.peak_logical_bytes)
            assert stats.peak_physical_bytes == 3 * stats.peak_logical_bytes
        assert peaks == [10, 30, 30]
        assert store.live_logical_bytes == 20

    def test_stats(self, store):
        store.put("a", b"x" * 10)
        stats = store.stats()
        assert stats.num_objects == 1
        assert stats.total_bytes_written == 30
        assert stats.live_physical_bytes == 30

    def test_empty_key_rejected(self, store):
        with pytest.raises(StorageError):
            store.put("", b"x")

    def test_object_size(self, store):
        store.put("k", b"x" * 7)
        assert store.object_size("k") == 7
        with pytest.raises(StorageError):
            store.object_size("nope")

    def test_earliest_defers_write(self, store):
        receipt = drain(store.stage_put("k", b"x", earliest=100.0))
        assert receipt.start_s == 100.0
