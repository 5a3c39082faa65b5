"""The request-oriented storage API: op classes, costs, receipts.

Covers the redesigned backend interface end to end: classed requests
and typed receipts, per-op-class cost models, the declared ``Backend``
contract every backend and wrapper stack answers, FileBackend
atomic-rename crash semantics,
MirroredBackend replica loss through the request methods, and the
S3-style RemoteObjectBackend's multipart upload (including partial
aborts leaving no visible object) and ranged-GET fan-out.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import BackendConfig, StorageConfig
from repro.distributed.clock import SimClock
from repro.errors import (
    ConfigError,
    ObjectNotFoundError,
    StorageError,
)
from repro.storage import (
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    Backend,
    BandwidthArbiter,
    CacheTierBackend,
    CrashingBackend,
    FileBackend,
    InMemoryBackend,
    MirroredBackend,
    ObjectStore,
    OpCostModel,
    OpCostSuite,
    RemoteObjectBackend,
    StorageRequest,
    clip_range,
    find_cache_tier,
    make_backend,
    s3like_costs,
)
from repro.storage.engine import drain

import backend_ops as ops


@pytest.fixture(params=["memory", "file", "mirrored", "crashing", "remote"])
def backend(request, tmp_path):
    if request.param == "memory":
        return InMemoryBackend()
    if request.param == "file":
        return FileBackend(tmp_path / "store")
    if request.param == "mirrored":
        return MirroredBackend([InMemoryBackend() for _ in range(3)])
    if request.param == "crashing":
        return CrashingBackend(InMemoryBackend())
    return RemoteObjectBackend(
        s3like_costs(1000.0, 2000.0), part_size_bytes=None
    )


class TestRequestInterface:
    """Every backend speaks classed requests with identical semantics."""

    def test_put_get_head_roundtrip(self, backend):
        backend.put_object(StorageRequest(OP_PUT, "a/b", 4), b"data")
        assert backend.get_object(StorageRequest(OP_GET, "a/b")) == b"data"
        assert backend.head_object(StorageRequest(OP_HEAD, "a/b"))
        assert not backend.head_object(StorageRequest(OP_HEAD, "nope"))

    def test_ranged_get(self, backend):
        backend.put_object(StorageRequest(OP_PUT, "k", 10), b"0123456789")
        assert (
            backend.get_object(
                StorageRequest(OP_GET, "k", byte_range=(2, 5))
            )
            == b"234"
        )
        # Overhanging ranges truncate at the last byte (S3 semantics).
        assert (
            backend.get_object(
                StorageRequest(OP_GET, "k", byte_range=(8, 99))
            )
            == b"89"
        )

    def test_delete_and_missing(self, backend):
        backend.put_object(StorageRequest(OP_PUT, "k", 1), b"v")
        backend.delete_object(StorageRequest(OP_DELETE, "k"))
        assert not backend.head_object(StorageRequest(OP_HEAD, "k"))
        with pytest.raises(ObjectNotFoundError):
            backend.get_object(StorageRequest(OP_GET, "k"))
        with pytest.raises(ObjectNotFoundError):
            backend.delete_object(StorageRequest(OP_DELETE, "k"))

    def test_list_and_delete_prefix(self, backend):
        for key in ("j/c0/a", "j/c0/b", "j/c1/a", "other/x"):
            backend.put_object(StorageRequest(OP_PUT, key, 1), b"1")
        assert backend.list_objects(StorageRequest(OP_LIST, "j/c0/")) == [
            "j/c0/a",
            "j/c0/b",
        ]
        deleted = backend.delete_prefix(StorageRequest(OP_DELETE, "j/"))
        assert deleted == ["j/c0/a", "j/c0/b", "j/c1/a"]
        assert backend.list_objects(StorageRequest(OP_LIST, "")) == [
            "other/x"
        ]

    def test_request_methods_are_the_whole_data_surface(self):
        flat = {"write", "read", "delete", "exists", "list_keys"}
        assert not flat & set(dir(Backend))


@pytest.fixture(
    params=[
        "memory",
        "file",
        "mirrored",
        "remote",
        "crashing(remote)",
        "cache(remote)",
        "crashing(cache(remote))",
    ]
)
def stack(request, tmp_path):
    """``(backend, the RemoteObjectBackend at the bottom of it or None)``."""
    if request.param == "memory":
        return InMemoryBackend(), None
    if request.param == "file":
        return FileBackend(tmp_path / "store"), None
    if request.param == "mirrored":
        return MirroredBackend([InMemoryBackend(), InMemoryBackend()]), None
    far = backend = RemoteObjectBackend(s3like_costs(1000.0, 2000.0))
    if "cache(" in request.param:
        backend = CacheTierBackend(backend, capacity_bytes=1024)
    if request.param.startswith("crashing("):
        backend = CrashingBackend(backend)
    return backend, far


class TestBackendContract:
    """What the store asks of a backend is declared on ``Backend``:
    plain attribute reads answer on every backend, and a wrapper
    answers what the backend it wraps would."""

    def test_every_declared_member_answers(self, stack):
        backend, _ = stack
        costs, part, ranged = (
            backend.costs,
            backend.part_size_bytes,
            backend.range_get_bytes,
        )
        assert costs is None or isinstance(costs, OpCostSuite)
        assert part is None or part > 0
        assert ranged is None or ranged > 0
        assert backend.fanout >= 1
        assert backend.rng is None or isinstance(
            backend.rng, np.random.Generator
        )
        for op in (OP_PUT, OP_GET, OP_HEAD, OP_DELETE, OP_LIST):
            model = backend.cost_model(op, "k", 4)
            assert model is None or isinstance(model, OpCostModel)
        store = ObjectStore(StorageConfig(), SimClock(), backend=backend)
        assert backend.attach_engine(store.engine) is None

    def test_wrapping_preserves_the_inner_rng_object(self, stack):
        backend, far = stack
        if far is None:
            assert backend.rng is None
        else:
            assert backend.rng is far.rng
        store = ObjectStore(StorageConfig(), SimClock(), backend=backend)
        assert store._rng is backend.rng

    def test_wrapping_preserves_hit_and_miss_pricing(self, stack):
        backend, far = stack
        store = ObjectStore(StorageConfig(), SimClock(), backend=backend)
        cache = find_cache_tier(backend)
        if cache is None:
            # Op-class pricing: the backend defers, the store's suite
            # answers with the very same model objects.
            assert backend.cost_model(OP_GET, "k", 4) is None
            assert store.cost_for(OP_GET, "k", 4) is store.costs.get
            return
        ops.write(far, "k", b"data")  # far-resident only: a miss
        assert backend.cost_model(OP_GET, "k") is cache.far_costs.get
        assert store.cost_for(OP_HEAD, "k") is cache.far_costs.head
        assert ops.read(backend, "k") == b"data"  # admitted: now a hit
        assert backend.cost_model(OP_GET, "k") is cache.near_costs.get
        assert store.cost_for(OP_GET, "k") is cache.near_costs.get
        assert store.cost_for(OP_HEAD, "k") is cache.near_costs.head

    def test_wrapping_delivers_the_engine(self, stack):
        backend, _ = stack
        store = ObjectStore(StorageConfig(), SimClock(), backend=backend)
        cache = find_cache_tier(backend)
        if cache is not None:
            assert cache._engine is store.engine


class TestRequestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(StorageError, match="op class"):
            StorageRequest("POKE", "k")

    def test_byte_range_only_on_get(self):
        with pytest.raises(StorageError, match="byte_range"):
            StorageRequest(OP_PUT, "k", byte_range=(0, 1))
        with pytest.raises(StorageError, match="range"):
            StorageRequest(OP_GET, "k", byte_range=(5, 5))

    def test_clip_range_start_beyond_object(self):
        with pytest.raises(StorageError, match="beyond"):
            clip_range(b"abc", (3, 9))


class TestOpCostModel:
    def test_duration_math(self):
        cost = OpCostModel(base_latency_s=0.5, seconds_per_byte=0.01)
        assert cost.duration_s(100) == pytest.approx(0.5 + 1.0)
        assert cost.latency_s() == 0.5
        assert cost.transfer_s(100) == pytest.approx(1.0)

    def test_jitter_and_tail_need_rng(self):
        cost = OpCostModel(
            base_latency_s=0.1, jitter_s=0.05, tail_prob=1.0, tail_factor=3.0
        )
        # No rng: deterministic base only.
        assert cost.latency_s() == pytest.approx(0.1)
        rng = np.random.default_rng(7)
        latency = cost.latency_s(rng)
        # Tail always fires (prob 1): 3x base, plus jitter in [0, 0.05).
        assert 0.3 <= latency < 0.35
        # Same seed, same draw: deterministic under the generator.
        assert cost.latency_s(np.random.default_rng(7)) == pytest.approx(
            latency
        )

    def test_validation(self):
        with pytest.raises(StorageError):
            OpCostModel(base_latency_s=-1.0)
        with pytest.raises(StorageError):
            OpCostModel(tail_prob=1.5)
        with pytest.raises(StorageError):
            OpCostModel(tail_factor=0.5)

    def test_suite_from_storage_config_matches_legacy_timing(self):
        config = StorageConfig(
            write_bandwidth=1000.0, read_bandwidth=2000.0, latency_s=0.25
        )
        suite = OpCostSuite.from_storage_config(config)
        # PUT/GET reproduce latency + bytes/bandwidth exactly.
        assert suite.for_op(OP_PUT).duration_s(500) == pytest.approx(0.75)
        assert suite.for_op(OP_GET).duration_s(500) == pytest.approx(0.5)
        # Metadata classes are free, as the flat store modelled them.
        for op in (OP_LIST, OP_DELETE, OP_HEAD):
            assert suite.for_op(op).duration_s(10) == 0.0

    def test_unknown_op_class(self):
        with pytest.raises(StorageError):
            OpCostSuite().for_op("POKE")


class TestFileBackendAtomicity:
    """Atomic-rename crash semantics: a dying writer never leaves a
    half-written object visible through the request API."""

    def test_crash_before_rename_preserves_old_value(
        self, tmp_path, monkeypatch
    ):
        backend = FileBackend(tmp_path / "s")
        backend.put_object(StorageRequest(OP_PUT, "k", 3), b"old")

        real_replace = os.replace

        def dying_replace(src, dst):  # crash after temp write, pre-rename
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError):
            backend.put_object(StorageRequest(OP_PUT, "k", 3), b"new")
        monkeypatch.setattr(os, "replace", real_replace)

        # The old object is intact; no partial state is observable.
        assert backend.get_object(StorageRequest(OP_GET, "k")) == b"old"
        assert backend.list_objects(StorageRequest(OP_LIST, "")) == ["k"]

    def test_leftover_tmp_files_are_invisible(self, tmp_path):
        backend = FileBackend(tmp_path / "s")
        backend.put_object(StorageRequest(OP_PUT, "a", 1), b"x")
        # A crashed writer's temp file, as the rename-based protocol
        # would leave it.
        (tmp_path / "s" / "b.tmp").write_bytes(b"torn")
        assert backend.list_objects(StorageRequest(OP_LIST, "")) == ["a"]
        assert not backend.head_object(StorageRequest(OP_HEAD, "b"))

    def test_reopen_sees_only_complete_objects(self, tmp_path):
        FileBackend(tmp_path / "s").put_object(
            StorageRequest(OP_PUT, "k", 9), b"persisted"
        )
        (tmp_path / "s" / "half.tmp").write_bytes(b"...")
        reopened = FileBackend(tmp_path / "s")
        assert reopened.list_objects(StorageRequest(OP_LIST, "")) == ["k"]
        assert (
            reopened.get_object(StorageRequest(OP_GET, "k")) == b"persisted"
        )


class TestMirroredReplicaLoss:
    def test_single_replica_loss_through_request_api(self):
        mirror = MirroredBackend([InMemoryBackend() for _ in range(3)])
        mirror.put_object(StorageRequest(OP_PUT, "k", 1), b"v")
        mirror.fail_replica(1)
        assert mirror.get_object(StorageRequest(OP_GET, "k")) == b"v"
        assert mirror.head_object(StorageRequest(OP_HEAD, "k"))
        assert mirror.list_objects(StorageRequest(OP_LIST, "")) == ["k"]
        # Deletes still reach every survivor.
        mirror.delete_object(StorageRequest(OP_DELETE, "k"))
        assert not mirror.head_object(StorageRequest(OP_HEAD, "k"))

    def test_ranged_get_from_survivor(self):
        mirror = MirroredBackend([InMemoryBackend(), InMemoryBackend()])
        mirror.put_object(StorageRequest(OP_PUT, "k", 6), b"abcdef")
        mirror.fail_replica(0)
        assert (
            mirror.get_object(
                StorageRequest(OP_GET, "k", byte_range=(1, 4))
            )
            == b"bcd"
        )


def remote_store(
    part_size=None,
    fanout=4,
    range_get=None,
    put_latency=0.1,
    replication=1,
    arbiter=None,
):
    """An ObjectStore over a RemoteObjectBackend with simple numbers:
    1000 B/s writes, 2000 B/s reads, 0.1 s PUT / 0.05 s GET latency."""
    config = StorageConfig(
        write_bandwidth=1000.0,
        read_bandwidth=2000.0,
        replication_factor=replication,
        latency_s=0.0,
    )
    backend = RemoteObjectBackend(
        s3like_costs(
            1000.0,
            2000.0,
            put_latency_s=put_latency,
            get_latency_s=0.05,
            list_latency_s=0.02,
            delete_latency_s=0.01,
            head_latency_s=0.005,
        ),
        part_size_bytes=part_size,
        fanout=fanout,
        range_get_bytes=range_get,
    )
    return ObjectStore(config, SimClock(), backend=backend, arbiter=arbiter)


class TestMultipartUpload:
    def test_small_objects_stay_single_shot(self):
        store = remote_store(part_size=1000)
        receipt = store.put("k", bytes(1000))
        assert receipt.parts == 1
        assert store.backend.multipart_completed == 0

    def test_multipart_splits_and_reassembles(self):
        store = remote_store(part_size=1000)
        payload = bytes(range(256)) * 16  # 4096 B -> 5 parts of <=1000
        receipt = store.put("k", payload)
        assert receipt.parts == 5
        assert receipt.logical_bytes == 4096
        assert store.backend.multipart_completed == 1
        assert store.get("k") == payload

    def test_fanout_amortises_part_latency(self):
        """Parallel lanes hide per-part request latency; a single lane
        pays it serially — the amortisation multipart exists for."""
        single = remote_store(part_size=None).put("k", bytes(4000))
        serial = remote_store(part_size=1000, fanout=1).put(
            "k", bytes(4000)
        )
        fanned = remote_store(part_size=1000, fanout=4).put(
            "k", bytes(4000)
        )
        # Byte time 4.0 s at 1000 B/s; latency 0.1 s per request.
        assert single.duration_s == pytest.approx(4.1)
        # Fan-out: one exposed part latency + bytes + completion.
        assert fanned.duration_s == pytest.approx(4.2)
        # Serial lane: every part's latency is exposed.
        assert serial.duration_s == pytest.approx(4.0 + 4 * 0.1 + 0.1)
        assert fanned.completed_s < serial.completed_s

    def test_multipart_parts_hit_the_transfer_log(self):
        store = remote_store(part_size=1000)
        store.put("k", bytes(2500), stream="jobX")
        puts = store.log.transfers("put", stream="jobX")
        assert len(puts) == 3  # three parts, op-tagged
        assert all(t.op == OP_PUT for t in puts)
        assert sum(t.nbytes for t in puts) == 2500

    def test_crashing_backend_kills_a_part_upload(self):
        """CrashingBackend is transparent to multipart: it delegates
        the capability knobs, counts each part as a PUT-class write,
        and an armed crash mid-upload drives the store's abort path."""
        remote = RemoteObjectBackend(
            s3like_costs(1000.0, 2000.0), part_size_bytes=1000
        )
        crashing = CrashingBackend(remote)
        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=1,
            latency_s=0.0,
        )
        store = ObjectStore(config, SimClock(), backend=crashing)
        assert crashing.part_size_bytes == 1000  # capability delegated
        crashing.arm(2)  # die on the second part PUT
        with pytest.raises(StorageError, match="simulated crash"):
            store.put("k", bytes(4000))
        assert remote.multipart_aborted == 1
        assert remote.pending_uploads() == []
        assert not ops.exists(crashing, "k")
        # Disarmed after the crash: the retried write goes through.
        receipt = store.put("k", bytes(4000))
        assert receipt.parts == 4

    def test_aborted_multipart_leaves_no_visible_object(self):
        class FlakyRemote(RemoteObjectBackend):
            def upload_part(self, upload_id, part_number, data):
                if part_number == 3:
                    raise StorageError("node died mid-upload")
                super().upload_part(upload_id, part_number, data)

        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=1,
            latency_s=0.0,
        )
        backend = FlakyRemote(
            s3like_costs(1000.0, 2000.0), part_size_bytes=1000
        )
        arbiter = BandwidthArbiter()
        arbiter.register("job", quota_bytes=100_000)
        store = ObjectStore(
            config, SimClock(), backend=backend, arbiter=arbiter
        )
        with pytest.raises(StorageError, match="mid-upload"):
            store.put("job/k", bytes(4000), stream="job")
        # The partial upload was aborted: no visible object, no staged
        # parts, and the stream's quota charge was refunded.
        assert not backend.head_object(StorageRequest(OP_HEAD, "job/k"))
        assert backend.pending_uploads() == []
        assert backend.multipart_aborted == 1
        assert arbiter.stream("job").charged_bytes == 0
        with pytest.raises(StorageError):
            store.object_size("job/k")


class TestRangedGetFanout:
    def test_explicit_byte_range(self):
        store = remote_store()
        store.put("k", b"0123456789" * 10)
        assert store.get("k", byte_range=(10, 20)) == b"0123456789"

    def test_large_gets_split_into_ranges(self):
        store = remote_store(range_get=1000)
        payload = bytes(range(256)) * 16  # 4096 B
        store.put("k", payload)
        assert store.get("k", stream="jobY") == payload
        gets = store.log.transfers("get", stream="jobY")
        assert len(gets) == 5
        assert all(t.op == OP_GET for t in gets)
        receipt = store.ops.receipts(OP_GET, stream="jobY")[-1]
        assert receipt.parts == 5
        assert receipt.logical_bytes == 4096

    def test_small_gets_stay_whole(self):
        store = remote_store(range_get=10_000)
        store.put("k", bytes(500))
        store.get("k")
        assert store.ops.receipts(OP_GET)[-1].parts == 1


class TestStoreReceiptsAndOpLog:
    def test_put_receipt_fields(self):
        store = remote_store()
        receipt = store.put("k", bytes(1000), earliest=5.0)
        assert receipt.op == OP_PUT
        assert receipt.issued_s == pytest.approx(5.0)
        assert receipt.start_s == pytest.approx(5.0)
        # First byte lands after the PUT request latency.
        assert receipt.first_byte_s == pytest.approx(5.1)
        assert receipt.completed_s == pytest.approx(6.1)
        assert receipt.throughput == pytest.approx(1000 / 1.1)

    def test_metadata_ops_are_classed_and_costed(self):
        store = remote_store()
        store.put("a/x", bytes(10))
        store.exists("a/x")
        store.list_keys("a/")
        store.delete("a/x")
        assert store.ops.count(OP_HEAD) == 1
        assert store.ops.count(OP_LIST) == 1
        assert store.ops.count(OP_DELETE) == 1
        assert store.ops.mean_duration_s(OP_HEAD) == pytest.approx(0.005)
        # LIST pays base latency + per-key time for one key.
        assert store.ops.mean_duration_s(OP_LIST) == pytest.approx(
            0.02 + 0.0002
        )

    def test_delete_prefix_counts_one_list_plus_n_deletes(self):
        store = remote_store()
        for i in range(4):
            store.put(f"j/c0/{i}", bytes(100))
        before = store.ops.op_counts()
        receipt = store.delete_prefix("j/c0/", stream="j")
        after = store.ops.op_counts()
        assert after[OP_LIST] - before.get(OP_LIST, 0) == 1
        assert after[OP_DELETE] - before.get(OP_DELETE, 0) == 4
        assert receipt.num_objects == 4
        assert receipt.freed_logical_bytes == 400
        # Batch duration: one LIST (+ per-key time) + four DELETEs.
        assert receipt.completed_s - receipt.issued_s == pytest.approx(
            (0.02 + 4 * 0.0002) + 4 * 0.01
        )
        assert store.list_keys("j/") == []

    def test_delete_prefix_books_each_delete_as_it_lands(self):
        """A DELETE that exhausts its retries mid-batch leaves store
        accounting, arbiter quota and the backend listing agreeing."""
        from repro.errors import RetriesExhaustedError

        arbiter = BandwidthArbiter()
        arbiter.register("j", quota_bytes=10_000)
        # failure_seed=0 draws 0.64, 0.27, ...: with p=0.5 the first
        # DELETE succeeds and the second fails; max_retries=0 makes
        # that failure permanent.
        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=2,
            latency_s=0.0,
            max_retries=0,
            backend=BackendConfig(
                kind="s3like", delete_failure_prob=0.5, failure_seed=0
            ),
        )
        store = ObjectStore(config, SimClock(), arbiter=arbiter)
        for i in range(3):
            store.put(f"j/c0/{i}", bytes(100 * (i + 1)), stream="j")
        assert arbiter.stream("j").charged_bytes == 1200
        with pytest.raises(RetriesExhaustedError):
            store.delete_prefix("j/c0/", stream="j")
        assert ops.list_keys(store.backend, "j/") == ["j/c0/1", "j/c0/2"]
        assert store.live_logical_bytes == 500
        assert store.stats().num_objects == 2
        assert arbiter.stream("j").charged_bytes == 1000
        with pytest.raises(StorageError):
            store.object_size("j/c0/0")
        assert [r.key for r in store.ops.receipts(OP_DELETE)] == ["j/c0/0"]
        assert store.capacity_series()[-1].physical_bytes == 1000

    def test_legacy_backends_keep_config_derived_timing(self):
        """In-process backends defer to the store's config-derived cost
        suite — single-shot PUT timing is the legacy latency+bandwidth
        maths, bit for bit."""
        config = StorageConfig(
            write_bandwidth=1000.0,
            read_bandwidth=2000.0,
            replication_factor=3,
            latency_s=0.25,
        )
        store = ObjectStore(config, SimClock(), backend=InMemoryBackend())
        receipt = store.put("k", bytes(1000))
        assert receipt.duration_s == pytest.approx(0.25 + 3.0)
        assert receipt.parts == 1


class TestBackendFactory:
    def test_kinds(self, tmp_path):
        storage = StorageConfig()
        assert isinstance(
            make_backend(BackendConfig(kind="memory"), storage),
            InMemoryBackend,
        )
        file_backend = make_backend(
            BackendConfig(kind="file", root=str(tmp_path / "s")), storage
        )
        assert isinstance(file_backend, FileBackend)
        mirrored = make_backend(
            BackendConfig(kind="mirrored", replicas=3), storage
        )
        assert isinstance(mirrored, MirroredBackend)
        assert mirrored.replication_factor == 3
        remote = make_backend(
            BackendConfig(
                kind="s3like", part_size_bytes=4096, multipart_fanout=2
            ),
            storage,
        )
        assert isinstance(remote, RemoteObjectBackend)
        assert remote.part_size_bytes == 4096
        assert remote.fanout == 2
        # s3like owns its costs; bytes stream at the link bandwidths.
        assert remote.costs.for_op(OP_PUT).seconds_per_byte == (
            pytest.approx(1.0 / storage.write_bandwidth)
        )

    def test_file_kind_requires_root(self):
        with pytest.raises(ConfigError, match="root"):
            make_backend(BackendConfig(kind="file"), StorageConfig())

    def test_invalid_kind_rejected(self):
        with pytest.raises(ConfigError):
            BackendConfig(kind="carrier-pigeon")

    def test_backend_config_roundtrips_through_serialisation(self):
        from repro.config import (
            ExperimentConfig,
            experiment_config_from_dict,
            experiment_config_to_dict,
        )

        config = ExperimentConfig(
            storage=StorageConfig(
                backend=BackendConfig(
                    kind="s3like",
                    part_size_bytes=8192,
                    put_latency_s=0.05,
                )
            )
        )
        restored = experiment_config_from_dict(
            experiment_config_to_dict(config)
        )
        assert restored.storage.backend == config.storage.backend

    def test_store_builds_backend_from_config(self):
        config = StorageConfig(
            backend=BackendConfig(kind="s3like", part_size_bytes=2048)
        )
        store = ObjectStore(config, SimClock())
        assert isinstance(store.backend, RemoteObjectBackend)
        receipt = store.put("k", bytes(5000))
        assert receipt.parts == 3


class TestCheckpointStackOnRemoteBackend:
    """The full write/restore path runs unchanged over the S3-style
    backend — chunk PUTs become costed (possibly multipart) requests,
    restores issue ranged GETs, retention batches deletes."""

    def test_write_restore_roundtrip_on_s3like(self):
        from repro.experiments import build_experiment, small_config
        from repro.model.dlrm import DLRM

        config = small_config(
            policy="one_shot",
            quantizer="none",
            bit_width=None,
            interval_batches=5,
            num_tables=2,
            rows_per_table=256,
            embedding_dim=8,
            batch_size=32,
            num_nodes=1,
            devices_per_node=2,
        )
        backend = make_backend(
            BackendConfig(
                kind="s3like",
                part_size_bytes=4096,
                range_get_bytes=4096,
                put_latency_s=0.01,
                get_latency_s=0.01,
            ),
            config.storage,
        )
        exp = build_experiment(config, backend=backend)
        exp.controller.run_intervals(3)
        live = {
            t: exp.model.table_weight(t).copy()
            for t in range(exp.model.num_tables)
        }
        horizon = (
            max(
                m.valid_at_s
                for m in exp.controller.manifests.values()
            )
            + 1.0
        )
        plan = exp.controller.restorer.plan_resume(
            "job0", at_time_s=horizon
        )
        assert plan
        target = plan[0]
        fresh = DLRM(exp.config.model)
        drain(exp.controller.restorer.restore_steps(
            fresh,
            target,
            exp.controller.manifests,
            policy=exp.controller.policy,
        ))
        for t in range(exp.model.num_tables):
            np.testing.assert_array_equal(
                fresh.table_weight(t), live[t]
            )
        # The run exercised the remote request surface: costed GETs
        # appear op-tagged, and at least one op class beyond PUT/GET
        # was issued (manifest HEADs / retention LISTs).
        assert store_ops_nonempty(exp.store)

    def test_torn_write_on_s3like_backend_skipped(self):
        """CrashingBackend over the remote backend: a crash between
        chunk and manifest PUT leaves a torn checkpoint the restore
        path never considers (manifest-last invariant)."""
        from repro.core.manifest import checkpoint_prefix
        from repro.core.restore import CheckpointRestorer
        from repro.experiments import build_experiment, small_config

        config = small_config(
            policy="full",
            quantizer="none",
            bit_width=None,
            interval_batches=4,
            num_tables=2,
            rows_per_table=128,
            embedding_dim=8,
            batch_size=16,
            num_nodes=1,
            devices_per_node=1,
        )
        remote = make_backend(
            BackendConfig(kind="s3like"), config.storage
        )
        crashing = CrashingBackend(remote)
        exp = build_experiment(config, backend=crashing)
        exp.controller.run_intervals(1)
        per_checkpoint = len(
            exp.store.list_keys(checkpoint_prefix("job0", "ckpt-000000"))
        )
        crashing.arm(per_checkpoint)  # dies at the next manifest PUT
        with pytest.raises(StorageError):
            exp.controller.run_intervals(1)
        torn = exp.store.list_keys(
            checkpoint_prefix("job0", "ckpt-000001")
        )
        assert torn and not any(
            k.endswith("manifest.json") for k in torn
        )
        restorer = CheckpointRestorer(exp.store, exp.clock)
        plan = restorer.plan_resume("job0", at_time_s=exp.clock.now + 1e9)
        assert plan
        target = plan[0]
        assert target.checkpoint_id == "ckpt-000000"


def store_ops_nonempty(store) -> bool:
    counts = store.ops.op_counts()
    return (
        counts.get(OP_GET, 0) > 0
        and counts.get(OP_PUT, 0) > 0
        and (counts.get(OP_LIST, 0) + counts.get(OP_HEAD, 0)) > 0
    )
