"""Backend factory: build a byte backend from a :class:`BackendConfig`.

Call sites stopped instantiating backend classes directly — examples,
the CLI and :func:`repro.experiments.build_experiment` all go through
:func:`make_backend`, so switching a run from the in-memory default to
the S3-style remote backend (or a file/mirrored one) is a pure config
change: ``BackendConfig(kind="s3like", part_size_bytes=...)``.
"""

from __future__ import annotations

from ..config import BackendConfig, StorageConfig
from ..errors import ConfigError
from .backends import Backend, FileBackend, InMemoryBackend, MirroredBackend
from .cache import CacheTierBackend
from .remote import RemoteObjectBackend, s3like_costs
from .requests import OpCostSuite


def make_backend(
    backend_config: BackendConfig | None = None,
    storage_config: StorageConfig | None = None,
) -> Backend:
    """Construct the configured byte backend.

    ``storage_config`` supplies the link bandwidths the ``s3like``
    kind streams bytes at (its request latencies come from the backend
    config); in-process kinds ignore it and are timed from the
    store's config.

    When ``cache_bytes > 0``, the configured backend becomes the *far*
    tier of a :class:`~repro.storage.cache.CacheTierBackend`; with
    ``cache_bytes = 0`` the bare backend is returned untouched, so a
    cache-free config times bit-identically to the seed.
    """
    storage = storage_config if storage_config is not None else StorageConfig()
    config = (
        backend_config if backend_config is not None else storage.backend
    )
    inner = _make_far_backend(config, storage)
    if config.cache_bytes <= 0:
        return inner
    # In-process far tiers carry costs=None (they defer to the store's
    # config-derived suite); the cache needs the far price table up
    # front, so derive the same suite here.
    far_costs = (
        inner.costs
        if inner.costs is not None
        else OpCostSuite.from_storage_config(storage)
    )
    return CacheTierBackend(
        inner,
        capacity_bytes=config.cache_bytes,
        policy=config.cache_policy,
        far_costs=far_costs,
    )


def _make_far_backend(
    config: BackendConfig, storage: StorageConfig
) -> Backend:
    if config.kind == "memory":
        return InMemoryBackend()
    if config.kind == "file":
        if config.root is None:
            raise ConfigError(
                "BackendConfig(kind='file') needs a root directory"
            )
        return FileBackend(config.root)
    if config.kind == "mirrored":
        return MirroredBackend(
            [InMemoryBackend() for _ in range(config.replicas)]
        )
    if config.kind == "s3like":
        costs = s3like_costs(
            write_bandwidth=storage.write_bandwidth,
            read_bandwidth=storage.read_bandwidth,
            put_latency_s=config.put_latency_s,
            get_latency_s=config.get_latency_s,
            list_latency_s=config.list_latency_s,
            delete_latency_s=config.delete_latency_s,
            head_latency_s=config.head_latency_s,
            list_per_key_s=config.list_per_key_s,
            jitter_s=config.jitter_s,
            tail_prob=config.tail_prob,
            tail_factor=config.tail_factor,
        )
        return RemoteObjectBackend(
            costs=costs,
            part_size_bytes=config.part_size_bytes,
            fanout=config.multipart_fanout,
            range_get_bytes=config.range_get_bytes,
            seed=config.seed,
            failure_probs=config.failure_probs,
            failure_seed=config.failure_seed,
        )
    raise ConfigError(f"unknown backend kind {config.kind!r}")
