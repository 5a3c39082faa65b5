"""Frozen configuration dataclasses for every subsystem.

Configs are immutable value objects. Each validates itself on construction
and raises :class:`repro.errors.ConfigError` on inconsistent values, so a
bad experiment setup fails before any simulation time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConfigError

#: Bytes in one mebibyte / gibibyte, used throughout the simulators.
MiB = 1024 * 1024
GiB = 1024 * MiB


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the DLRM model.

    The defaults describe the small "laptop-scale" model used by the test
    suite; the benchmark harness scales ``rows_per_table`` up to reproduce
    the paper's curves.
    """

    num_tables: int = 8
    rows_per_table: tuple[int, ...] = ()
    embedding_dim: int = 16
    num_dense_features: int = 13
    bottom_mlp: tuple[int, ...] = (32, 16)
    top_mlp: tuple[int, ...] = (32, 16, 1)
    hotness: int = 4
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if not self.rows_per_table:
            object.__setattr__(
                self, "rows_per_table", tuple([4096] * self.num_tables)
            )
        _require(self.num_tables >= 1, "num_tables must be >= 1")
        _require(
            len(self.rows_per_table) == self.num_tables,
            "rows_per_table must have one entry per table",
        )
        _require(
            all(r >= 1 for r in self.rows_per_table),
            "every table needs at least one row",
        )
        _require(self.embedding_dim >= 1, "embedding_dim must be >= 1")
        _require(self.num_dense_features >= 1, "need at least 1 dense feature")
        _require(self.hotness >= 1, "hotness (multi-hot lookups) must be >= 1")
        _require(
            self.bottom_mlp[-1] == self.embedding_dim,
            "bottom MLP must project dense features to embedding_dim "
            f"({self.bottom_mlp[-1]} != {self.embedding_dim})",
        )
        _require(self.top_mlp[-1] == 1, "top MLP must end in a single logit")

    @property
    def total_embedding_rows(self) -> int:
        """Total embedding rows across all tables."""
        return sum(self.rows_per_table)

    @property
    def embedding_bytes(self) -> int:
        """fp32 bytes held in embedding tables (excludes optimizer state)."""
        return self.total_embedding_rows * self.embedding_dim * 4

    def scaled(self, factor: float) -> "ModelConfig":
        """Return a copy with every table's row count scaled by ``factor``."""
        _require(factor > 0, "scale factor must be positive")
        rows = tuple(max(1, int(r * factor)) for r in self.rows_per_table)
        return replace(self, rows_per_table=rows)


@dataclass(frozen=True)
class DataConfig:
    """Synthetic click-log generator settings.

    ``zipf_alpha`` controls categorical access skew; values slightly above
    1.0 reproduce the paper's sub-linear modified-fraction growth (Fig 5).
    """

    batch_size: int = 256
    zipf_alpha: float = 1.05
    dense_noise: float = 0.1
    label_noise: float = 0.05
    #: Scale of the planted dense-feature signal in the label logit.
    dense_signal_scale: float = 1.0
    #: Scale of the planted per-row (sparse) signal in the label logit.
    #: Production CTR labels are sparse-dominated; raise this relative
    #: to ``dense_signal_scale`` to reproduce that regime (Fig 14).
    sparse_signal_scale: float = 0.5
    seed: int = 0xDA7A

    def __post_init__(self) -> None:
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.zipf_alpha > 0.0, "zipf_alpha must be positive")
        _require(0.0 <= self.label_noise < 0.5, "label_noise in [0, 0.5)")
        _require(self.dense_signal_scale >= 0.0, "dense scale >= 0")
        _require(self.sparse_signal_scale >= 0.0, "sparse scale >= 0")


@dataclass(frozen=True)
class ReaderConfig:
    """Simulated reader-tier settings (separate cluster in the paper)."""

    num_workers: int = 4
    prefetch_depth: int = 8
    coordinated: bool = True

    def __post_init__(self) -> None:
        _require(self.num_workers >= 1, "need at least one reader worker")
        _require(self.prefetch_depth >= 1, "prefetch_depth must be >= 1")


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated training cluster: nodes x devices, memories, copy paths.

    Defaults mirror the paper's clusters (16 nodes x 8 GPUs) scaled only in
    memory sizes; the per-link constants below are the calibration knobs
    described in DESIGN.md section 7.
    """

    num_nodes: int = 16
    devices_per_node: int = 8
    hbm_bytes_per_device: int = 32 * GiB
    host_dram_bytes: int = 1536 * GiB
    gpu_to_host_bandwidth: float = 20.0 * GiB  # bytes/sec per node
    snapshot_fixed_overhead_s: float = 0.25
    fabric_bandwidth: float = 100.0 * GiB  # bytes/sec per link
    fabric_latency_s: float = 5e-6
    #: Intra-node (NVSwitch/NVLink-class) link parameters, used when
    #: ``hierarchical_comm`` is enabled (paper section 6: "NVSwitch and
    #: NVLinks" inside nodes, scale-out fabric across them).
    intra_node_bandwidth: float = 300.0 * GiB
    intra_node_latency_s: float = 1e-6
    hierarchical_comm: bool = False
    step_compute_time_s: float = 0.12  # synchronous iteration compute time

    def __post_init__(self) -> None:
        _require(self.num_nodes >= 1, "num_nodes must be >= 1")
        _require(self.devices_per_node >= 1, "devices_per_node must be >= 1")
        _require(self.hbm_bytes_per_device > 0, "device memory must be > 0")
        _require(self.gpu_to_host_bandwidth > 0, "copy bandwidth must be > 0")
        _require(self.fabric_bandwidth > 0, "fabric bandwidth must be > 0")
        _require(
            self.intra_node_bandwidth > 0,
            "intra-node bandwidth must be > 0",
        )
        _require(self.step_compute_time_s > 0, "step time must be positive")

    @property
    def world_size(self) -> int:
        """Total simulated devices."""
        return self.num_nodes * self.devices_per_node


#: Valid backend kinds for the BackendConfig factory
#: (see repro.storage.factory.make_backend).
BACKEND_KINDS = ("memory", "file", "mirrored", "s3like")

#: Valid cache-tier write policies (see repro.storage.cache).
CACHE_POLICIES = ("write_back", "write_through")


@dataclass(frozen=True)
class BackendConfig:
    """Which byte backend a store uses, and its request-cost knobs.

    ``kind`` selects the backend class; the remaining fields only apply
    where they make sense (``root`` for ``file``, ``replicas`` for
    ``mirrored``, the per-op-class latencies / multipart / ranged-GET
    knobs for ``s3like``). In-process kinds are timed from the store's
    config (one fixed latency + link bandwidths);
    ``s3like`` owns per-class request latencies, optional jitter and
    tail inflation, multipart upload and ranged GETs.
    """

    kind: str = "memory"
    #: Directory for the ``file`` backend (required for that kind).
    root: str | None = None
    #: Synchronous replicas for the ``mirrored`` kind.
    replicas: int = 2
    # -- s3like per-op-class request latencies (seconds) ---------------
    put_latency_s: float = 0.030
    get_latency_s: float = 0.020
    list_latency_s: float = 0.040
    delete_latency_s: float = 0.015
    head_latency_s: float = 0.010
    #: LIST pays this much per key returned on top of its base latency.
    list_per_key_s: float = 0.0002
    #: Uniform extra request latency in [0, jitter_s); 0 = deterministic.
    jitter_s: float = 0.0
    #: Probability a request is a tail straggler, and the base-latency
    #: multiplier it then pays.
    tail_prob: float = 0.0
    tail_factor: float = 4.0
    # -- multipart / ranged GET ----------------------------------------
    #: Objects larger than this upload as multipart parts of this size
    #: (None = single-shot PUTs only).
    part_size_bytes: int | None = None
    #: Parallel request lanes for multipart parts / ranged sub-GETs.
    multipart_fanout: int = 4
    #: GETs larger than this split into ranged sub-GETs (None = whole).
    range_get_bytes: int | None = None
    #: Seed for the backend's jitter/tail RNG.
    seed: int = 0x53AC
    # -- transient-failure injection (s3like) --------------------------
    #: Per-request probability that a request of the given op class
    #: fails transiently (throttle/5xx) before touching any data. The
    #: transfer engine's retry loop re-issues failed requests; draws
    #: come from a dedicated RNG so runs stay deterministic under
    #: ``failure_seed``. Part uploads and multipart completions count
    #: as PUT-class requests.
    put_failure_prob: float = 0.0
    get_failure_prob: float = 0.0
    list_failure_prob: float = 0.0
    delete_failure_prob: float = 0.0
    head_failure_prob: float = 0.0
    #: Seed for the failure-injection RNG (separate from the jitter
    #: ``seed``, so the injected failure *sequence* is reproducible on
    #: its own; note that each retried attempt still consumes a jitter
    #: draw, as a re-issued request would).
    failure_seed: int = 0xFA17
    # -- near/far cache tier -------------------------------------------
    #: Capacity of the NVMe-class near tier layered over this backend
    #: (see repro.storage.cache.CacheTierBackend). 0 disables the tier
    #: entirely — the factory returns the bare backend and timing stays
    #: bit-identical to a cache-free run.
    cache_bytes: int = 0
    #: Cache write policy: ``write_back`` acks at near-tier cost and
    #: flushes dirty objects asynchronously; ``write_through`` writes
    #: the far tier synchronously and only accelerates reads.
    cache_policy: str = "write_back"

    def __post_init__(self) -> None:
        _require(
            self.kind in BACKEND_KINDS,
            f"unknown backend kind {self.kind!r}; valid: {BACKEND_KINDS}",
        )
        _require(self.replicas >= 1, "replicas must be >= 1")
        for name in (
            "put_latency_s",
            "get_latency_s",
            "list_latency_s",
            "delete_latency_s",
            "head_latency_s",
            "list_per_key_s",
            "jitter_s",
        ):
            _require(
                getattr(self, name) >= 0, f"{name} must be >= 0"
            )
        _require(0.0 <= self.tail_prob <= 1.0, "tail_prob in [0, 1]")
        _require(self.tail_factor >= 1.0, "tail_factor must be >= 1")
        if self.part_size_bytes is not None:
            _require(
                self.part_size_bytes >= 1,
                "part_size_bytes must be positive",
            )
        _require(self.multipart_fanout >= 1, "multipart_fanout >= 1")
        if self.range_get_bytes is not None:
            _require(
                self.range_get_bytes >= 1,
                "range_get_bytes must be positive",
            )
        for name in (
            "put_failure_prob",
            "get_failure_prob",
            "list_failure_prob",
            "delete_failure_prob",
            "head_failure_prob",
        ):
            _require(
                0.0 <= getattr(self, name) <= 1.0,
                f"{name} must be in [0, 1]",
            )
        _require(self.cache_bytes >= 0, "cache_bytes must be >= 0")
        _require(
            self.cache_policy in CACHE_POLICIES,
            f"unknown cache policy {self.cache_policy!r}; "
            f"valid: {CACHE_POLICIES}",
        )

    @property
    def failure_probs(self) -> dict[str, float]:
        """Per-op-class transient-failure probabilities (only nonzero)."""
        probs = {
            "PUT": self.put_failure_prob,
            "GET": self.get_failure_prob,
            "LIST": self.list_failure_prob,
            "DELETE": self.delete_failure_prob,
            "HEAD": self.head_failure_prob,
        }
        return {op: p for op, p in probs.items() if p > 0.0}


@dataclass(frozen=True)
class StorageConfig:
    """Remote object-store simulation settings."""

    write_bandwidth: float = 1.0 * GiB  # bytes/sec, aggregate
    read_bandwidth: float = 2.0 * GiB
    replication_factor: int = 3
    capacity_bytes: int | None = None
    latency_s: float = 0.010  # per-operation fixed latency
    #: Transfer-engine retry budget for transient request failures: a
    #: request is re-issued up to this many times before the failure
    #: becomes permanent (:class:`~repro.errors.RetriesExhaustedError`).
    max_retries: int = 5
    #: Base backoff before the first retry; doubles per attempt
    #: (exponential backoff in simulated seconds).
    retry_backoff_s: float = 0.02
    #: Byte backend selection + request-cost knobs. In-process kinds
    #: inherit the flat latency/bandwidth timing above; the ``s3like``
    #: kind carries its own per-op-class cost models.
    backend: BackendConfig = field(default_factory=BackendConfig)

    def __post_init__(self) -> None:
        _require(self.write_bandwidth > 0, "write bandwidth must be > 0")
        _require(self.read_bandwidth > 0, "read bandwidth must be > 0")
        _require(self.replication_factor >= 1, "replication factor >= 1")
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.retry_backoff_s >= 0, "retry_backoff_s must be >= 0")
        if self.capacity_bytes is not None:
            _require(self.capacity_bytes > 0, "capacity must be positive")
        if isinstance(self.backend, dict):
            # Deserialised configs arrive with a nested plain dict.
            object.__setattr__(
                self, "backend", BackendConfig(**self.backend)
            )
        _require(
            isinstance(self.backend, BackendConfig),
            "backend must be a BackendConfig",
        )


#: Valid checkpoint policy names (see repro.core.policies).
POLICY_NAMES = ("full", "one_shot", "consecutive", "intermittent")

#: Valid quantizer names (see repro.quant.registry).
QUANTIZER_NAMES = (
    "none",
    "float16",
    "symmetric",
    "asymmetric",
    "adaptive",
    "kmeans",
)


@dataclass(frozen=True)
class CheckpointConfig:
    """Check-N-Run behaviour: interval, policy, quantization, retention."""

    interval_batches: int = 100
    interval_seconds: float | None = 1800.0  # paper default: 30 minutes
    policy: str = "intermittent"
    quantizer: str = "adaptive"
    bit_width: int | None = None  # None => dynamic selection (section 6.2.1)
    num_bins: int = 25
    ratio: float = 1.0
    chunk_rows: int = 65536
    keep_last: int = 2
    #: Storm-aware retention: bound on the newest checkpoint's restore
    #: chain length. When the chain reaches the bound, the controller
    #: refreshes the baseline (takes a full) instead of extending it —
    #: a restore storm then never re-reads more than this many
    #: checkpoints per job. None = unbounded (chain-depth retention).
    max_chain_length: int | None = None
    expected_restores: int = 1
    quantize_optimizer_state: bool = True
    track_in_forward_pass: bool = True
    #: Store per-row quantization bounds as fp16 (the paper's
    #: future-work metadata optimisation; saves 25-33% of checkpoint
    #: bytes at negligible error — see ablation a06).
    compact_metadata: bool = False

    def __post_init__(self) -> None:
        _require(self.interval_batches >= 1, "interval_batches must be >= 1")
        _require(
            self.policy in POLICY_NAMES,
            f"unknown policy {self.policy!r}; valid: {POLICY_NAMES}",
        )
        _require(
            self.quantizer in QUANTIZER_NAMES,
            f"unknown quantizer {self.quantizer!r}; valid: {QUANTIZER_NAMES}",
        )
        if self.bit_width is not None:
            _require(
                1 <= self.bit_width <= 8,
                "bit_width must be in [1, 8] (sub-byte packed codes)",
            )
        _require(self.num_bins >= 1, "num_bins must be >= 1")
        _require(0.0 < self.ratio <= 1.0, "ratio must be in (0, 1]")
        _require(self.chunk_rows >= 1, "chunk_rows must be >= 1")
        _require(self.keep_last >= 1, "must retain at least one checkpoint")
        if self.max_chain_length is not None:
            _require(
                self.max_chain_length >= 1,
                "max_chain_length must be >= 1",
            )
        _require(self.expected_restores >= 0, "expected_restores must be >= 0")


@dataclass(frozen=True)
class FailureConfig:
    """Failure-model settings for the fleet simulation (Fig 3)."""

    mean_time_to_failure_s: float = 6.0 * 3600.0
    weibull_shape: float = 0.65
    min_failure_s: float = 300.0  # jobs failing under 5 min are filtered
    seed: int = 0xFA11

    def __post_init__(self) -> None:
        _require(self.mean_time_to_failure_s > 0, "MTTF must be positive")
        _require(self.weibull_shape > 0, "weibull shape must be positive")
        _require(self.min_failure_s >= 0, "min_failure_s must be >= 0")


#: Valid correlated-failure domain kinds (see repro.failures.domains).
STORM_DOMAINS = ("rack", "power")


@dataclass(frozen=True)
class FleetConfig:
    """A multi-job fleet sharing one object store (paper Figs 15-17).

    Per-job heterogeneity is sampled from the choice tuples below with
    the fleet ``seed``, mimicking the spread of model sizes, intervals
    and quantization policies across Meta's training fleet. ``storage``
    configures the single *shared* store every job writes through;
    ``failures`` drives per-job crash injection from the Fig 3 CDF.

    ``priority_mix`` splits the fleet into paper-style priority classes:
    that fraction of jobs runs as tier ``prod`` (strict link priority,
    may preempt experimental staged writes), the rest as
    ``experimental``. ``storm_domain`` arms one correlated failure —
    a whole rack or a power domain dies at once mid-run — forcing every
    affected job to restore through the shared link simultaneously.
    """

    num_jobs: int = 8
    intervals_per_job: int = 4
    seed: int = 0xF1EE7
    batch_size: int = 64
    #: Paper embedding vectors are ~64 wide; 16 keeps runs fast while
    #: stopping per-row quantization metadata from dominating savings.
    embedding_dim: int = 16

    # Heterogeneity distributions (uniform choice unless weighted).
    #: Tables must dwarf per-interval row touches or every interval
    #: modifies everything and increments degenerate to fulls.
    rows_per_table_choices: tuple[int, ...] = (2048, 4096, 8192)
    num_tables_choices: tuple[int, ...] = (2, 3, 4)
    interval_batches_choices: tuple[int, ...] = (8, 12, 16)
    zipf_alpha: float = 1.1
    policy_choices: tuple[str, ...] = (
        "intermittent",
        "one_shot",
        "consecutive",
    )
    policy_weights: tuple[float, ...] = (0.5, 0.25, 0.25)
    #: (quantizer, bit_width) pairs; bit_width is ignored by
    #: ``none``/``float16``. The mix mirrors the paper's restore-count
    #: bands: mostly 4-bit adaptive, some 8-bit, a few high-precision.
    quantizer_choices: tuple[str, ...] = (
        "adaptive",
        "adaptive",
        "asymmetric",
        "float16",
        "none",
    )
    bit_width_choices: tuple[int, ...] = (4, 4, 8, 8, 8)
    weight_choices: tuple[float, ...] = (1.0,)

    #: Stagger job starts over this window so checkpoint triggers do
    #: not all align on the shared link.
    stagger_s: float = 30.0
    keep_last: int = 2
    #: The cap on simultaneous checkpoint writes that
    #: ``admission_mode="static"`` enforces (required by that mode,
    #: rejected with any other).
    max_concurrent_writes: int | None = None
    #: Admission-control mode for checkpoint triggers on the shared
    #: store: ``"none"`` (admit everything), ``"static"`` (fixed
    #: concurrent-write cap), or ``"dynamic"`` (backlog-driven: defer
    #: an experimental job's trigger when the link's projected queue
    #: delay exceeds ``admission_backlog_factor`` x the job's
    #: checkpoint interval; prod jobs are always admitted).
    admission_mode: str = "none"
    #: Dynamic admission threshold, in checkpoint intervals of backlog.
    admission_backlog_factor: float = 1.0
    #: Read-side admission mode for restores on the shared store:
    #: ``"none"`` (every restore starts immediately) or ``"dynamic"``
    #: (an experimental job's restore is *paced* — its start deferred
    #: until the link's projected restore delay, write backlog plus
    #: queued read parts, falls to ``restore_backlog_factor`` x the
    #: job's checkpoint interval; prod restores always start at once,
    #: preserving the storm's prod-first drain).
    restore_admission: str = "none"
    #: Read-side pacing threshold, in checkpoint intervals of backlog.
    restore_backlog_factor: float = 1.0
    #: Per-job live physical-byte quota on the shared store.
    per_job_quota_bytes: int | None = None

    inject_failures: bool = True
    max_failures_per_job: int = 1

    #: Fraction of jobs sampled into the ``prod`` priority tier
    #: (0.0 = the whole fleet is experimental; tiering disabled).
    priority_mix: float = 0.0
    #: Whether prod-tier traffic may preempt (abort-and-requeue) an
    #: experimental job's staged checkpoint write.
    preempt_staged_writes: bool = True
    #: Minimum link backlog (seconds a prod transfer would have to
    #: queue) before preemption fires; 0 preempts on any contention.
    preempt_wait_s: float = 0.1
    #: Correlated failure domain to strike mid-run: ``"rack"`` (one
    #: rack of ``rack_size`` jobs), ``"power"`` (the whole fleet), or
    #: None (independent failures only).
    storm_domain: str | None = None
    #: Jobs per rack when assigning rack failure domains.
    rack_size: int = 4
    #: Fleet progress fraction (completed intervals / target) at which
    #: the armed storm fires.
    storm_at_fraction: float = 0.5
    #: Retention flavour for the fleet's jobs: ``"chain_depth"`` (keep
    #: the newest ``keep_last`` checkpoints and whatever their chains
    #: reference — chains grow as long as the policy lets them) or
    #: ``"storm_aware"`` (additionally bound every job's restore chain
    #: at ``storm_chain_limit`` by forcing baseline refreshes, so a
    #: correlated storm re-reads short chains). Storm-aware retention
    #: requires an armed ``storm_domain`` — it trades write traffic for
    #: storm read traffic, which only pays off in a storm-prone fleet.
    retention_mode: str = "chain_depth"
    #: Restore-chain length bound under storm-aware retention.
    storm_chain_limit: int = 2
    #: Derive each job's storm-chain limit adaptively from its expected
    #: storm read cost vs baseline-refresh write cost (CPR-style)
    #: instead of the fixed ``storm_chain_limit`` bound. Only
    #: meaningful under ``retention_mode="storm_aware"``.
    storm_chain_adaptive: bool = False
    #: Chunk-read order fleet restores use: ``"manifest"`` (stored
    #: layout) or ``"hot_first"`` (dense state + hot chunks first, so
    #: ``time_to_first_batch_s`` lands before the cold tail).
    restore_order: str = "manifest"

    # -- peer-memory replication tier ----------------------------------
    #: Number of peer jobs each job mirrors its per-step delta to
    #: (0 disables replication; the run is bit-identical to a
    #: replication-free fleet). With replication on, the object store
    #: only receives retention-boundary baseline flushes.
    replicate_k: int = 0
    #: Capacity of each hosted replica ring (bytes). A delta that no
    #: longer fits evicts the oldest entries by folding them into the
    #: ring's materialized anchor.
    peer_ring_bytes: int = 2 * MiB
    #: Every this-many intervals the owner flushes a full baseline to
    #: the object store and re-bases its replica rings.
    baseline_flush_intervals: int = 2
    #: Peer-to-peer link bandwidth (bytes/sec) for delta mirroring and
    #: replica reads — host memory over the training fabric, far
    #: faster than the storage link.
    peer_bandwidth: float = 8.0 * GiB
    #: Fixed per-transfer latency of the peer link.
    peer_latency_s: float = 0.0005
    #: Cross-rack penalty: a transfer to/from a peer in another rack
    #: divides bandwidth and multiplies latency by this factor.
    peer_cross_rack_factor: float = 2.0

    #: Silent bit-rot probability per PUT-class write (chunk, dense,
    #: manifest, multipart part): the shared backend is wrapped in a
    #: :class:`~repro.storage.backends.CrashingBackend` that flips one
    #: seeded byte of the payload. The write *succeeds* — only digest
    #: verification at restore/scan time catches the damage, so storms
    #: over a rotted fleet exercise the resume planner's fallback path.
    bitrot_prob: float = 0.0
    #: Seed for the deterministic bit-rot byte flips.
    bitrot_seed: int = 0xB17F

    storage: StorageConfig = field(default_factory=StorageConfig)
    failures: FailureConfig = field(default_factory=FailureConfig)

    def __post_init__(self) -> None:
        _require(self.num_jobs >= 1, "num_jobs must be >= 1")
        _require(self.intervals_per_job >= 1, "intervals_per_job >= 1")
        _require(self.batch_size >= 1, "batch_size must be >= 1")
        _require(self.embedding_dim >= 1, "embedding_dim must be >= 1")
        for name, choices in (
            ("rows_per_table_choices", self.rows_per_table_choices),
            ("num_tables_choices", self.num_tables_choices),
            ("interval_batches_choices", self.interval_batches_choices),
            ("policy_choices", self.policy_choices),
            ("quantizer_choices", self.quantizer_choices),
            ("bit_width_choices", self.bit_width_choices),
            ("weight_choices", self.weight_choices),
        ):
            _require(len(choices) >= 1, f"{name} must be non-empty")
        _require(
            all(p in POLICY_NAMES for p in self.policy_choices),
            f"policy_choices must be drawn from {POLICY_NAMES}",
        )
        _require(
            all(q in QUANTIZER_NAMES for q in self.quantizer_choices),
            f"quantizer_choices must be drawn from {QUANTIZER_NAMES}",
        )
        _require(
            len(self.policy_weights) == len(self.policy_choices),
            "policy_weights must pair with policy_choices",
        )
        _require(
            all(w > 0 for w in self.policy_weights),
            "policy weights must be positive",
        )
        _require(
            len(self.bit_width_choices) == len(self.quantizer_choices),
            "bit_width_choices must pair with quantizer_choices",
        )
        _require(
            all(1 <= b <= 8 for b in self.bit_width_choices),
            "bit widths must be in [1, 8]",
        )
        _require(
            all(w > 0 for w in self.weight_choices),
            "stream weights must be positive",
        )
        _require(self.stagger_s >= 0, "stagger_s must be >= 0")
        _require(self.keep_last >= 1, "keep_last must be >= 1")
        _require(
            self.admission_mode in ("none", "static", "dynamic"),
            f"unknown admission_mode {self.admission_mode!r}; valid: "
            "'none', 'static', 'dynamic'",
        )
        if self.admission_mode == "static":
            _require(
                self.max_concurrent_writes is not None
                and self.max_concurrent_writes >= 1,
                "static admission mode needs max_concurrent_writes >= 1",
            )
        else:
            _require(
                self.max_concurrent_writes is None,
                "max_concurrent_writes is the static admission mode's "
                "cap; set admission_mode='static' to use it",
            )
        _require(
            self.admission_backlog_factor > 0,
            "admission_backlog_factor must be > 0",
        )
        _require(
            self.restore_admission in ("none", "dynamic"),
            f"unknown restore_admission {self.restore_admission!r}; "
            "valid: 'none', 'dynamic'",
        )
        _require(
            self.restore_backlog_factor > 0,
            "restore_backlog_factor must be > 0",
        )
        if self.per_job_quota_bytes is not None:
            _require(
                self.per_job_quota_bytes > 0,
                "per_job_quota_bytes must be positive",
            )
        _require(
            self.max_failures_per_job >= 0,
            "max_failures_per_job must be >= 0",
        )
        _require(
            0.0 <= self.priority_mix <= 1.0,
            "priority_mix must be in [0, 1]",
        )
        _require(self.preempt_wait_s >= 0, "preempt_wait_s must be >= 0")
        if self.storm_domain is not None:
            _require(
                self.storm_domain in STORM_DOMAINS,
                f"unknown storm domain {self.storm_domain!r}; "
                f"valid: {STORM_DOMAINS}",
            )
        _require(self.rack_size >= 1, "rack_size must be >= 1")
        _require(
            0.0 < self.storm_at_fraction < 1.0,
            "storm_at_fraction must be in (0, 1)",
        )
        _require(
            self.retention_mode in ("chain_depth", "storm_aware"),
            f"unknown retention_mode {self.retention_mode!r}; valid: "
            "'chain_depth', 'storm_aware'",
        )
        if self.retention_mode == "storm_aware":
            _require(
                self.storm_domain is not None,
                "storm_aware retention needs an armed storm_domain "
                "(it trades write traffic for storm read traffic)",
            )
        _require(
            self.storm_chain_limit >= 1, "storm_chain_limit must be >= 1"
        )
        if self.storm_chain_adaptive:
            _require(
                self.retention_mode == "storm_aware",
                "storm_chain_adaptive needs retention_mode="
                "'storm_aware' (it tunes the baseline-refresh bound)",
            )
        _require(
            self.restore_order in ("manifest", "hot_first"),
            f"unknown restore_order {self.restore_order!r}; valid: "
            "'manifest', 'hot_first'",
        )
        _require(
            0 <= self.replicate_k < self.num_jobs,
            "replicate_k must be >= 0 and leave at least one "
            "non-replica job (replicate_k < num_jobs)",
        )
        _require(self.peer_ring_bytes > 0, "peer_ring_bytes must be > 0")
        _require(
            self.baseline_flush_intervals >= 1,
            "baseline_flush_intervals must be >= 1",
        )
        _require(self.peer_bandwidth > 0, "peer_bandwidth must be > 0")
        _require(self.peer_latency_s >= 0, "peer_latency_s must be >= 0")
        _require(
            self.peer_cross_rack_factor >= 1.0,
            "peer_cross_rack_factor must be >= 1",
        )
        _require(
            0.0 <= self.bitrot_prob <= 1.0,
            "bitrot_prob must be in [0, 1]",
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete experiment: model + data + cluster + storage + ckpt."""

    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    reader: ReaderConfig = field(default_factory=ReaderConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    storage: StorageConfig = field(default_factory=StorageConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    failures: FailureConfig = field(default_factory=FailureConfig)

    def with_overrides(self, **kwargs: object) -> "ExperimentConfig":
        """Return a copy with top-level sections replaced by keyword."""
        return replace(self, **kwargs)  # type: ignore[arg-type]


_SECTION_TYPES = {
    "model": ModelConfig,
    "data": DataConfig,
    "reader": ReaderConfig,
    "cluster": ClusterConfig,
    "storage": StorageConfig,
    "checkpoint": CheckpointConfig,
    "failures": FailureConfig,
}


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    """Serialise an experiment config to a JSON-safe nested dict.

    Tuples become lists (JSON has no tuple); `experiment_config_from_dict`
    restores them. Used to persist a job's configuration alongside its
    checkpoints so tooling can rebuild the model for a restore.
    """
    from dataclasses import asdict

    def jsonable(value: object) -> object:
        if isinstance(value, tuple):
            return [jsonable(v) for v in value]
        if isinstance(value, dict):
            return {k: jsonable(v) for k, v in value.items()}
        return value

    return {
        section: jsonable(asdict(getattr(config, section)))
        for section in _SECTION_TYPES
    }


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    """Inverse of :func:`experiment_config_to_dict`."""
    import dataclasses

    sections = {}
    for section, cls in _SECTION_TYPES.items():
        if section not in data:
            sections[section] = cls()
            continue
        kwargs = dict(data[section])
        for fld in dataclasses.fields(cls):
            if fld.name in kwargs and isinstance(kwargs[fld.name], list):
                kwargs[fld.name] = tuple(kwargs[fld.name])
        try:
            sections[section] = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(
                f"bad {section} config section: {exc}"
            ) from exc
    return ExperimentConfig(**sections)
