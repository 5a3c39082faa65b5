"""Frozen configuration dataclasses for every subsystem.

Configs are immutable value objects. Each validates itself on construction
and raises :class:`repro.errors.ConfigError` on inconsistent values, so a
bad experiment setup fails before any simulation time is spent.

A scalar field is declared once, with :func:`setting`: its default, its
range or choices, and — where a command exposes it — its flag and help.
:func:`check_fields` enforces the ranges; ``__post_init__`` keeps only
the rules that relate several fields or the elements of a tuple.
``repro.tools.cli`` builds its flags, the args → config mapping and the
fleet header from the same declarations.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

#: Bytes in one mebibyte / gibibyte, used throughout the simulators.
MiB = 1024 * 1024
GiB = 1024 * MiB


def _require(condition: bool, message: str, *args: object) -> None:
    """Raise ``ConfigError(message % args)`` unless ``condition``."""
    if not condition:
        raise ConfigError(message % args if args else message)


@dataclass(frozen=True)
class Setting:
    """One config field's flag, help, type and allowed values.

    :func:`setting` records what the declaration says;
    :func:`declared_settings` fills in ``default``, ``flag``,
    ``metavar``, ``type`` and ``optional`` from the field itself.
    """

    help: str | None = None
    flag: str | None = None
    metavar: str | None = None
    type: type | None = None
    choices: tuple | None = None
    #: ``(symbol, bound)`` pairs, e.g. ``((">=", 0), ("<=", 1))``.
    bounds: tuple = ()
    default: object = None
    #: The field also takes None (its annotation ends in ``| None``).
    optional: bool = False


def setting(
    default, help=None, *, flag=None, metavar=None, choices=None,
    ge=None, gt=None, le=None, lt=None,
):
    """A config field that is one setting.

    Returns a plain :func:`dataclasses.field` carrying a :class:`Setting`
    as metadata, so field names, order, defaults and ``repr()`` are
    untouched. ``flag`` defaults to ``--`` plus the dashed field name,
    ``metavar`` to the flag's name in capitals; the value type is the
    field's annotation.
    """
    bounds = tuple(
        (symbol, bound)
        for symbol, bound in ((">=", ge), (">", gt), ("<=", le), ("<", lt))
        if bound is not None
    )
    spec = Setting(help, flag, metavar, choices=choices, bounds=bounds)
    return field(default=default, metadata={"setting": spec})


_TYPES = {"int": int, "float": float, "str": str, "bool": bool}
#: ``symbol → test(bound, value)``: the reflected operators take the
#: bound first, like ``in`` takes the choices first.
_TESTS = {
    ">=": operator.le,
    ">": operator.lt,
    "<=": operator.ge,
    "<": operator.gt,
    "in": operator.contains,
}


@functools.cache
def declared_settings(cls: type) -> dict[str, Setting]:
    """The :func:`setting` fields of a config class, resolved, by name."""
    declared = {}
    for f in fields(cls):
        spec = f.metadata.get("setting")
        if spec is None:
            continue
        base = f.type.removesuffix(" | None")
        flag = spec.flag or "--" + f.name.replace("_", "-")
        declared[f.name] = replace(
            spec,
            default=f.default,
            flag=flag,
            metavar=spec.metavar or flag[2:].upper().replace("-", "_"),
            type=_TYPES[base],
            optional=base != f.type,
        )
    return declared


@functools.cache
def _checks(cls: type) -> tuple:
    """``(name, optional, test, symbol, bound)`` of every field check."""
    return tuple(
        (name, spec.optional, _TESTS[symbol], symbol, bound)
        for name, spec in declared_settings(cls).items()
        for symbol, bound in (
            (("in", spec.choices),) if spec.choices else ()
        ) + spec.bounds
    )


def check_fields(config) -> None:
    """Raise :class:`ConfigError` unless every setting is in range."""
    for name, optional, test, symbol, bound in _checks(type(config)):
        value = getattr(config, name)
        if (optional and value is None) or test(bound, value):
            continue
        if symbol == "in":
            raise ConfigError(f"unknown {name} {value!r}; valid: {bound}")
        raise ConfigError(f"{name} must be {symbol} {bound}")


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the DLRM model.

    The defaults describe the small "laptop-scale" model used by the test
    suite; the benchmark harness scales ``rows_per_table`` up to reproduce
    the paper's curves.
    """

    num_tables: int = setting(8, ge=1)
    rows_per_table: tuple[int, ...] = ()
    embedding_dim: int = setting(16, ge=1)
    num_dense_features: int = setting(13, ge=1)
    bottom_mlp: tuple[int, ...] = (32, 16)
    top_mlp: tuple[int, ...] = (32, 16, 1)
    #: Multi-hot lookups per sample and table.
    hotness: int = setting(4, ge=1)
    seed: int = setting(0x5EED)

    def __post_init__(self) -> None:
        if not self.rows_per_table:
            object.__setattr__(
                self, "rows_per_table", tuple([4096] * self.num_tables)
            )
        check_fields(self)
        _require(
            len(self.rows_per_table) == self.num_tables,
            "rows_per_table must have one entry per table",
        )
        _require(
            all(r >= 1 for r in self.rows_per_table),
            "every table needs at least one row",
        )
        _require(
            self.bottom_mlp[-1] == self.embedding_dim,
            "bottom MLP must project dense features to embedding_dim "
            "(%s != %s)",
            self.bottom_mlp[-1],
            self.embedding_dim,
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


@dataclass(frozen=True)
class DataConfig:
    """Synthetic click-log generator settings.

    ``zipf_alpha`` controls categorical access skew; values slightly above
    1.0 reproduce the paper's sub-linear modified-fraction growth (Fig 5).
    """

    batch_size: int = setting(256, ge=1)
    zipf_alpha: float = setting(1.05, gt=0)
    label_noise: float = setting(0.05, ge=0, lt=0.5)
    #: Scale of the planted dense-feature signal in the label logit.
    dense_signal_scale: float = setting(1.0, ge=0)
    #: Scale of the planted per-row (sparse) signal in the label logit.
    #: Production CTR labels are sparse-dominated; raise this relative
    #: to ``dense_signal_scale`` to reproduce that regime (Fig 14).
    sparse_signal_scale: float = setting(0.5, ge=0)
    seed: int = setting(0xDA7A)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ReaderConfig:
    """Simulated reader-tier settings (separate cluster in the paper)."""

    num_workers: int = setting(4, ge=1)
    prefetch_depth: int = setting(8, ge=1)
    coordinated: bool = setting(True)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ClusterConfig:
    """Simulated training cluster: nodes x devices, memories, copy paths.

    Defaults mirror the paper's clusters (16 nodes x 8 GPUs) scaled only in
    memory sizes; the per-link constants below are the calibration knobs
    whose stall and overhead figures ``benchmarks/test_t01_stall_overhead.py``
    measures.
    """

    num_nodes: int = setting(16, ge=1)
    devices_per_node: int = setting(8, ge=1)
    hbm_bytes_per_device: int = setting(32 * GiB, gt=0)
    host_dram_bytes: int = setting(1536 * GiB, gt=0)
    gpu_to_host_bandwidth: float = setting(20.0 * GiB, gt=0)  # B/s per node
    snapshot_fixed_overhead_s: float = setting(0.25, ge=0)
    fabric_bandwidth: float = setting(100.0 * GiB, gt=0)  # B/s per link
    fabric_latency_s: float = setting(5e-6, ge=0)
    #: Synchronous iteration compute time.
    step_compute_time_s: float = setting(0.12, gt=0)

    __post_init__ = check_fields

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

    kind: str = setting(
        "memory",
        "shared-store byte backend; 's3like' models per-op-class "
        "request latencies, multipart upload and ranged GETs",
        flag="--backend",
        choices=BACKEND_KINDS,
    )
    #: Directory for the ``file`` backend (required for that kind).
    root: str | None = setting(None)
    #: Synchronous replicas for the ``mirrored`` kind.
    replicas: int = setting(2, ge=1)
    # -- s3like per-op-class request latencies (seconds) ---------------
    put_latency_s: float = setting(
        0.030, "s3like per-request PUT latency",
        flag="--put-latency", metavar="SECONDS", ge=0,
    )
    get_latency_s: float = setting(
        0.020, "s3like per-request GET latency",
        flag="--get-latency", metavar="SECONDS", ge=0,
    )
    list_latency_s: float = setting(0.040, ge=0)
    delete_latency_s: float = setting(0.015, ge=0)
    head_latency_s: float = setting(0.010, ge=0)
    #: LIST pays this much per key returned on top of its base latency.
    list_per_key_s: float = setting(0.0002, ge=0)
    #: Uniform extra request latency in [0, jitter_s); 0 = deterministic.
    jitter_s: float = setting(0.0, ge=0)
    #: Probability a request is a tail straggler, and the base-latency
    #: multiplier it then pays.
    tail_prob: float = setting(0.0, ge=0, le=1)
    tail_factor: float = setting(4.0, ge=1)
    # -- multipart / ranged GET ----------------------------------------
    #: Objects larger than this upload as multipart parts of this size
    #: (None = single-shot PUTs only).
    part_size_bytes: int | None = setting(
        None,
        "multipart part size for --backend s3like (objects above "
        "this upload as parallel parts; default: single-shot PUTs)",
        flag="--part-size",
        metavar="BYTES",
        ge=1,
    )
    #: Parallel request lanes for multipart parts / ranged sub-GETs.
    multipart_fanout: int = setting(
        4,
        "parallel upload lanes for multipart parts / ranged GETs",
        flag="--part-fanout",
        ge=1,
    )
    #: GETs larger than this split into ranged sub-GETs (None = whole).
    range_get_bytes: int | None = setting(
        None,
        "split s3like GETs above this size into ranged sub-GETs",
        flag="--range-get",
        metavar="BYTES",
        ge=1,
    )
    #: Seed for the backend's jitter/tail RNG.
    seed: int = setting(0x53AC)
    # -- transient-failure injection (s3like) --------------------------
    #: Per-request probability that a request of the given op class
    #: fails transiently (throttle/5xx) before touching any data. The
    #: transfer engine's retry loop re-issues failed requests; draws
    #: come from a dedicated RNG so runs stay deterministic under
    #: ``failure_seed``. Part uploads and multipart completions count
    #: as PUT-class requests.
    put_failure_prob: float = setting(0.0, ge=0, le=1)
    get_failure_prob: float = setting(0.0, ge=0, le=1)
    delete_failure_prob: float = setting(0.0, ge=0, le=1)
    #: Seed for the failure-injection RNG (separate from the jitter
    #: ``seed``, so the injected failure *sequence* is reproducible on
    #: its own; note that each retried attempt still consumes a jitter
    #: draw, as a re-issued request would).
    failure_seed: int = setting(0xFA17)
    # -- near/far cache tier -------------------------------------------
    #: Capacity of the NVMe-class near tier layered over this backend
    #: (see repro.storage.cache.CacheTierBackend). 0 disables the tier
    #: entirely — the factory returns the bare backend and timing stays
    #: bit-identical to a cache-free run.
    cache_bytes: int = setting(0, ge=0)
    cache_policy: str = setting(
        "write_back",
        "cache write policy: write_back acks at near-tier cost and "
        "flushes dirty objects asynchronously; write_through writes the "
        "far tier synchronously",
        choices=CACHE_POLICIES,
    )

    __post_init__ = check_fields

    @property
    def failure_probs(self) -> dict[str, float]:
        """Per-op-class transient-failure probabilities (only nonzero)."""
        probs = {
            "PUT": self.put_failure_prob,
            "GET": self.get_failure_prob,
            "DELETE": self.delete_failure_prob,
        }
        return {op: p for op, p in probs.items() if p > 0.0}


@dataclass(frozen=True)
class StorageConfig:
    """Remote object-store simulation settings.

    The store has no capacity limit of its own; live bytes are bounded
    per job by ``FleetConfig.per_job_quota_bytes``.
    """

    write_bandwidth: float = setting(1.0 * GiB, gt=0)  # bytes/s, aggregate
    read_bandwidth: float = setting(2.0 * GiB, gt=0)
    replication_factor: int = setting(3, ge=1)
    latency_s: float = setting(0.010, ge=0)  # per-operation fixed latency
    #: Transfer-engine retry budget for transient request failures: a
    #: request is re-issued up to this many times before the failure
    #: becomes permanent (:class:`~repro.errors.RetriesExhaustedError`).
    max_retries: int = setting(5, ge=0)
    #: Base backoff before the first retry; doubles per attempt
    #: (exponential backoff in simulated seconds).
    retry_backoff_s: float = setting(0.02, ge=0)
    #: Byte backend selection + request-cost knobs. In-process kinds
    #: inherit the flat latency/bandwidth timing above; the ``s3like``
    #: kind carries its own per-op-class cost models.
    backend: BackendConfig = field(default_factory=BackendConfig)

    def __post_init__(self) -> None:
        check_fields(self)
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

    interval_batches: int = setting(100, ge=1)
    policy: str = setting("intermittent", choices=POLICY_NAMES)
    quantizer: str = setting("adaptive", choices=QUANTIZER_NAMES)
    #: None => dynamic selection (section 6.2.1); otherwise sub-byte
    #: packed codes.
    bit_width: int | None = setting(None, ge=1, le=8)
    num_bins: int = setting(25, ge=1)
    ratio: float = setting(1.0, gt=0, le=1)
    chunk_rows: int = setting(65536, ge=1)
    keep_last: int = setting(2, ge=1)
    #: Storm-aware retention: bound on the newest checkpoint's restore
    #: chain length. When the chain reaches the bound, the controller
    #: refreshes the baseline (takes a full) instead of extending it —
    #: a restore storm then never re-reads more than this many
    #: checkpoints per job. None = unbounded (chain-depth retention).
    max_chain_length: int | None = setting(None, ge=1)
    expected_restores: int = setting(1, ge=0)
    #: Store per-row quantization bounds as fp16 (the paper's
    #: future-work metadata optimisation; saves 25-33% of checkpoint
    #: bytes at negligible error — see ablation a06).
    compact_metadata: bool = setting(False)

    __post_init__ = check_fields


@dataclass(frozen=True)
class FailureConfig:
    """Failure-model settings for the fleet simulation (Fig 3)."""

    mean_time_to_failure_s: float = setting(6.0 * 3600.0, gt=0)
    weibull_shape: float = setting(0.65, gt=0)
    #: Jobs failing under 5 minutes are filtered out.
    min_failure_s: float = setting(300.0, ge=0)
    seed: int = setting(0xFA11)

    __post_init__ = check_fields


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

    num_jobs: int = setting(8, flag="--jobs", ge=1)
    intervals_per_job: int = setting(4, flag="--intervals", ge=1)
    seed: int = setting(0xF1EE7)
    batch_size: int = setting(64, ge=1)
    #: Paper embedding vectors are ~64 wide; 16 keeps runs fast while
    #: stopping per-row quantization metadata from dominating savings.
    embedding_dim: int = setting(16, ge=1)

    # Heterogeneity distributions (uniform choice unless weighted).
    #: Tables must dwarf per-interval row touches or every interval
    #: modifies everything and increments degenerate to fulls.
    rows_per_table_choices: tuple[int, ...] = (2048, 4096, 8192)
    num_tables_choices: tuple[int, ...] = (2, 3, 4)
    interval_batches_choices: tuple[int, ...] = (8, 12, 16)
    zipf_alpha: float = setting(1.1, gt=0)
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

    #: Stagger job starts over this window so checkpoint triggers do
    #: not all align on the shared link.
    stagger_s: float = setting(30.0, ge=0)
    keep_last: int = setting(2, ge=1)
    #: The cap on simultaneous checkpoint writes that
    #: ``admission_mode="static"`` enforces (required by that mode,
    #: rejected with any other).
    max_concurrent_writes: int | None = setting(
        None,
        "cap on simultaneous checkpoint writes under --admission static",
        ge=1,
    )
    #: Admission-control mode for checkpoint triggers on the shared
    #: store: ``"none"`` (admit everything), ``"static"`` (fixed
    #: concurrent-write cap), or ``"dynamic"`` (backlog-driven: defer
    #: an experimental job's trigger when the link's projected queue
    #: delay exceeds ``admission_backlog_factor`` x the job's
    #: checkpoint interval; prod jobs are always admitted).
    admission_mode: str = setting(
        "none",
        "admission-control mode for checkpoint triggers: 'static' "
        "caps concurrent writes (needs --max-concurrent-writes), "
        "'dynamic' defers experimental triggers when the link's "
        "projected queue delay exceeds one checkpoint interval "
        "(prod always admitted)",
        flag="--admission",
        choices=("none", "static", "dynamic"),
    )
    admission_backlog_factor: float = setting(
        1.0,
        "dynamic admission threshold, in checkpoint intervals of "
        "projected backlog",
        gt=0,
    )
    #: Read-side admission mode for restores on the shared store:
    #: ``"none"`` (every restore starts immediately) or ``"dynamic"``
    #: (an experimental job's restore is *paced* — its start deferred
    #: until the link's projected restore delay, write backlog plus
    #: queued read parts, falls to ``restore_backlog_factor`` x the
    #: job's checkpoint interval; prod restores always start at once,
    #: preserving the storm's prod-first drain).
    restore_admission: str = setting(
        "none",
        "read-side admission for restores: 'dynamic' paces an "
        "experimental job's restore until the link's projected backlog "
        "(write parts + queued restore reads) drains to the threshold; "
        "prod restores always start at once",
        choices=("none", "dynamic"),
    )
    restore_backlog_factor: float = setting(
        1.0,
        "read-side pacing threshold, in checkpoint intervals of "
        "projected backlog",
        gt=0,
    )
    per_job_quota_bytes: int | None = setting(
        None,
        "per-job live physical-byte quota on the shared store",
        flag="--quota-bytes",
        gt=0,
    )

    inject_failures: bool = setting(
        True,
        "disable failure injection in the heterogeneous run",
        flag="--no-failures",
    )
    max_failures_per_job: int = setting(1, ge=0)

    #: Fraction of jobs sampled into the ``prod`` priority tier
    #: (0.0 = the whole fleet is experimental; tiering disabled).
    priority_mix: float = setting(
        0.0,
        "fraction of jobs in the prod priority tier (0 disables "
        "tiering; prod streams get strict link priority)",
        ge=0,
        le=1,
    )
    #: Whether prod-tier traffic may preempt (abort-and-requeue) an
    #: experimental job's staged checkpoint write.
    preempt_staged_writes: bool = setting(
        True,
        "disable prod preemption of experimental staged writes",
        flag="--no-preempt",
    )
    #: Minimum link backlog (seconds a prod transfer would have to
    #: queue) before preemption fires; 0 preempts on any contention.
    preempt_wait_s: float = setting(
        0.1,
        "link backlog (seconds) a prod transfer tolerates before "
        "preempting experimental staged writes",
        flag="--preempt-wait",
        ge=0,
    )
    #: Correlated failure domain to strike mid-run: ``"rack"`` (one
    #: rack of ``rack_size`` jobs), ``"power"`` (the whole fleet), or
    #: None (independent failures only).
    storm_domain: str | None = setting(
        None,
        "arm one correlated failure: a rack (--rack-size jobs) or "
        "the whole power domain dies at once mid-run",
        flag="--storm",
        choices=STORM_DOMAINS,
    )
    rack_size: int = setting(
        4, "jobs per rack when assigning rack failure domains", ge=1
    )
    #: Fleet progress fraction (completed intervals / target) at which
    #: the armed storm fires.
    storm_at_fraction: float = setting(0.5, gt=0, lt=1)
    #: Retention flavour for the fleet's jobs: ``"chain_depth"`` (keep
    #: the newest ``keep_last`` checkpoints and whatever their chains
    #: reference — chains grow as long as the policy lets them) or
    #: ``"storm_aware"`` (additionally bound every job's restore chain
    #: at ``storm_chain_limit`` by forcing baseline refreshes, so a
    #: correlated storm re-reads short chains). Storm-aware retention
    #: requires an armed ``storm_domain`` — it trades write traffic for
    #: storm read traffic, which only pays off in a storm-prone fleet.
    retention_mode: str = setting(
        "chain_depth",
        "retention flavour: 'storm_aware' bounds every job's "
        "restore chain at --storm-chain-limit by forcing baseline "
        "refreshes, so a correlated storm re-reads short chains "
        "(requires --storm)",
        flag="--retention",
        choices=("chain_depth", "storm_aware"),
    )
    storm_chain_limit: int = setting(
        2, "restore-chain length bound under --retention storm_aware", ge=1
    )
    #: Derive each job's storm-chain limit adaptively from its expected
    #: storm read cost vs baseline-refresh write cost (CPR-style)
    #: instead of the fixed ``storm_chain_limit`` bound. Only
    #: meaningful under ``retention_mode="storm_aware"``.
    storm_chain_adaptive: bool = setting(
        False,
        "derive each job's storm chain limit from its expected "
        "storm read cost vs baseline-refresh write cost instead of "
        "the fixed --storm-chain-limit (requires --retention "
        "storm_aware)",
        flag="--adaptive-chain",
    )
    #: Chunk-read order fleet restores use: ``"manifest"`` (stored
    #: layout) or ``"hot_first"`` (dense state + hot chunks first, so
    #: ``time_to_first_batch_s`` lands before the cold tail).
    restore_order: str = setting(
        "manifest",
        "row order for restore reads: 'hot_first' streams the "
        "hottest embedding rows first so training resumes before the "
        "full restore lands (improves time-to-first-batch in storm "
        "drains)",
        choices=("manifest", "hot_first"),
    )

    # -- peer-memory replication tier ----------------------------------
    #: Number of peer jobs each job mirrors its per-step delta to
    #: (0 disables replication; the run is bit-identical to a
    #: replication-free fleet). With replication on, the object store
    #: only receives retention-boundary baseline flushes.
    replicate_k: int = setting(
        0,
        "mirror each job's per-step delta into K peer jobs' "
        "bounded memory rings (a replication stream class below prod "
        "writes); the store only receives retention-boundary baseline "
        "flushes and recovery prefers the nearest live replica "
        "(same rack > cross rack > object store)",
        metavar="K",
        ge=0,
    )
    #: Capacity of each hosted replica ring (bytes). A delta that no
    #: longer fits evicts the oldest entries by folding them into the
    #: ring's materialized anchor.
    peer_ring_bytes: int = setting(
        2 * MiB,
        "per-replica delta-log capacity; older deltas fold into "
        "the ring's anchor when the log would overflow",
        metavar="BYTES",
        gt=0,
    )
    #: Every this-many intervals the owner flushes a full baseline to
    #: the object store and re-bases its replica rings.
    baseline_flush_intervals: int = setting(
        2,
        "with --replicate-k, flush a full baseline to the store "
        "every Nth checkpoint interval (others are replicated only)",
        metavar="N",
        ge=1,
    )
    #: Peer-to-peer link bandwidth (bytes/sec) for delta mirroring and
    #: replica reads — host memory over the training fabric, far
    #: faster than the storage link.
    peer_bandwidth: float = setting(8.0 * GiB, gt=0)
    #: Fixed per-transfer latency of the peer link.
    peer_latency_s: float = setting(0.0005, ge=0)
    #: Cross-rack penalty: a transfer to/from a peer in another rack
    #: divides bandwidth and multiplies latency by this factor.
    peer_cross_rack_factor: float = setting(2.0, ge=1)

    #: Silent bit-rot probability per PUT-class write (chunk, dense,
    #: manifest, multipart part): the shared backend is wrapped in a
    #: :class:`~repro.storage.backends.CrashingBackend` that flips one
    #: seeded byte of the payload. The write *succeeds* — only digest
    #: verification at restore/scan time catches the damage, so storms
    #: over a rotted fleet exercise the resume planner's fallback path.
    bitrot_prob: float = setting(
        0.0,
        "silent-corruption injection: each stored PUT payload is "
        "bit-flipped with this probability (deterministic under "
        "--bitrot-seed); restores detect the damage via digests and "
        "fall back to older checkpoints",
        metavar="P",
        ge=0,
        le=1,
    )
    bitrot_seed: int = setting(0xB17F, "seed for the bit-rot injector's RNG")

    storage: StorageConfig = field(default_factory=StorageConfig)
    failures: FailureConfig = field(default_factory=FailureConfig)

    def __post_init__(self) -> None:
        check_fields(self)
        for name, choices in (
            ("rows_per_table_choices", self.rows_per_table_choices),
            ("num_tables_choices", self.num_tables_choices),
            ("interval_batches_choices", self.interval_batches_choices),
            ("policy_choices", self.policy_choices),
            ("quantizer_choices", self.quantizer_choices),
            ("bit_width_choices", self.bit_width_choices),
        ):
            _require(len(choices) >= 1, "%s must be non-empty", name)
        _require(
            all(p in POLICY_NAMES for p in self.policy_choices),
            "policy_choices must be drawn from %s",
            POLICY_NAMES,
        )
        _require(
            all(q in QUANTIZER_NAMES for q in self.quantizer_choices),
            "quantizer_choices must be drawn from %s",
            QUANTIZER_NAMES,
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
        if self.admission_mode == "static":
            _require(
                self.max_concurrent_writes is not None,
                "static admission mode needs max_concurrent_writes >= 1",
            )
        else:
            _require(
                self.max_concurrent_writes is None,
                "max_concurrent_writes is the static admission mode's "
                "cap; set admission_mode='static' to use it",
            )
        if self.retention_mode == "storm_aware":
            _require(
                self.storm_domain is not None,
                "storm_aware retention needs an armed storm_domain "
                "(it trades write traffic for storm read traffic)",
            )
        if self.storm_chain_adaptive:
            _require(
                self.retention_mode == "storm_aware",
                "storm_chain_adaptive needs retention_mode="
                "'storm_aware' (it tunes the baseline-refresh bound)",
            )
        _require(
            self.replicate_k < self.num_jobs,
            "replicate_k must leave at least one non-replica job "
            "(replicate_k < num_jobs)",
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
    sections = {}
    for section, cls in _SECTION_TYPES.items():
        if section not in data:
            sections[section] = cls()
            continue
        kwargs = dict(data[section])
        for fld in fields(cls):
            if fld.name in kwargs and isinstance(kwargs[fld.name], list):
                kwargs[fld.name] = tuple(kwargs[fld.name])
        try:
            sections[section] = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(
                f"bad {section} config section: {exc}"
            ) from exc
    return ExperimentConfig(**sections)
