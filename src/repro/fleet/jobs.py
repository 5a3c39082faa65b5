"""Fleet job specs: paper-like heterogeneity, sampled deterministically.

Meta's fleet mixes model sizes spanning orders of magnitude, different
checkpoint intervals, different quantization aggressiveness per job's
expected restore count (paper section 6.2.1), and — through its job
scheduler — different *priority classes*: high-priority production jobs
versus experimental ones (section 2.2). A :class:`FleetJobSpec` pins one
job's draw from those distributions, including its priority ``tier``;
:func:`build_fleet_job` wires the job's full Check-N-Run stack — its own
clock, dataset, model, trainer and controller — against a *shared*
object store through a namespaced
:class:`~repro.fleet.namespace.ScopedStore`, registering the job's
transfer stream (quota, tier) with the store's bandwidth
arbiter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import (
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    ExperimentConfig,
    FleetConfig,
    ModelConfig,
    ReaderConfig,
)
from ..core.controller import CheckNRun, PendingCheckpoint
from ..data.reader import ReaderMaster
from ..distributed.clock import SimClock
from ..distributed.trainer import SimTrainer
from ..experiments.common import Experiment, build_experiment
from ..model.dlrm import DLRM
from ..storage.bandwidth import TIER_EXPERIMENTAL, TIER_PROD
from ..storage.object_store import ObjectStore
from .namespace import ScopedStore


@dataclass(frozen=True)
class FleetJobSpec:
    """One job's sampled configuration within a fleet."""

    job_id: str
    num_tables: int
    rows_per_table: int
    interval_batches: int
    policy: str
    quantizer: str
    bit_width: int
    start_offset_s: float
    seed: int
    failure_seed: int
    #: Priority class: ``"prod"`` streams get strict link priority and
    #: may preempt experimental staged writes; ``"experimental"`` is the
    #: default tier.
    tier: str = TIER_EXPERIMENTAL


def sample_priority_tiers(config: FleetConfig) -> list[str]:
    """Assign each job a priority tier honouring ``priority_mix``.

    The count of prod jobs is exact — ``round(mix * num_jobs)``, at
    least one whenever the mix is positive — and *which* jobs are prod
    is a seeded permutation draw. Tiers use a dedicated RNG stream so
    changing the mix never perturbs the heterogeneity sampling (model
    sizes, intervals, failure seeds stay identical across mixes).
    """
    if config.priority_mix <= 0.0:
        return [TIER_EXPERIMENTAL] * config.num_jobs
    num_prod = int(round(config.priority_mix * config.num_jobs))
    num_prod = min(config.num_jobs, max(1, num_prod))
    tier_rng = np.random.default_rng(config.seed ^ 0x71E5)
    prod_indices = set(
        tier_rng.permutation(config.num_jobs)[:num_prod].tolist()
    )
    return [
        TIER_PROD if index in prod_indices else TIER_EXPERIMENTAL
        for index in range(config.num_jobs)
    ]


def sample_fleet_specs(config: FleetConfig) -> list[FleetJobSpec]:
    """Draw ``num_jobs`` heterogeneous specs from the fleet distributions."""
    rng = np.random.default_rng(config.seed)
    weights = np.asarray(config.policy_weights, dtype=np.float64)
    weights = weights / weights.sum()
    tiers = sample_priority_tiers(config)
    specs = []
    for index in range(config.num_jobs):
        policy = str(
            rng.choice(list(config.policy_choices), p=weights)
        )
        quant_index = int(rng.integers(len(config.quantizer_choices)))
        specs.append(
            FleetJobSpec(
                job_id=f"job{index:03d}",
                num_tables=int(rng.choice(config.num_tables_choices)),
                rows_per_table=int(
                    rng.choice(config.rows_per_table_choices)
                ),
                interval_batches=int(
                    rng.choice(config.interval_batches_choices)
                ),
                policy=policy,
                quantizer=config.quantizer_choices[quant_index],
                bit_width=config.bit_width_choices[quant_index],
                start_offset_s=float(
                    rng.uniform(0.0, config.stagger_s)
                ),
                seed=int(rng.integers(1, 2**31 - 1)),
                failure_seed=int(rng.integers(1, 2**31 - 1)),
                tier=tiers[index],
            )
        )
    return specs


#: Lookups per sample in every fleet job's synthetic model (the
#: ``hotness`` handed to :class:`~repro.config.ModelConfig` below); the
#: adaptive chain bound uses it to predict per-interval touched rows.
FLEET_HOTNESS = 4


def expected_interval_delta_bytes(
    spec: FleetJobSpec, fleet: FleetConfig
) -> int:
    """Predicted incremental-checkpoint bytes one interval produces.

    An interval trains ``interval_batches`` batches of ``batch_size``
    samples, each touching ``FLEET_HOTNESS`` rows per table; the
    touched set saturates at the table itself. Each touched row ships
    its fp32 weight and optimizer-accumulator slices.
    """
    lookups = (
        spec.interval_batches * fleet.batch_size * FLEET_HOTNESS
    )
    rows_touched = min(spec.rows_per_table, lookups)
    bytes_per_row = fleet.embedding_dim * 4 * 2
    return spec.num_tables * rows_touched * bytes_per_row


def spec_baseline_bytes(spec: FleetJobSpec, fleet: FleetConfig) -> int:
    """Bytes a full (baseline) checkpoint writes for this spec."""
    rows = spec.num_tables * spec.rows_per_table
    return rows * fleet.embedding_dim * 4 * 2


#: Bounds of the adaptive storm chain limit.
CHAIN_LIMIT_FLOOR = 1
CHAIN_LIMIT_CAP = 8


def adaptive_chain_limit(
    baseline_bytes: int,
    interval_delta_bytes: int,
    storm_read_weight: float = 1.0,
) -> int:
    """CPR-style per-job chain bound from read cost vs refresh cost.

    A chain bound ``L`` costs ``baseline/L`` amortized refresh-write
    bytes per interval and, under a storm, up to ``L * delta`` extra
    read bytes down the chain. Weighting reads by ``storm_read_weight``
    (the write/read bandwidth ratio: how expensive a read byte is
    relative to a write byte) and minimizing the sum gives

        L* = sqrt(baseline / (storm_read_weight * delta)),

    clamped to ``[CHAIN_LIMIT_FLOOR, CHAIN_LIMIT_CAP]``. Big models with sparse touch sets
    earn long chains; small hot models refresh almost every interval.
    """
    if baseline_bytes <= 0 or interval_delta_bytes <= 0:
        return CHAIN_LIMIT_FLOOR
    optimum = math.sqrt(
        baseline_bytes
        / (max(storm_read_weight, 1e-12) * interval_delta_bytes)
    )
    return max(CHAIN_LIMIT_FLOOR, min(CHAIN_LIMIT_CAP, int(round(optimum))))


def spec_chain_limit(
    spec: FleetJobSpec, fleet: FleetConfig
) -> int | None:
    """The restore-chain bound a spec's job runs under (None = off)."""
    if fleet.retention_mode != "storm_aware":
        return None
    if not fleet.storm_chain_adaptive:
        return fleet.storm_chain_limit
    storage = fleet.storage
    return adaptive_chain_limit(
        baseline_bytes=spec_baseline_bytes(spec, fleet),
        interval_delta_bytes=expected_interval_delta_bytes(spec, fleet),
        storm_read_weight=(
            storage.write_bandwidth / storage.read_bandwidth
        ),
    )


def spec_experiment_config(
    spec: FleetJobSpec, fleet: FleetConfig
) -> ExperimentConfig:
    """The per-job experiment configuration a spec denotes."""
    dim = fleet.embedding_dim
    return ExperimentConfig(
        model=ModelConfig(
            num_tables=spec.num_tables,
            rows_per_table=tuple(
                [spec.rows_per_table] * spec.num_tables
            ),
            embedding_dim=dim,
            bottom_mlp=(16, dim),
            top_mlp=(16, 1),
            hotness=FLEET_HOTNESS,
            seed=spec.seed,
        ),
        data=DataConfig(
            batch_size=fleet.batch_size,
            zipf_alpha=fleet.zipf_alpha,
            seed=spec.seed ^ 0xDA7A,
        ),
        reader=ReaderConfig(coordinated=True),
        cluster=ClusterConfig(num_nodes=1, devices_per_node=2),
        storage=fleet.storage,
        checkpoint=CheckpointConfig(
            interval_batches=spec.interval_batches,
            policy=spec.policy,
            quantizer=spec.quantizer,
            bit_width=spec.bit_width,
            keep_last=fleet.keep_last,
            # Storm-aware retention bounds every job's restore chain so
            # a correlated storm re-reads short chains per job; the
            # adaptive mode derives the bound from the job's own
            # refresh-write vs storm-read byte trade-off.
            max_chain_length=spec_chain_limit(spec, fleet),
        ),
        failures=fleet.failures,
    )


@dataclass(frozen=True)
class RestoreSample:
    """One measured restore through the shared link.

    ``latency_s`` is trigger-to-finish including link queueing;
    ``service_s`` is the sum of the restore's own GET transfer times —
    what the restore would have cost on an idle link. Their ratio is the
    contention *degradation* a storm inflicts, the quantity the per-tier
    storm table reports.
    """

    cause: str  # "failure" (independent) or "storm" (correlated)
    latency_s: float
    service_s: float
    #: Where the restored state came from: ``"store"`` (object store,
    #: possibly through ``plan_resume`` fallback), ``"peer_same_rack"``
    #: or ``"peer_cross_rack"`` (a live replica ring).
    source: str = "store"
    #: Crash-to-first-trainable-batch latency: until the dense state
    #: and the chain's increment rows (the hot set) have landed. It
    #: equals ``latency_s`` for manifest-order store restores, shrinks
    #: under ``restore_order="hot_first"``, and equals the peer-link
    #: transfer time for replica restores.
    time_to_first_batch_s: float = 0.0

    @property
    def degradation(self) -> float:
        """Queueing inflation factor (>= 1 on a serial link)."""
        if self.service_s <= 0:
            return 1.0
        return max(1.0, self.latency_s / self.service_s)


@dataclass
class FleetJob:
    """One running job plus the scheduler's per-job runtime state."""

    spec: FleetJobSpec
    config: ExperimentConfig
    clock: SimClock
    model: DLRM
    reader: ReaderMaster
    trainer: SimTrainer
    store: ScopedStore
    controller: CheckNRun

    target_intervals: int = 0
    batches_left: int = 0  # remaining in the current interval (0 = boundary)
    pending: PendingCheckpoint | None = None
    next_failure_s: float | None = None
    failures: int = 0
    torn_writes: int = 0
    admission_deferred: int = 0
    #: Restores the read-side admission controller paced (deferred
    #: start until the projected backlog drained to the threshold) —
    #: always 0 for prod jobs, which admit unconditionally.
    restore_deferred: int = 0
    quota_rejections: int = 0
    #: Writes lost to a permanently failing request (transient-failure
    #: retries exhausted): aborted, scrubbed, training continued.
    failed_writes: int = 0
    wasted_batches: int = 0
    batches_trained: int = 0
    scratch_restarts: int = 0
    #: Resume-plan candidates that failed digest/CRC verification
    #: before a restore landed (sum of per-restore fallback depths):
    #: nonzero means the job restored *through* corruption.
    restore_fallbacks: int = 0
    preempted_writes: int = 0
    storm_crashes: int = 0
    #: A preempted staged write awaiting re-stage (set by the fleet
    #: scheduler's abort-and-requeue path, cleared on re-stage/crash).
    requeue_write: bool = False
    #: Job-clock time of the last checkpoint trigger; successive
    #: triggers measure the job's checkpoint interval in simulated
    #: seconds, the admission controller's deferral threshold.
    last_trigger_s: float | None = None
    #: Measured gap between the job's last two checkpoint triggers —
    #: the threshold unit for both write- and read-side admission.
    measured_interval_s: float | None = None
    restore_samples: list[RestoreSample] = field(default_factory=list)
    # -- peer-replication tier counters (all zero with replication off)
    #: Recoveries served from a live replica ring instead of the store.
    peer_restores: int = 0
    #: Recoveries that wanted a replica but found none alive (same
    #: failure domain took the peers too) and fell back to the store.
    repl_store_fallbacks: int = 0
    #: Step deltas committed to peer rings.
    repl_deltas_sent: int = 0
    #: Bytes shipped over the peer link (deltas + anchor rebuilds).
    repl_bytes_sent: int = 0
    #: Mid-send crashes whose partial ring write was discarded.
    repl_partial_discards: int = 0
    #: Replica rings lost to a peer-host death or a post-recovery
    #: resync (rebuilt at the next baseline flush).
    repl_rings_lost: int = 0
    #: Rings re-established by shipping a fresh full anchor.
    repl_rings_rebuilt: int = 0

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def tier(self) -> str:
        return self.spec.tier

    @property
    def useful_batches(self) -> int:
        """Batches trained that were never re-trained after a crash."""
        return max(0, self.batches_trained - self.wasted_batches)

    @property
    def intervals_done(self) -> int:
        return self.controller.interval_index

    def training_done(self) -> bool:
        return self.intervals_done >= self.target_intervals

    def model_fp32_bytes(self) -> int:
        return self.config.model.embedding_bytes


def build_fleet_job(
    spec: FleetJobSpec,
    fleet: FleetConfig,
    shared_store: ObjectStore,
) -> FleetJob:
    """Wire a job's full stack against the shared store.

    The job gets its own :class:`SimClock` (clusters run independently;
    only storage is shared), advanced to its staggered start offset so
    fleet checkpoint triggers de-align. The stack itself comes from
    :func:`repro.experiments.common.build_experiment`, with the job's
    namespaced view of the shared store injected.
    """
    clock = SimClock()
    clock.advance(spec.start_offset_s, "fleet-stagger")
    exp = build_experiment(
        spec_experiment_config(spec, fleet),
        job_id=spec.job_id,
        # duck-typed ObjectStore scoped to the namespace
        store=ScopedStore(shared_store, spec.job_id, clock),
        clock=clock,
    )
    return enrol_experiment(spec, fleet, exp, shared_store)


def enrol_experiment(
    spec: FleetJobSpec,
    fleet: FleetConfig,
    exp: Experiment,
    shared_store: ObjectStore,
) -> FleetJob:
    """A wired experiment as a fleet job on ``shared_store``.

    ``exp`` must already write through its :class:`ScopedStore` view of
    the shared store, on its own clock. Registers the job's stream
    (quota, tier) with the store's arbiter if one is attached.
    """
    if shared_store.arbiter is not None:
        shared_store.arbiter.register(
            spec.job_id,
            quota_bytes=fleet.per_job_quota_bytes,
            tier=spec.tier,
        )
    return FleetJob(
        spec=spec,
        config=exp.config,
        clock=exp.clock,
        model=exp.model,
        reader=exp.reader,
        trainer=exp.trainer,
        store=exp.store,
        controller=exp.controller,
        target_intervals=fleet.intervals_per_job,
        batches_left=spec.interval_batches,
    )
