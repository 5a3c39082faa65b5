"""The synchronous hybrid-parallel trainer simulation.

One :class:`SimTrainer` step performs the *real* numpy forward/backward
update (so model quality, touched rows, and checkpoint contents are all
genuine) and advances simulated time by the cost model of one fully
synchronous iteration on the configured cluster:

    step = compute + AllReduce(dense grads) + 2 x AlltoAll(embeddings)
           [+ exposed tracking time]

Tracking cost is modelled per touched row and hidden inside the AlltoAll
phase up to a hide efficiency, mirroring section 5.1.1 ("we utilize idle
GPU cycles ... the tracking overhead is reduced to ~1% of the iteration
training time").

The numbers the paper reports in section 6.1 (< 7 s snapshot stall,
< 0.4% throughput loss at 30-minute intervals, < 1% tracking overhead)
fall out of these models at default calibration; the stall bench
(tab-stall) measures rather than asserts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..data.batch import Batch
from ..data.reader import ReaderMaster
from ..data.state import TrainerProgress
from ..errors import TrainingError
from ..model.dlrm import DLRM, StepResult
from .clock import SimClock
from .comm import Fabric, allreduce_time, alltoall_time
from .sharding import Shard, ShardingPlan
from .topology import SimCluster

#: Per-touched-row tracking cost (seconds). Calibrated so that at the
#: default batch/table shape the *exposed* tracking time is ~1% of an
#: iteration after hiding inside AlltoAll.
TRACKING_COST_PER_ROW_S = 2.0e-7

#: Fraction of the AlltoAll window usable for hiding tracking work.
TRACKING_HIDE_EFFICIENCY = 0.9

StepHook = Callable[[StepResult, Batch], None]


@dataclass
class IntervalReport:
    """Aggregate of one checkpoint interval's training."""

    batches: int
    samples: int
    mean_loss: float
    train_time_s: float
    tracking_exposed_s: float


@dataclass
class StepTiming:
    """Cost-model breakdown of one synchronous iteration."""

    compute_s: float
    allreduce_s: float
    alltoall_s: float
    tracking_exposed_s: float


class SimTrainer:
    """Drives the DLRM on the simulated cluster, batch by batch."""

    def __init__(
        self,
        model: DLRM,
        reader: ReaderMaster,
        cluster: SimCluster,
        plan: ShardingPlan,
        clock: SimClock,
    ) -> None:
        self.model = model
        self.reader = reader
        self.cluster = cluster
        self.plan = plan
        self.clock = clock
        self._step_hooks: list[StepHook] = []
        self._fabric = Fabric(
            cluster.config.fabric_bandwidth, cluster.config.fabric_latency_s
        )
        plan.apply_to(cluster)
        self._dense_bytes = sum(
            a.nbytes for a in model.dense_parameters().values()
        )
        # The MLPs are replicated on every device (data parallelism).
        for device in cluster.all_devices():
            device.allocate(self._dense_bytes, what="dense replica")

    # ------------------------------------------------------------------
    # Hooks (the Check-N-Run tracker attaches here)
    # ------------------------------------------------------------------

    def register_step_hook(self, hook: StepHook) -> None:
        """Call ``hook(step_result, batch)`` after every training step."""
        self._step_hooks.append(hook)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def _alltoall_bytes_per_rank(self, batch: Batch) -> int:
        """Embedding activation bytes each rank exchanges per direction."""
        dim = self.model.config.embedding_dim
        total = batch.num_samples * batch.num_tables * dim * 4
        return max(1, total // self.cluster.world_size)

    def step_timing(self, batch: Batch, touched_rows: int) -> StepTiming:
        """Simulated duration of one synchronous iteration."""
        world = self.cluster.world_size
        compute = self.cluster.config.step_compute_time_s
        a2a_bytes = self._alltoall_bytes_per_rank(batch)
        ar = allreduce_time(self._dense_bytes, world, self._fabric)
        a2a = 2.0 * alltoall_time(a2a_bytes, world, self._fabric)

        tracking = touched_rows * TRACKING_COST_PER_ROW_S
        hidden_budget = a2a * TRACKING_HIDE_EFFICIENCY
        exposed = max(0.0, tracking - hidden_budget)
        return StepTiming(compute, ar, a2a, exposed)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train_one_batch(self) -> StepResult:
        """Fetch the next batch from the reader and run one step."""
        batch = self.reader.next_batch()
        result = self.model.train_step(batch)
        touched = sum(r.size for r in result.touched_rows.values())
        timing = self.step_timing(batch, touched)
        self.clock.advance(timing.compute_s, "compute")
        self.clock.advance(timing.allreduce_s, "allreduce")
        self.clock.advance(timing.alltoall_s, "alltoall")
        if timing.tracking_exposed_s > 0:
            self.clock.advance(timing.tracking_exposed_s, "tracking")
        for hook in self._step_hooks:
            hook(result, batch)
        return result

    def train_interval(self, num_batches: int) -> IntervalReport:
        """Train one checkpoint interval's worth of batches."""
        if num_batches < 1:
            raise TrainingError("interval must contain at least one batch")
        start_time = self.clock.now
        start_tracking = self.clock.total("tracking")
        losses = np.empty(num_batches, dtype=np.float64)
        samples = 0
        for i in range(num_batches):
            result = self.train_one_batch()
            losses[i] = result.loss
            samples += self.reader._dataset.samples_per_batch
        return IntervalReport(
            batches=num_batches,
            samples=samples,
            mean_loss=float(losses.mean()),
            train_time_s=self.clock.now - start_time,
            tracking_exposed_s=self.clock.total("tracking") - start_tracking,
        )

    # ------------------------------------------------------------------
    # State access for snapshot / checkpoint
    # ------------------------------------------------------------------

    def shard_weight(self, shard: Shard) -> np.ndarray:
        """Live view of a shard's embedding rows (no copy)."""
        return self.model.table_weight(shard.table_id)[
            shard.row_start : shard.row_end
        ]

    def shard_accumulator(self, shard: Shard) -> np.ndarray:
        """Live view of a shard's optimizer accumulator rows."""
        return self.model.table_accumulator(shard.table_id)[
            shard.row_start : shard.row_end
        ]

    def node_snapshot_bytes(self, node_id: int) -> int:
        """Bytes node ``node_id`` copies to host DRAM for a snapshot.

        Embedding shards resident on the node, plus — on node 0 only —
        one replica of the dense state (reading the replicated MLPs from
        a single GPU suffices, section 4.1).
        """
        nbytes = self.plan.node_state_bytes(node_id)
        if node_id == 0:
            nbytes += self._dense_bytes
        return nbytes

    def progress(self) -> TrainerProgress:
        return TrainerProgress(
            batches_trained=self.model.batches_trained,
            samples_trained=self.model.samples_trained,
            sim_time_s=self.clock.now,
        )
