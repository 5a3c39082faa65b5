"""Decoupled snapshotting (paper section 4.2).

Checkpoint consistency requires an atomic copy of the model state.
Check-N-Run stalls training only while each node copies its local
shards from GPU HBM to host DRAM; as soon as every node's in-memory
snapshot exists, training resumes and the (slow) optimize-and-store
pipeline works off the snapshot in background CPU processes.

The stall duration is the max over nodes of their copy time (nodes copy
concurrently) plus a fixed synchronisation overhead. At the paper's
scale this is < 7 s per snapshot, i.e. < 0.4% of a 30-minute interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.state import ReaderState, TrainerProgress
from ..distributed.clock import SimClock
from ..distributed.trainer import SimTrainer
from ..errors import CheckpointError
from .tracker import TrackerSet


@dataclass
class ShardSnapshot:
    """Host-DRAM copy of one shard's checkpointable state."""

    shard_id: int
    table_id: int
    row_start: int
    row_end: int
    weight: np.ndarray  # (rows, dim) fp32 copy
    accumulator: np.ndarray  # (rows,) fp32 copy
    mask: np.ndarray  # (rows,) bool copy of the tracker bit-vector

    @property
    def nbytes(self) -> int:
        return (
            self.weight.nbytes
            + self.accumulator.nbytes
            + (self.mask.shape[0] + 7) // 8
        )


@dataclass
class ModelSnapshot:
    """A complete, consistent, in-host-memory copy of the training state."""

    taken_at_s: float
    interval_index: int
    stall_time_s: float
    dense_state: dict[str, np.ndarray]
    shards: dict[int, ShardSnapshot]
    reader_state: ReaderState
    trainer_progress: TrainerProgress
    host_bytes_by_node: dict[int, int] = field(default_factory=dict)
    _released: bool = False

    @property
    def total_bytes(self) -> int:
        dense = sum(a.nbytes for a in self.dense_state.values())
        return dense + sum(s.nbytes for s in self.shards.values())

    def release(self, trainer: SimTrainer) -> None:
        """Free the host-DRAM reservation once the checkpoint is written."""
        if self._released:
            return
        for node_id, nbytes in self.host_bytes_by_node.items():
            trainer.cluster.nodes[node_id].free_host(nbytes)
        self._released = True


class SnapshotManager:
    """Takes stall-accounted snapshots of a :class:`SimTrainer`."""

    def __init__(self, trainer: SimTrainer, clock: SimClock) -> None:
        self.trainer = trainer
        self.clock = clock
        self.snapshots_taken = 0

    def stall_time_s(self) -> float:
        """Simulated stall for one snapshot on the current cluster.

        Nodes copy concurrently; the barrier releases when the slowest
        node finishes, plus a fixed synchronisation overhead.
        """
        cluster = self.trainer.cluster
        per_node = [
            node.copy_time_s(self.trainer.node_snapshot_bytes(node.node_id))
            for node in cluster.nodes
        ]
        return max(per_node) + cluster.config.snapshot_fixed_overhead_s

    def take_snapshot(
        self,
        interval_index: int,
        tracker_set: TrackerSet,
        reader_state: ReaderState,
    ) -> ModelSnapshot:
        """Stall training, copy state to host DRAM, resume.

        The returned snapshot owns host-memory reservations; callers
        must :meth:`ModelSnapshot.release` it after the checkpoint is
        written (or abandoned).
        """
        trainer = self.trainer
        stall = self.stall_time_s()
        self.clock.advance(stall, "snapshot_stall")

        masks = tracker_set.mask_copies()
        shard_snapshots: dict[int, ShardSnapshot] = {}
        host_bytes: dict[int, int] = {}
        for shard in trainer.plan.shards:
            if shard.shard_id not in masks:
                raise CheckpointError(
                    f"no tracker mask for shard {shard.shard_id}"
                )
            snapshot = ShardSnapshot(
                shard_id=shard.shard_id,
                table_id=shard.table_id,
                row_start=shard.row_start,
                row_end=shard.row_end,
                weight=trainer.shard_weight(shard).copy(),
                accumulator=trainer.shard_accumulator(shard).copy(),
                mask=masks[shard.shard_id],
            )
            shard_snapshots[shard.shard_id] = snapshot
            node = shard.device_id.node
            host_bytes[node] = host_bytes.get(node, 0) + snapshot.nbytes

        dense_state = trainer.model.dense_state()
        dense_bytes = sum(a.nbytes for a in dense_state.values())
        host_bytes[0] = host_bytes.get(0, 0) + dense_bytes

        for node_id, nbytes in host_bytes.items():
            trainer.cluster.nodes[node_id].allocate_host(
                nbytes, what=f"snapshot@interval{interval_index}"
            )

        self.snapshots_taken += 1
        return ModelSnapshot(
            taken_at_s=self.clock.now,
            interval_index=interval_index,
            stall_time_s=stall,
            dense_state=dense_state,
            shards=shard_snapshots,
            reader_state=reader_state,
            trainer_progress=trainer.progress(),
            host_bytes_by_node=host_bytes,
        )

    def stall_fraction(self) -> float:
        """Fraction of all simulated time spent stalled for snapshots."""
        return self.clock.fraction("snapshot_stall")
