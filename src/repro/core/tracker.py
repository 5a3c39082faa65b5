"""Modified-embedding-vector tracking (paper section 5.1.1).

Each GPU tracks accesses to its local embedding shards in a bit-vector:
one bit per embedding row, set when the row is looked up in the forward
pass. The bit-vector is the mask that decides which rows enter the next
incremental checkpoint.

The paper tracks in the forward pass "for the sake of simplicity, as
most of the embedding vectors accessed in the forward pass are also
modified during the backward pass" — i.e. the looked-up set is a
superset of the updated set. With this repo's sum-pooled embeddings the
two sets are *equal*, so there is one mode: the trainer hook marks the
one array ``train_step`` returns.

Memory accounting reports the true bit-vector footprint (one *bit* per
row, "typically less than 0.05%" of the model) even though numpy's bool
arrays spend a byte per element internally.
"""

from __future__ import annotations

import numpy as np

from ..data.batch import Batch
from ..distributed.sharding import Shard, ShardingPlan
from ..model.dlrm import StepResult


class ModifiedRowTracker:
    """Bit-vector over one shard's rows."""

    def __init__(self, shard: Shard) -> None:
        self.shard = shard
        self._mask = np.zeros(shard.rows, dtype=bool)

    def mark_table_rows(self, table_rows: np.ndarray) -> int:
        """Mark rows given in *table-global* indices; returns #newly set.

        Rows outside this shard's range are ignored (they belong to a
        different shard of the same table). The count comes from the
        rows being marked, not from summing the whole bit-vector; a row
        given twice still counts once.
        """
        if table_rows.size == 0:
            return 0
        local = table_rows[
            (table_rows >= self.shard.row_start)
            & (table_rows < self.shard.row_end)
        ] - self.shard.row_start
        if local.size == 0:
            return 0
        fresh = local[~self._mask[local]]
        self._mask[fresh] = True
        if fresh.size > 1 and not (fresh[1:] > fresh[:-1]).all():
            # Not strictly increasing: the input may repeat a row.
            return int(np.unique(fresh).size)
        return int(fresh.size)

    def reset(self) -> None:
        """Clear the bit-vector (after a full/consecutive checkpoint)."""
        self._mask[:] = False

    def modified_local_rows(self) -> np.ndarray:
        """Shard-local indices of modified rows, sorted."""
        return np.flatnonzero(self._mask)

    def modified_table_rows(self) -> np.ndarray:
        """Table-global indices of modified rows, sorted."""
        return self.modified_local_rows() + self.shard.row_start

    def mask_copy(self) -> np.ndarray:
        """An immutable-by-convention copy of the mask (for snapshots)."""
        return self._mask.copy()

    @property
    def modified_count(self) -> int:
        return int(self._mask.sum())

    @property
    def fraction_modified(self) -> float:
        return self.modified_count / self.shard.rows


class TrackerSet:
    """All shard trackers of one training job, plus the trainer hook."""

    def __init__(self, plan: ShardingPlan) -> None:
        self.plan = plan
        self.trackers: dict[int, ModifiedRowTracker] = {
            shard.shard_id: ModifiedRowTracker(shard)
            for shard in plan.shards
        }
        self._by_table: dict[int, list[ModifiedRowTracker]] = {}
        for tracker in self.trackers.values():
            self._by_table.setdefault(tracker.shard.table_id, []).append(
                tracker
            )

    def step_hook(self, result: StepResult, batch: Batch) -> None:
        """Trainer hook: mark rows touched by one training step.

        Every looked-up row is marked (what the paper's GPU kernel does
        during AlltoAll); in this model that is also exactly the set the
        optimizer updated, since sum-pooling hands every looked-up row a
        gradient row. ``train_step`` has already returned
        ``np.unique(batch.sparse[t])`` as ``result.touched_rows[t]``, so
        the hook does not derive it again
        (``test_step_hook_sets_coincide`` guards the shortcut).
        """
        for table_id, rows in result.touched_rows.items():
            for tracker in self._by_table.get(table_id, []):
                tracker.mark_table_rows(rows)

    def reset_all(self) -> None:
        for tracker in self.trackers.values():
            tracker.reset()

    def mark_table_rows(self, table_id: int, rows: np.ndarray) -> None:
        """Mark table-global rows across all of a table's shards."""
        for tracker in self._by_table.get(table_id, []):
            tracker.mark_table_rows(rows)

    def mask_copies(self) -> dict[int, np.ndarray]:
        """Snapshot of every shard's mask, keyed by shard id."""
        return {
            shard_id: tracker.mask_copy()
            for shard_id, tracker in self.trackers.items()
        }

    @property
    def total_rows(self) -> int:
        return sum(t.shard.rows for t in self.trackers.values())

    @property
    def modified_rows(self) -> int:
        return sum(t.modified_count for t in self.trackers.values())

    @property
    def fraction_modified(self) -> float:
        """Fraction of all embedding rows marked modified (Figs 5/6)."""
        total = self.total_rows
        return self.modified_rows / total if total else 0.0
