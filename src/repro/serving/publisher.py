"""The serving publisher: checkpoint -> announced version pipeline.

:class:`ServingPublisher` extends the online-training publisher
(:class:`~repro.core.publisher.OnlinePublisher`): besides keeping a
golden replica fresh, it turns every applied checkpoint into a
:class:`~repro.serving.version.PublishedVersion` the inference fleet
can flip to. The version's row locator is assembled from the apply
itself — the publisher reads every chunk anyway, so recording which
chunk carries each row's newest value costs nothing extra — and the
hot set is the cumulative modification-frequency ranking: incremental
checkpoints store exactly the rows the training-side modified-row
trackers flagged, so publish history *is* the tracker signal (paper
section 4.2: access skew makes the recently-modified set the hot set).

Candidate selection inherits the resume planner's vetting: quarantined
checkpoints, chains with quarantined links, and chains with missing
objects never publish (see ``OnlinePublisher.pending``).
"""

from __future__ import annotations

import numpy as np

from ..core.manifest import KIND_INCREMENTAL, CheckpointManifest
from ..core.publisher import OnlinePublisher, PublishEvent
from .version import PublishedVersion, RowRef


class ServingPublisher(OnlinePublisher):
    """Publishes vetted checkpoints as versioned, locatable snapshots."""

    def __init__(
        self,
        store,
        clock,
        replica,
        job_id: str,
        hot_rows_per_table: int = 64,
    ) -> None:
        super().__init__(store, clock, replica, job_id)
        self.hot_rows_per_table = hot_rows_per_table
        #: Append-only announcement log; index == ``version_index``.
        self.versions: list[PublishedVersion] = []
        self._locator: dict[int, dict[int, RowRef]] = {}
        self._touch_counts: dict[int, np.ndarray] = {}
        self._pending_rows: dict[int, list[np.ndarray]] = {}

    @property
    def latest_version(self) -> PublishedVersion | None:
        return self.versions[-1] if self.versions else None

    # -- hooks from the base publisher ---------------------------------

    def _on_chunk(self, manifest, shard_record, chunk, rows) -> None:
        """Point every row of a decoded chunk at that chunk.

        Chain applies run oldest-first, so later links overwrite
        earlier locator entries — after the walk, each row maps to the
        chunk holding its *newest* value, mirroring what the replica's
        weights ended up as. A failed fallback candidate cannot poison
        the locator: every successful chain starts at a full
        checkpoint, which re-points every row.
        """
        table_id = shard_record.table_id
        ref = RowRef(key=chunk.key, digest=chunk.digest, table_id=table_id)
        table = self._locator.setdefault(table_id, {})
        if isinstance(rows, slice):  # a full chunk's contiguous range
            row_list = np.arange(rows.start, rows.stop, dtype=np.int64)
        else:
            row_list = rows
        for row in row_list.tolist():
            table[int(row)] = ref
        self._pending_rows.setdefault(table_id, []).append(row_list)
        counts = self._touch_counts.get(table_id)
        if counts is None:
            counts = np.zeros(
                self.replica.table_weight(table_id).shape[0],
                dtype=np.int64,
            )
            self._touch_counts[table_id] = counts
        if manifest.kind == KIND_INCREMENTAL:
            # Only tracker-flagged rows count toward hotness: a full
            # checkpoint touches *every* row once, which is no signal
            # and would drown the skew the hot set exists to capture.
            counts[row_list] += 1

    def _published(
        self, manifest: CheckpointManifest, event: PublishEvent
    ) -> None:
        modified = {
            table_id: np.unique(np.concatenate(parts))
            for table_id, parts in sorted(self._pending_rows.items())
        }
        self._pending_rows = {}
        self.versions.append(
            PublishedVersion(
                version_index=len(self.versions),
                checkpoint_id=manifest.checkpoint_id,
                kind=manifest.kind,
                created_at_s=manifest.created_at_s,
                published_at_s=self.clock.now,
                locator={
                    table_id: dict(rows)
                    for table_id, rows in self._locator.items()
                },
                modified_rows=modified,
                hot_rows=self._hot_rows(),
            )
        )

    # -- hot set -------------------------------------------------------

    def _hot_rows(self) -> dict[int, np.ndarray]:
        """Top rows per table by cumulative modification count.

        Ties break toward lower row ids for determinism; rows never
        modified (count 0) are excluded even when the budget allows.
        """
        hot: dict[int, np.ndarray] = {}
        for table_id, counts in sorted(self._touch_counts.items()):
            touched = int(np.count_nonzero(counts))
            budget = min(self.hot_rows_per_table, touched)
            if budget == 0:
                hot[table_id] = np.zeros(0, dtype=np.int64)
                continue
            order = np.lexsort(
                (np.arange(counts.shape[0]), -counts)
            )
            hot[table_id] = np.sort(order[:budget]).astype(np.int64)
        return hot
