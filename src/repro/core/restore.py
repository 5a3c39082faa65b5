"""Checkpoint restore: chain resolution, de-quantization, state load.

Restoring follows the policy's chain (paper section 5.1): a full
checkpoint restores alone; a one-shot/intermittent increment needs its
baseline first; a consecutive increment needs the entire chain back to
the last full checkpoint, applied oldest-first so later increments
overwrite earlier rows.

Reads are *staged*, like the write side: the restore walks its chain
as a generator (:meth:`CheckpointRestorer.restore_steps`) that
announces a :class:`~repro.storage.engine.TransferStep` before every GET
part — against a backend with ranged GETs, one step per ranged *part* —
and submits it when resumed. The generator is the restorer's only
entry point: a single caller drains it
(:func:`~repro.storage.engine.drain`, reads back to back —
timing-identical to whole-chunk reads), while the fleet scheduler
interleaves steps from every job recovering in a restore storm, so the
shared link drains the storm at part granularity in bandwidth-arbiter
order.

Every chunk is CRC-verified by the frame reader; corruption surfaces as
:class:`CheckpointCorruptError` rather than silently wrong weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.reader import ReaderMaster
from ..data.state import ReaderState
from ..distributed.clock import SimClock
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointNotFoundError,
    ObjectNotFoundError,
    RestoreChainBrokenError,
    SerializationError,
    TrainingError,
)
from ..model.dlrm import DLRM
from ..quant.base import QuantizedTensor
from ..quant.registry import dequantize_tensor
from ..serialize.codec import decode_array, decode_payload
from ..serialize.format import decode_frames
from ..storage.engine import drain, read_steps
from ..storage.object_store import ObjectStore
from ..storage.requests import OP_HEAD
from .integrity import sha256_hex
from .manifest import (
    KIND_INCREMENTAL,
    CheckpointManifest,
    manifest_key,
)
from .policies import CheckpointPolicy, FullPolicy


#: Default chunk-read order: exactly the manifest's stored layout.
ORDER_MANIFEST = "manifest"
#: CPR-style priority restore: within each chain link, chunks holding
#: hot rows are read first (and the dense state up front), so training
#: or serving can resume before the cold tail lands.
ORDER_HOT_FIRST = "hot_first"

RESTORE_ORDERS = (ORDER_MANIFEST, ORDER_HOT_FIRST)


@dataclass
class RestoreReport:
    """Outcome of one restore operation."""

    checkpoint_id: str
    chain_ids: list[str]
    bytes_read: int
    chunks_read: int
    rows_restored: int
    started_at_s: float
    finished_at_s: float
    #: Table-global rows contained in the *target* checkpoint, keyed by
    #: table id — used to rebuild the modified-row trackers.
    target_rows_by_table: dict[int, np.ndarray] = field(
        default_factory=dict
    )
    #: How many newer resume-plan candidates failed verification before
    #: this restore succeeded (0 = the newest candidate was clean).
    fallback_depth: int = 0
    #: Checkpoint ids of the candidates that failed, newest first.
    failed_chain_ids: tuple[str, ...] = ()
    #: When the *hot* working set was fully restored — dense state plus
    #: every hot chunk of the chain. Under ``order="hot_first"`` this
    #: lands before the cold tail and marks the moment training (or
    #: serving) could process its first batch (CPR-style partial
    #: restore); under the default order it equals ``finished_at_s``.
    first_batch_ready_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.finished_at_s - self.started_at_s

    @property
    def time_to_first_batch_s(self) -> float:
        """Elapsed time until the hot set (and dense state) was loaded."""
        return self.first_batch_ready_s - self.started_at_s


class CheckpointRestorer:
    """Reads checkpoints back from the object store into live state."""

    def __init__(self, store: ObjectStore, clock: SimClock) -> None:
        self.store = store
        self.clock = clock
        #: Manifest keys the last :meth:`list_manifests` call could not
        #: parse, with the corruption reason.
        self.skipped_manifests: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Manifest discovery
    # ------------------------------------------------------------------

    def load_manifest(
        self, job_id: str, checkpoint_id: str
    ) -> CheckpointManifest:
        key = manifest_key(job_id, checkpoint_id)
        if not self.store.exists(key):
            raise CheckpointNotFoundError(
                f"no manifest for checkpoint {checkpoint_id!r} of job "
                f"{job_id!r}"
            )
        return CheckpointManifest.from_json(self.store.get(key))

    def list_manifests(self, job_id: str) -> dict[str, CheckpointManifest]:
        """All readable stored manifests of a job, keyed by checkpoint id.

        A manifest blob that fails to parse (bit rot, truncation) is
        *skipped and recorded* rather than aborting discovery — one
        corrupt manifest must not hide every valid candidate from the
        resume planner. Skipped keys land in
        :attr:`skipped_manifests` (``key -> reason``), refreshed on
        every call.
        """
        manifests: dict[str, CheckpointManifest] = {}
        skipped: dict[str, str] = {}
        for key in self.store.list_keys(f"{job_id}/"):
            if key.endswith("/manifest.json"):
                try:
                    manifest = CheckpointManifest.from_json(
                        self.store.get(key)
                    )
                except CheckpointCorruptError as exc:
                    skipped[key] = str(exc)
                    continue
                manifests[manifest.checkpoint_id] = manifest
        self.skipped_manifests = skipped
        return manifests

    def _objects_present(self, manifest: CheckpointManifest) -> bool:
        """Whether every chunk/dense object of one link still exists.

        Untimed HEAD probes: candidate vetting is controller-side
        metadata work, not a timed data-plane request — same idiom as
        the staged writer's overwrite probe and
        :meth:`ObjectStore.object_size`.
        """
        probe = self.store.engine.retry_probe
        for shard in manifest.shards:
            for chunk in shard.chunks:
                if not probe(OP_HEAD, chunk.key):
                    return False
        if manifest.dense_key is not None:
            return probe(OP_HEAD, manifest.dense_key)
        return True

    def plan_resume(
        self,
        job_id: str,
        at_time_s: float | None = None,
        policy: CheckpointPolicy | None = None,
    ) -> list[CheckpointManifest]:
        """Ordered restore candidates, newest first.

        A checkpoint qualifies when its write had completed by the
        deadline (``valid_at_s <= at_time``), it is not quarantined, its
        restore chain resolves with no quarantined link, and every
        chunk/dense object of the chain still exists (cheap untimed
        HEAD probes) — a retention-scrubbed or partially-deleted chain
        is rejected here instead of being discovered mid-restore.
        Existence says nothing about *content*: bit-rotted objects are
        only caught by digest/CRC verification during the restore
        itself, which is why callers restore through the plan (see
        :meth:`restore_with_fallback_steps`) rather than trusting the
        head alone.
        """
        deadline = self.clock.now if at_time_s is None else at_time_s
        manifests = self.list_manifests(job_id)
        chain_policy = policy or FullPolicy()
        candidates = sorted(
            (
                m
                for m in manifests.values()
                if m.valid_at_s <= deadline and not m.quarantined
            ),
            key=lambda m: (m.interval_index, m.valid_at_s),
            reverse=True,
        )
        plan: list[CheckpointManifest] = []
        for target in candidates:
            try:
                chain = chain_policy.restore_chain(target, manifests)
            except RestoreChainBrokenError:
                continue
            if any(link.quarantined for link in chain):
                continue
            if all(self._objects_present(link) for link in chain):
                plan.append(target)
        return plan

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------

    def _decode_weights(self, payload: bytes) -> np.ndarray:
        obj = decode_payload(payload)
        if isinstance(obj, QuantizedTensor):
            return dequantize_tensor(obj)
        return obj

    def _decode_accumulator(self, payload: bytes) -> np.ndarray:
        obj = decode_payload(payload)
        if isinstance(obj, QuantizedTensor):
            return dequantize_tensor(obj).reshape(-1)
        return obj.reshape(-1)

    def _decode_chunk(
        self,
        model: DLRM,
        table_id: int,
        chunk,
        blob: bytes,
    ) -> np.ndarray:
        """Digest/CRC-verify and load one chunk payload; returns row ids."""
        if chunk.digest is not None:
            actual = sha256_hex(blob)
            if actual != chunk.digest:
                raise CheckpointCorruptError(
                    f"chunk {chunk.key} digest mismatch: stored bytes "
                    f"hash {actual}, manifest records {chunk.digest}"
                )
        try:
            meta, frames = decode_frames(blob)
        except SerializationError as exc:
            raise CheckpointCorruptError(
                f"chunk {chunk.key} failed verification: {exc}"
            ) from exc
        if len(frames) != 3:
            raise CheckpointCorruptError(
                f"chunk {chunk.key} has {len(frames)} frames, "
                "expected rows/weights/accumulator"
            )
        rows = decode_array(frames[0].payload).astype(np.int64)
        if rows.size == 0 and int(meta.get("row_base", -1)) >= 0:
            # Full-checkpoint chunk: contiguous range, ids
            # reconstructed from (row_base, row_count).
            rows = np.arange(
                int(meta["row_base"]),
                int(meta["row_base"]) + int(meta["row_count"]),
                dtype=np.int64,
            )
        weights = self._decode_weights(frames[1].payload)
        accum = self._decode_accumulator(frames[2].payload)
        if rows.shape[0] != chunk.row_count:
            raise CheckpointCorruptError(
                f"chunk {chunk.key} declares {chunk.row_count} "
                f"rows, payload holds {rows.shape[0]}"
            )
        # A digest only proves the bytes are the ones written: frames
        # that disagree with the row frame are refused (before any row
        # is written) as corruption, so the restore falls back.
        try:
            model.load_table_rows(table_id, rows, weights, accum)
        except TrainingError as exc:
            raise CheckpointCorruptError(f"chunk {chunk.key}: {exc}") from exc
        return rows

    @staticmethod
    def _chunk_plan(
        manifest: CheckpointManifest,
        order: str,
        hot_rows: dict[int, np.ndarray] | None,
    ) -> list[tuple[object, object, bool]]:
        """Ordered ``(shard_record, chunk, is_hot)`` reads of one link.

        Hotness is decided without touching payloads: a *full* link's
        chunks cover contiguous row ranges recoverable from cumulative
        ``row_count`` (the writer chunks each shard's rows in order), so
        a chunk is hot when its range intersects the tracker-supplied
        hot set. An *incremental* link's chunks hold exactly the rows
        the tracker marked modified since the base — the definition of
        the hot working set — so every incremental chunk is hot. Under
        ``order="hot_first"`` hot chunks sort first (densest hot-row
        overlap leading, stable otherwise); the manifest order is kept
        bit-identical for the default.
        """
        entries: list[tuple[int, object, object, bool]] = []
        for shard_record in manifest.shards:
            cursor = shard_record.row_start
            for chunk in shard_record.chunks:
                if manifest.kind == KIND_INCREMENTAL:
                    overlap = int(chunk.row_count)
                    is_hot = True
                else:
                    table_hot = (hot_rows or {}).get(
                        shard_record.table_id
                    )
                    if table_hot is None or len(table_hot) == 0:
                        overlap = 0
                    else:
                        hot = np.asarray(table_hot)
                        overlap = int(
                            np.count_nonzero(
                                (hot >= cursor)
                                & (hot < cursor + chunk.row_count)
                            )
                        )
                    is_hot = overlap > 0
                entries.append((overlap, shard_record, chunk, is_hot))
                cursor += chunk.row_count
        if order == ORDER_HOT_FIRST:
            entries.sort(key=lambda e: -e[0])  # stable: ties keep layout
        return [(s, c, h) for _, s, c, h in entries]

    def _apply_manifest_steps(
        self,
        model: DLRM,
        manifest: CheckpointManifest,
        order: str = ORDER_MANIFEST,
        hot_rows: dict[int, np.ndarray] | None = None,
        on_chunk=None,
    ):
        """Generator: load one manifest's chunks through staged reads.

        ``on_chunk(manifest, shard_record, chunk, rows)`` fires after
        each chunk decodes — the serving publisher uses it to maintain
        its row locator. Returns (bytes_read, chunks_read,
        rows_restored, rows_by_table, last_completed_s,
        hot_completed_s) where ``hot_completed_s`` is when the last
        *hot* chunk landed (the manifest start time if none were hot).
        """
        bytes_read = 0
        chunks_read = 0
        rows_restored = 0
        last_completed = self.clock.now
        hot_completed = self.clock.now
        rows_by_table: dict[int, list[np.ndarray]] = {}
        for shard_record, chunk, is_hot in self._chunk_plan(
            manifest, order, hot_rows
        ):
            blob, completed = yield from read_steps(
                self.store.stage_get(chunk.key)
            )
            bytes_read += len(blob)
            last_completed = max(last_completed, completed)
            if is_hot:
                hot_completed = max(hot_completed, completed)
            rows = self._decode_chunk(
                model, shard_record.table_id, chunk, blob
            )
            if on_chunk is not None:
                on_chunk(manifest, shard_record, chunk, rows)
            rows_by_table.setdefault(
                shard_record.table_id, []
            ).append(rows)
            chunks_read += 1
            rows_restored += int(rows.shape[0])
        return (
            bytes_read,
            chunks_read,
            rows_restored,
            rows_by_table,
            last_completed,
            hot_completed,
        )

    def _apply_dense_steps(self, model: DLRM, manifest: CheckpointManifest):
        """Generator: load the dense state through a staged read.

        Returns (bytes_read, completed_s).
        """
        if manifest.dense_key is None:
            raise CheckpointCorruptError(
                f"checkpoint {manifest.checkpoint_id} has no dense state"
            )
        blob, completed = yield from read_steps(
            self.store.stage_get(manifest.dense_key)
        )
        if manifest.dense_digest is not None:
            actual = sha256_hex(blob)
            if actual != manifest.dense_digest:
                raise CheckpointCorruptError(
                    f"dense state {manifest.dense_key} of "
                    f"{manifest.checkpoint_id} digest mismatch: stored "
                    f"bytes hash {actual}, manifest records "
                    f"{manifest.dense_digest}"
                )
        try:
            _, frames = decode_frames(blob)
            state: dict[str, np.ndarray] = {}
            for frame in frames:
                inner_meta, inner = decode_frames(frame.payload)
                state[inner_meta["name"]] = decode_array(inner[0].payload)
        except SerializationError as exc:
            raise CheckpointCorruptError(
                f"dense state of {manifest.checkpoint_id} is corrupt: "
                f"{exc}"
            ) from exc
        model.load_dense_state(state)
        return len(blob), completed

    def restore_steps(
        self,
        model: DLRM,
        target: CheckpointManifest,
        manifests: dict[str, CheckpointManifest],
        reader: ReaderMaster | None = None,
        policy: CheckpointPolicy | None = None,
        order: str = ORDER_MANIFEST,
        hot_rows: dict[int, np.ndarray] | None = None,
        on_chunk=None,
    ):
        """Generator: restore ``target`` through staged, announced reads.

        Yields a :class:`TransferStep` before every GET part of the chain
        (oldest link first, chunk by chunk, dense state last); resuming
        the generator submits the announced part. Returns the
        :class:`RestoreReport` via ``StopIteration.value``, with
        ``finished_at_s`` taken from the restore's *own* receipt
        completion times — correct even when other jobs' transfers land
        on the shared link between this restore's parts.

        ``order="hot_first"`` is the CPR-style priority restore: the
        dense state reads *first*, and within each chain link the
        chunks overlapping ``hot_rows`` (table id -> table-global row
        ids, typically tracker stats) lead the cold tail — safe because
        chunks within one link are disjoint, and the oldest-first link
        order still guarantees later increments overwrite earlier rows.
        The report's ``first_batch_ready_s`` then records when the hot
        set had fully landed.

        ``manifests`` must contain every checkpoint the chain needs;
        ``policy`` defaults to chain resolution via base-id links, which
        is correct for all shipped policies.
        """
        if order not in RESTORE_ORDERS:
            raise CheckpointError(
                f"unknown restore order {order!r}; valid: {RESTORE_ORDERS}"
            )
        chain_policy = policy or FullPolicy()
        chain = chain_policy.restore_chain(target, manifests)
        started = self.clock.now
        bytes_read = 0
        chunks_read = 0
        rows_restored = 0
        finished = started
        hot_finished = started
        dense_completed = started
        target_rows: dict[int, np.ndarray] = {}
        if order == ORDER_HOT_FIRST:
            # Dense state up front: the MLPs are needed for any batch
            # at all, and they are <1% of the model.
            dense_bytes, dense_completed = yield from (
                self._apply_dense_steps(model, target)
            )
            bytes_read += dense_bytes
            finished = max(finished, dense_completed)
        for manifest in chain:  # oldest first: increments overwrite base
            b, c, r, rows_by_table, completed, hot_completed = (
                yield from self._apply_manifest_steps(
                    model,
                    manifest,
                    order=order,
                    hot_rows=hot_rows,
                    on_chunk=on_chunk,
                )
            )
            bytes_read += b
            chunks_read += c
            rows_restored += r
            finished = max(finished, completed)
            hot_finished = max(hot_finished, hot_completed)
            if manifest.checkpoint_id == target.checkpoint_id:
                target_rows = {
                    table_id: np.unique(np.concatenate(parts))
                    for table_id, parts in rows_by_table.items()
                }
        if order != ORDER_HOT_FIRST:
            # Dense state: only the target's copy matters (stored whole).
            dense_bytes, dense_completed = yield from (
                self._apply_dense_steps(model, target)
            )
            bytes_read += dense_bytes
            finished = max(finished, dense_completed)

        progress = target.trainer_progress
        model.batches_trained = int(progress.get("batches_trained", 0))
        model.samples_trained = int(progress.get("samples_trained", 0))
        if reader is not None:
            reader.restore(ReaderState.from_dict(target.reader_state))

        finished = max(finished, self.clock.now)
        first_batch_ready = (
            max(dense_completed, hot_finished)
            if order == ORDER_HOT_FIRST
            else finished
        )
        return RestoreReport(
            checkpoint_id=target.checkpoint_id,
            chain_ids=[m.checkpoint_id for m in chain],
            bytes_read=bytes_read,
            chunks_read=chunks_read,
            rows_restored=rows_restored,
            started_at_s=started,
            finished_at_s=finished,
            target_rows_by_table=target_rows,
            first_batch_ready_s=min(first_batch_ready, finished),
        )

    def restore_with_fallback_steps(
        self,
        model: DLRM,
        plan: list[CheckpointManifest],
        manifests: dict[str, CheckpointManifest],
        reader: ReaderMaster | None = None,
        policy: CheckpointPolicy | None = None,
        order: str = ORDER_MANIFEST,
        hot_rows: dict[int, np.ndarray] | None = None,
    ):
        """Generator: restore *through* corruption down a resume plan.

        Tries each candidate of ``plan`` (newest first, see
        :meth:`plan_resume`) with :meth:`restore_steps`; a candidate
        whose chain turns out corrupt, broken, or missing objects
        mid-read is abandoned and the next one tried — safe because
        every chain starts at a full checkpoint, which overwrites any
        rows a failed attempt partially loaded, and the dense state is
        reloaded whole. The bytes already read for a failed candidate
        stay on the simulated link: falling back costs real read
        traffic, exactly as it would in production. Returns the winning
        :class:`RestoreReport` with ``fallback_depth`` set; raises
        :class:`CheckpointNotFoundError` when every candidate fails.
        """
        failed: list[str] = []
        for depth, target in enumerate(plan):
            try:
                report = yield from self.restore_steps(
                    model,
                    target,
                    manifests,
                    reader=reader,
                    policy=policy,
                    order=order,
                    hot_rows=hot_rows,
                )
            except (
                CheckpointCorruptError,
                RestoreChainBrokenError,
                ObjectNotFoundError,
            ):
                failed.append(target.checkpoint_id)
                continue
            report.fallback_depth = depth
            report.failed_chain_ids = tuple(failed)
            return report
        raise CheckpointNotFoundError(
            "no restorable checkpoint: every resume-plan candidate "
            f"failed verification ({', '.join(failed) or 'empty plan'})"
        )

    def apply_single_steps(
        self,
        model: DLRM,
        manifest: CheckpointManifest,
        on_chunk=None,
    ):
        """Generator: apply one manifest's rows + dense state to a model.

        This is the *online training* path (paper sections 1, 5.1):
        consecutive incremental checkpoints are "directly applied to an
        already-trained model in inference to improve its freshness" —
        no chain walk, the increment lands on whatever the replica
        already holds. Yields a :class:`TransferStep` before every GET
        part so a driver can interleave the apply with concurrent link
        traffic (``drain`` it to apply back to back). Returns
        ``(bytes_read, completed_s)``.
        """
        bytes_read, _, _, _, completed, _ = yield from (
            self._apply_manifest_steps(model, manifest, on_chunk=on_chunk)
        )
        dense_bytes, dense_completed = yield from self._apply_dense_steps(
            model, manifest
        )
        return bytes_read + dense_bytes, max(completed, dense_completed)

    def restore_for_transfer(
        self,
        model: DLRM,
        target: CheckpointManifest,
        manifests: dict[str, CheckpointManifest],
        policy: CheckpointPolicy | None = None,
    ) -> RestoreReport:
        """Seed a *new* job from a checkpoint (transfer learning).

        Paper section 4.1: checkpoints used for transfer learning "do
        not require the reader state" — the new job trains a different
        dataset toward a different goal. Model weights load through the
        normal chain, but progress counters reset to zero and the
        reader is untouched. Drains :meth:`restore_steps` back to back.
        """
        report = drain(
            self.restore_steps(model, target, manifests, policy=policy)
        )
        model.batches_trained = 0
        model.samples_trained = 0
        return report
