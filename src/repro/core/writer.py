"""The chunked, pipelined checkpoint writer (paper sections 4.4, 6.1).

Working from an in-memory snapshot, the writer:

1. selects rows per shard (all rows for a full checkpoint, the
   tracker-masked rows for an incremental one);
2. quantizes a tile of rows at a time — consecutive chunks that fit
   one quantizer tile share one kernel call, a larger chunk has its
   own — the head group on its own thread (it would block on it at
   once), the groups after it ahead of time on the transfer engine's
   *worker pool* (real numpy work on background threads, so the
   measured wall time overlaps the writer's own encode/submit work the
   same way the calibrated simulated quantization lane overlaps the
   storage timeline) — plus a simulated latency per chunk at paper
   scale;
3. stores each chunk as soon as it is quantized — the storage transfer
   of chunk *k* overlaps the quantization of chunk *k + 1*, which is
   why the paper calls the effective quantization latency "virtually
   zero" when storage bandwidth is the bottleneck. Against a multipart
   backend a chunk is staged as individual *parts*, announced one at a
   time so a fleet scheduler can interleave parts from many jobs;
4. writes the manifest last; its completion time is the checkpoint's
   validity time.

Chunk payloads are CRC-framed and self-describing: absolute table row
ids, quantized (or raw fp32) weights, and the optimizer accumulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Generator

import numpy as np

from ..distributed.clock import SimClock, Timeline
from ..errors import CheckpointError
from ..metrics.latency import LatencyModel
from ..quant.base import Quantizer
from ..quant.uniform import AsymmetricQuantizer, block_rows
from ..serialize.codec import encode_array, encode_payload
from ..serialize.format import encode_frames, encode_named_frame
from ..storage.engine import TransferStep, split_parts
from ..storage.object_store import ObjectStore
from .integrity import sha256_hex
from .manifest import (
    KIND_FULL,
    KIND_INCREMENTAL,
    CheckpointManifest,
    ChunkRecord,
    ShardRecord,
    chunk_key,
    dense_key,
    manifest_key,
)
from .snapshot import ModelSnapshot

#: How many chunk groups (see :func:`_quantize_groups`) ahead of the
#: current store submission the writer keeps quantization tasks in
#: flight on the worker pool. 2 keeps the pool busy across the caller's
#: encode/submit work without holding more than a few groups' payloads
#: in memory.
QUANT_LOOKAHEAD = 2


@dataclass(frozen=True)
class WriteReport:
    """Timing/size breakdown of one checkpoint write."""

    checkpoint_id: str
    kind: str
    logical_bytes: int
    physical_bytes: int
    rows_written: int
    num_chunks: int
    quantize_sim_s: float  # simulated CPU time at paper-scale calibration
    measured_quantize_s: float  # real numpy wall time (transparency)
    started_at_s: float
    valid_at_s: float
    #: Real seconds the writer *blocked* on quantization: waiting on
    #: worker-pool tasks (0 when every task finished behind other
    #: work) plus the whole of the head group, which it quantizes
    #: itself. ``measured_quantize_s - measured_wait_s`` is the
    #: measured wall-time overlap the pool bought.
    measured_wait_s: float = 0.0

    @property
    def pipeline_duration_s(self) -> float:
        """Trigger-to-valid latency of the checkpoint."""
        return self.valid_at_s - self.started_at_s

    @property
    def measured_overlap_s(self) -> float:
        """Real quantization seconds hidden behind the writer's own
        encode/submit progress — the measured counterpart of the
        simulated pipelining."""
        return max(0.0, self.measured_quantize_s - self.measured_wait_s)


def _encode_group_payloads(
    quantizer: Quantizer,
    weights: list[np.ndarray],
    accumulators: list[np.ndarray],
    bits: int,
) -> tuple[list[tuple[bytes, bytes]], float]:
    """Worker-pool task: quantize a group of chunks' weights and
    accumulators.

    The group's weights go through one :meth:`Quantizer.quantize_many`
    call, which stores every chunk exactly as quantizing it alone
    would. Each accumulator is one scalar per row; quantizing it as a
    single long vector keeps the parameter overhead to one (xmin,
    xmax) pair per chunk instead of one pair per row. Under the
    ``none`` quantizer it stays fp32: the fp32 baseline would otherwise
    lose the bit-exact restore it exists to provide. Returns each
    chunk's two encoded payloads plus the task's real busy seconds.
    """
    start = time.perf_counter()
    accum_quantizer = AsymmetricQuantizer(max(bits, 8))
    payloads = []
    for quantized, accumulator in zip(
        quantizer.quantize_many(weights), accumulators
    ):
        if quantizer.name == "none" or accumulator.size == 0:
            accum_payload = encode_array(accumulator.astype(np.float32))
        else:
            accum_payload = encode_payload(
                accum_quantizer.quantize(
                    accumulator.reshape(1, -1).astype(np.float32)
                )
            )
        payloads.append((encode_payload(quantized), accum_payload))
    return payloads, time.perf_counter() - start


def _row_count(rows: "slice | np.ndarray") -> int:
    """Rows in a chunk's shard-local row selection."""
    if isinstance(rows, slice):
        return rows.stop - rows.start
    return int(rows.shape[0])


def _quantize_groups(
    plans: "list[tuple[object, int, slice | np.ndarray]]",
) -> list[list[int]]:
    """Consecutive chunk plans whose rows fit one quantizer tile, by
    plan index: the writer's unit of quantize work.

    The tile is :func:`~repro.quant.uniform.block_rows` of the model's
    embedding width (every table has the same one), the block the
    search kernel walks anyway, so a group costs one kernel call where
    its chunks would cost one each, and copies at most one tile. A
    chunk larger than a tile is a group of its own and is quantized as
    the view it is.
    """
    groups: list[list[int]] = []
    room = 0
    for index, (shard, _, rows) in enumerate(plans):
        count = _row_count(rows)
        if groups and count <= room:
            groups[-1].append(index)
            room -= count
        else:
            groups.append([index])
            room = block_rows(shard.weight.shape[1]) - count
    return groups


class CheckpointWriter:
    """Builds and stores checkpoints from snapshots, in the background."""

    def __init__(self, store: ObjectStore, clock: SimClock) -> None:
        self.store = store
        self.clock = clock
        self.latency_model = LatencyModel()
        self.quant_lane = Timeline(clock, "quantize")

    # ------------------------------------------------------------------

    def _chunk_rows(
        self, kind: str, mask: np.ndarray, chunk_rows: int
    ) -> "list[slice] | list[np.ndarray]":
        """Shard-local rows of each chunk a ``kind`` checkpoint stores.

        A full checkpoint's chunks are contiguous row ranges, kept as
        slices: its tasks quantize views of the snapshot and its ids
        are stored as ``(row_base, row_count)``. An incremental one's
        are the marked rows' ids.
        """
        if kind == KIND_FULL:
            count = mask.shape[0]
            return [
                slice(start, min(start + chunk_rows, count))
                for start in range(0, count, chunk_rows)
            ]
        if kind == KIND_INCREMENTAL:
            ids = np.flatnonzero(mask).astype(np.int64)
            return [
                ids[start : start + chunk_rows]
                for start in range(0, ids.shape[0], chunk_rows)
            ]
        raise CheckpointError(f"unknown checkpoint kind {kind!r}")

    def _staged_write(
        self,
        step_kind: str,
        key: str,
        payload: "bytes | Callable[[], bytes]",
        ready_s: float,
        earliest: float | None,
        announce_bytes: int | None = None,
    ) -> Generator[TransferStep, None, object]:
        """Stage one object PUT, yielding before every part request.

        The first yield announces the write; quota and capacity are
        only checked on resume, before any link time is spent, and a
        callable ``payload`` is also only built then (the manifest's
        validity prediction must read the link state at submission
        time, not announce time — pass ``announce_bytes`` so the
        announced part count does not need the built payload). Each
        subsequent resume submits exactly one part. Closing the
        generator mid-flight aborts the staged upload — no visible
        object, no orphaned parts.
        """
        if announce_bytes is None:
            assert isinstance(payload, (bytes, bytearray))
            announce_bytes = len(payload)
        num_parts = len(
            split_parts(announce_bytes, self.store.backend.part_size_bytes)
        )
        yield TransferStep(key, ready_s, 1, num_parts, step_kind)
        if callable(payload):
            payload = payload()
        staged = self.store.stage_put(key, payload, earliest=earliest)
        try:
            receipt = staged.submit_next()
            while receipt is None:
                yield TransferStep(
                    key,
                    staged.next_ready_s,
                    staged.next_part_number,
                    staged.num_parts,
                    step_kind,
                )
                receipt = staged.submit_next()
            return receipt
        except GeneratorExit:
            staged.abort()
            raise

    # ------------------------------------------------------------------

    def write_checkpoint_steps(
        self,
        snapshot: ModelSnapshot,
        kind: str,
        checkpoint_id: str,
        job_id: str,
        base_id: str | None,
        policy_name: str,
        quantizer: Quantizer,
        chunk_rows: int,
        adaptive_num_bins: int = 25,
        adaptive_ratio: float = 1.0,
    ) -> Generator[TransferStep, None, tuple[CheckpointManifest, WriteReport]]:
        """Staged checkpoint write: yields before every PUT request.

        Chunks are quantized in tile-sized groups (one task each), and
        the groups after the head run on the transfer engine's worker
        pool with a :data:`QUANT_LOOKAHEAD`-deep pipeline, so the
        measured wall time of group *k + 1*'s quantization overlaps
        group *k*'s encoding and submission; the simulated quantization
        lane models the same overlap in simulated time, chunk by chunk.
        Each PUT is announced
        before it is submitted — against a multipart backend, once per
        *part* — so a fleet scheduler can interleave submissions from
        many jobs on the shared link in ``ready_s`` order. Abandoning
        the generator mid-flight leaves chunks without a manifest —
        exactly the torn state a mid-write crash produces, which the
        restore path must skip (manifest-last invariant, paper section
        4.4); *closing* it additionally aborts any in-flight multipart
        upload so no orphaned parts survive.
        """
        if chunk_rows < 1:
            raise CheckpointError("chunk_rows must be >= 1")
        started_at = self.clock.now
        quantize_sim_total = 0.0
        measured_quantize = 0.0
        measured_wait = 0.0
        logical_total = 0
        physical_total = 0
        rows_total = 0
        chunks_total = 0
        last_end = started_at
        shard_records: list[ShardRecord] = []

        # Chunk plan across *all* shards, so the quantization lookahead
        # pipelines over shard boundaries too (fleet-scale jobs often
        # hold exactly one chunk per shard).
        plans: list[tuple[object, int, "slice | np.ndarray"]] = []
        chunk_records_by_shard: dict[int, list[ChunkRecord]] = {}
        for shard in snapshot.shards.values():
            chunk_records_by_shard[shard.shard_id] = []
            plans.extend(
                (shard, chunk_index, rows)
                for chunk_index, rows in enumerate(
                    self._chunk_rows(kind, shard.mask, chunk_rows)
                )
            )

        # Lookahead pipeline: quantization tasks for the next few
        # groups of chunks run on the pool while this thread encodes
        # frames and submits parts for the current one. A group nothing
        # submitted ahead of time (the head group) would be blocked on
        # at once, so it runs right here instead of hopping threads.
        engine = self.store.engine
        groups = _quantize_groups(plans)

        def task_args(group: list[int]) -> tuple:
            weights, accumulators = [], []
            for index in group:
                task_shard, _, rows = plans[index]
                weights.append(task_shard.weight[rows])
                accumulators.append(task_shard.accumulator[rows])
            return quantizer, weights, accumulators, quantizer.bits

        def encoded_chunks():
            nonlocal measured_wait, measured_quantize
            tasks: list[object | None] = [None] * len(groups)
            for group_index, group in enumerate(groups):
                for ahead in range(
                    group_index + 1,
                    min(group_index + 1 + QUANT_LOOKAHEAD, len(groups)),
                ):
                    if tasks[ahead] is None:
                        tasks[ahead] = engine.submit_task(
                            _encode_group_payloads,
                            *task_args(groups[ahead]),
                        )
                task = tasks[group_index]
                tasks[group_index] = None
                blocked = time.perf_counter()
                if task is None:
                    payloads, busy_s = engine.run_task(
                        _encode_group_payloads, *task_args(group)
                    )
                else:
                    payloads, busy_s = task.result()
                measured_wait += time.perf_counter() - blocked
                measured_quantize += busy_s
                for index, chunk_payloads in zip(group, payloads):
                    yield plans[index], chunk_payloads

        for (shard, chunk_index, local_rows), (
            weights_payload,
            accum_payload,
        ) in encoded_chunks():
            row_count = _row_count(local_rows)
            num_values = row_count * int(shard.weight.shape[1])
            quant_sim = self.latency_model.for_quantizer(
                quantizer.name,
                num_values,
                bits=quantizer.bits,
                num_bins=adaptive_num_bins,
                ratio=adaptive_ratio,
            )
            quantize_sim_total += quant_sim
            quant_span = self.quant_lane.submit(quant_sim)

            # Row-id encoding: full checkpoints cover contiguous
            # ranges, so only (row_base, row_count) metadata is
            # needed; incremental chunks store explicit ids, int32
            # when the table permits (it always does below 2^31
            # rows) to halve the id overhead.
            if kind == KIND_FULL:
                rows_payload = encode_array(
                    np.zeros(0, dtype=np.int32)
                )
                row_base = int(shard.row_start) + local_rows.start
            else:
                table_rows = local_rows + shard.row_start
                rows_payload = encode_array(
                    table_rows.astype(np.int32)
                    if table_rows.size == 0
                    or table_rows.max() < 2**31
                    else table_rows
                )
                row_base = -1
            blob = encode_frames(
                {
                    "checkpoint_id": checkpoint_id,
                    "shard_id": shard.shard_id,
                    "table_id": shard.table_id,
                    "chunk_index": chunk_index,
                    "row_count": row_count,
                    "row_base": row_base,
                },
                [
                    (0, rows_payload),
                    (1, weights_payload),
                    (2, accum_payload),
                ],
            )
            key = chunk_key(
                job_id, checkpoint_id, shard.shard_id, chunk_index
            )
            # Pipelining: the store transfer cannot start before
            # this chunk's quantization finished on the CPU lane.
            receipt = yield from self._staged_write(
                "chunk", key, blob, quant_span.end, quant_span.end
            )
            chunk_records_by_shard[shard.shard_id].append(
                ChunkRecord(
                    key=key,
                    row_count=row_count,
                    logical_bytes=receipt.logical_bytes,
                    digest=sha256_hex(blob),
                )
            )
            logical_total += receipt.logical_bytes
            physical_total += receipt.physical_bytes
            rows_total += row_count
            chunks_total += 1
            last_end = max(last_end, receipt.completed_s)

        for shard in snapshot.shards.values():
            shard_records.append(
                ShardRecord(
                    shard_id=shard.shard_id,
                    table_id=shard.table_id,
                    row_start=shard.row_start,
                    row_end=shard.row_end,
                    chunks=tuple(
                        chunk_records_by_shard[shard.shard_id]
                    ),
                )
            )

        # Dense state: always stored whole and in full precision — the
        # MLPs are <1% of the model and quantizing them buys nothing.
        dense_blob = encode_frames(
            {"checkpoint_id": checkpoint_id, "kind": "dense"},
            [
                (i, encode_named_frame(name, encode_array(arr)))
                for i, (name, arr) in enumerate(
                    sorted(snapshot.dense_state.items())
                )
            ],
        )
        dense_receipt = yield from self._staged_write(
            "dense",
            dense_key(job_id, checkpoint_id),
            dense_blob,
            self.clock.now,
            None,
        )
        logical_total += dense_receipt.logical_bytes
        physical_total += dense_receipt.physical_bytes
        last_end = max(last_end, dense_receipt.completed_s)
        dense_digest = sha256_hex(dense_blob)

        # Built once; everything but the validity time is known now.
        draft = CheckpointManifest(
            checkpoint_id=checkpoint_id,
            job_id=job_id,
            kind=kind,
            base_id=base_id,
            interval_index=snapshot.interval_index,
            policy=policy_name,
            quantizer=quantizer.name,
            bit_width=quantizer.bits,
            created_at_s=snapshot.taken_at_s,
            valid_at_s=0.0,
            reader_state=snapshot.reader_state.to_dict(),
            trainer_progress=snapshot.trainer_progress.to_dict(),
            shards=tuple(shard_records),
            dense_key=dense_key(job_id, checkpoint_id),
            dense_bytes=dense_receipt.logical_bytes,
            dense_digest=dense_digest,
        )
        mkey = manifest_key(job_id, checkpoint_id)
        draft_json = draft.to_json()
        draft_bytes = len(draft_json.encode("utf-8"))
        built: list[CheckpointManifest] = []

        def manifest_payload() -> bytes:
            # The manifest's validity time is the landing time of its
            # own bytes; predict it from the timeline at submission
            # time (a few bytes of JSON length drift, backend jitter
            # draws, or multipart completion latency are timing
            # noise). The store's per-op-class cost model owns the PUT
            # duration — the writer no longer assumes flat link math.
            duration = self.store.predict_put_duration(draft_bytes)
            predicted_start = max(
                self.clock.now, self.store.timeline.free_at, last_end
            )
            valid_at_s = predicted_start + duration
            built.append(replace(draft, valid_at_s=valid_at_s))
            return CheckpointManifest.json_with_valid_at(
                draft_json, valid_at_s
            ).encode("utf-8")

        yield from self._staged_write(
            "manifest",
            mkey,
            manifest_payload,
            last_end,
            last_end,
            announce_bytes=draft_bytes,
        )
        manifest = built[0]

        report = WriteReport(
            checkpoint_id=checkpoint_id,
            kind=kind,
            logical_bytes=logical_total,
            physical_bytes=physical_total,
            rows_written=rows_total,
            num_chunks=chunks_total,
            quantize_sim_s=quantize_sim_total,
            measured_quantize_s=measured_quantize,
            started_at_s=started_at,
            valid_at_s=manifest.valid_at_s,
            measured_wait_s=measured_wait,
        )
        return manifest, report
