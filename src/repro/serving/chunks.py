"""Model-free chunk decoding for the serving read path.

Inference servers answer row lookups straight from stored checkpoint
chunks — there is no DLRM replica on the serving side to load rows
into, so the restorer's decode path (which writes into a model) does
not fit. :func:`decode_chunk_rows` does the same digest verification
and frame decoding but simply returns the row ids and dequantized
weight rows, leaving placement to the caller's row cache.

Accumulator payloads are decoded-and-discarded territory: inference
only serves weights, and skipping frame 2 entirely keeps the integrity
story honest (the digest already covers all frames, so nothing is
silently trusted).
"""

from __future__ import annotations

import numpy as np

from ..core.integrity import sha256_hex
from ..errors import CheckpointCorruptError, SerializationError
from ..quant.base import QuantizedTensor
from ..quant.registry import dequantize_tensor
from ..serialize.codec import decode_array, decode_payload
from ..serialize.format import decode_frames


def decode_chunk_rows(
    key: str, blob: bytes, expected_digest: str | None
) -> tuple[np.ndarray, np.ndarray]:
    """Verify and decode one chunk object into ``(row_ids, weights)``.

    ``row_ids`` is int64, ``weights`` is float32 of shape
    ``(len(row_ids), embedding_dim)``; ``weights[i]`` is the value of
    ``row_ids[i]``. Raises :class:`CheckpointCorruptError` on a digest
    mismatch or any structural decode failure — the serving layer turns
    that into a fallback to an older published version.
    """
    if expected_digest is not None:
        actual = sha256_hex(blob)
        if actual != expected_digest:
            raise CheckpointCorruptError(
                f"chunk {key} digest mismatch: stored bytes hash "
                f"{actual}, version records {expected_digest}"
            )
    try:
        meta, frames = decode_frames(blob)
    except SerializationError as exc:
        raise CheckpointCorruptError(
            f"chunk {key} failed verification: {exc}"
        ) from exc
    if len(frames) != 3:
        raise CheckpointCorruptError(
            f"chunk {key} has {len(frames)} frames, "
            "expected rows/weights/accumulator"
        )
    try:
        rows = decode_array(frames[0].payload).astype(np.int64)
        if rows.size == 0 and int(meta.get("row_base", -1)) >= 0:
            # Full-checkpoint chunk: contiguous range, ids
            # reconstructed from (row_base, row_count).
            rows = np.arange(
                int(meta["row_base"]),
                int(meta["row_base"]) + int(meta["row_count"]),
                dtype=np.int64,
            )
        obj = decode_payload(frames[1].payload)
    except SerializationError as exc:
        raise CheckpointCorruptError(
            f"chunk {key} failed verification: {exc}"
        ) from exc
    weights = (
        dequantize_tensor(obj) if isinstance(obj, QuantizedTensor) else obj
    )
    weights = np.asarray(weights, dtype=np.float32)
    if weights.ndim != 2 or weights.shape[0] != rows.shape[0]:
        raise CheckpointCorruptError(
            f"chunk {key} holds {rows.shape[0]} row ids but a "
            f"{weights.shape} weight payload"
        )
    return rows, weights
