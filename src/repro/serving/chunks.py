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

:class:`DecodedChunkCache` is what the serving plane shares between its
servers: the *decode* of bytes a reader has just verified. A locator
points many rows, and every server, at the same few chunk objects, so
without it each miss unframes, unpacks and dequantizes a whole chunk to
serve one row. The cache is keyed by content digest and consulted only
after the caller's own bytes hashed to that digest, so it can never
vouch for bytes nobody checked.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..core.integrity import sha256_hex
from ..errors import CheckpointCorruptError, SerializationError
from ..quant.base import QuantizedTensor
from ..quant.registry import dequantize_tensor
from ..serialize.codec import decode_array, decode_payload
from ..serialize.format import decode_frames


#: Decoded bytes a :class:`DecodedChunkCache` keeps: room for three
#: chunks of the default shape (``chunk_rows`` 65 536 x ``embedding_dim``
#: 16 fp32 + int64 ids = 4.5 MiB each), thousands of the small chunks
#: the serving experiments use. A chunk larger than this is decoded per
#: read, as before.
DECODED_CACHE_BYTES = 16 * 2**20


def verify_chunk_digest(key: str, blob: bytes, expected_digest: str) -> None:
    """Raise :class:`CheckpointCorruptError` unless ``blob`` hashes to it."""
    actual = sha256_hex(blob)
    if actual != expected_digest:
        raise CheckpointCorruptError(
            f"chunk {key} digest mismatch: stored bytes hash "
            f"{actual}, version records {expected_digest}"
        )


def decode_chunk_rows(
    key: str, blob: bytes, expected_digest: str
) -> tuple[np.ndarray, np.ndarray]:
    """Verify and decode one chunk object into ``(row_ids, weights)``.

    ``row_ids`` is int64, ``weights`` is float32 of shape
    ``(len(row_ids), embedding_dim)``; ``weights[i]`` is the value of
    ``row_ids[i]``. Raises :class:`CheckpointCorruptError` on a digest
    mismatch or any structural decode failure — the serving layer turns
    that into a fallback to an older published version.
    """
    verify_chunk_digest(key, blob, expected_digest)
    return _decode_verified(key, blob)


def _decode_verified(key: str, blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """:func:`decode_chunk_rows` of bytes the caller already hashed."""
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


class DecodedChunkCache:
    """Content-addressed ``digest -> (row_ids, weights)`` of verified chunks.

    One per serving plane. GETs, hashing, row caches and simulated time
    stay per server; only the pure decode of identical bytes is shared.
    Oldest-decoded entries fall out once ``budget_bytes`` of decoded
    arrays are held.
    """

    def __init__(self) -> None:
        self.budget_bytes = DECODED_CACHE_BYTES
        self.held_bytes = 0
        #: Times :func:`decode_chunk_rows` actually ran.
        self.decodes = 0
        self._chunks: OrderedDict[
            str, tuple[np.ndarray, np.ndarray]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._chunks)

    def decode(
        self, key: str, blob: bytes, expected_digest: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`decode_chunk_rows`, read-only and decoded once per digest.

        ``blob`` is hashed once on every call — the digest checked is
        that of the bytes just read, never of the key — and only a
        passing check may be answered from an earlier decode.
        """
        verify_chunk_digest(key, blob, expected_digest)
        cached = self._chunks.get(expected_digest)
        if cached is not None:
            return cached
        decoded = _decode_verified(key, blob)
        self.decodes += 1
        for array in decoded:
            array.setflags(write=False)
        size = sum(array.nbytes for array in decoded)
        if size <= self.budget_bytes:
            self._chunks[expected_digest] = decoded
            self.held_bytes += size
            while self.held_bytes > self.budget_bytes:
                _, evicted = self._chunks.popitem(last=False)
                self.held_bytes -= sum(a.nbytes for a in evicted)
        return decoded
