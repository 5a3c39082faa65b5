"""Chunked binary checkpoint framing with CRC32 integrity.

Checkpoint payloads are stored as a sequence of self-describing frames::

    MAGIC "CNR1" | u16 version | u32 meta_len | meta (UTF-8 JSON)
    for each chunk:
        "CHNK" | u32 chunk_id | u64 payload_len | u32 crc32 | payload
    "CEND" | u32 num_chunks | u32 crc_of_chunk_ids

The format is deliberately simple: every chunk is independently
verifiable on restore, and a frame is small enough (one checkpoint
chunk, or the dense state) to be built and checked in one pass over
bytes — there is one encoder and one decoder, both flat functions.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache

from ..errors import SerializationError

MAGIC = b"CNR1"
CHUNK_MAGIC = b"CHNK"
END_MAGIC = b"CEND"
VERSION = 1

_HEADER_FMT = struct.Struct(">4sHI")  # magic, version, meta_len
_CHUNK_FMT = struct.Struct(">4sIQI")  # magic, chunk_id, payload_len, crc32
_END_FMT = struct.Struct(">4sII")  # magic, num_chunks, ids_crc


@dataclass(frozen=True)
class Chunk:
    """One verified chunk read back from a frame stream."""

    chunk_id: int
    payload: bytes


def _header_frame(meta: dict) -> bytes:
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    return _HEADER_FMT.pack(MAGIC, VERSION, len(blob)) + blob


def _ids_crc(chunk_ids: list[int]) -> int:
    return zlib.crc32(struct.pack(f">{len(chunk_ids)}I", *chunk_ids))


def _end_frame(chunk_ids: list[int]) -> bytes:
    return _END_FMT.pack(END_MAGIC, len(chunk_ids), _ids_crc(chunk_ids))


def _chunk_head(chunk_id: int, payload: bytes) -> bytes:
    return _CHUNK_FMT.pack(
        CHUNK_MAGIC, chunk_id, len(payload), zlib.crc32(payload)
    )


def encode_frames(meta: dict, chunks: list[tuple[int, bytes]]) -> bytes:
    """One-shot encode: header + chunks + end frame into a bytes blob."""
    parts = [_header_frame(meta)]
    chunk_ids: list[int] = []
    for chunk_id, payload in chunks:
        if chunk_id < 0 or chunk_id > 0xFFFFFFFF:
            raise SerializationError(f"chunk_id {chunk_id} out of range")
        parts += (_chunk_head(chunk_id, payload), payload)
        chunk_ids.append(chunk_id)
    parts.append(_end_frame(chunk_ids))
    return b"".join(parts)


@lru_cache(maxsize=1024)
def _named_frame_ends(name: str) -> tuple[bytes, bytes]:
    """Header and end frame of a one-chunk ``{"name": name}`` frame."""
    return _header_frame({"name": name}), _end_frame([0])


def encode_named_frame(name: str, payload: bytes) -> bytes:
    """``encode_frames({"name": name}, [(0, payload)])``, byte for byte.

    The dense state is one such frame per tensor, around the same
    tensor names in every checkpoint; with the two ends cached a frame
    costs one CRC, one ``pack`` and one join. Safe to call from pool
    workers (``lru_cache`` is thread-safe).
    """
    header, end = _named_frame_ends(name)
    return b"".join((header, _chunk_head(0, payload), payload, end))


def _truncated(what: str, wanted: int, got: int) -> SerializationError:
    return SerializationError(
        f"truncated stream while reading {what} "
        f"(wanted {wanted} bytes, got {got})"
    )


def decode_frames(data: bytes) -> tuple[dict, list[Chunk]]:
    """One-shot decode: returns (meta, chunks); raises on any corruption."""
    data = bytes(data)
    size = len(data)
    if size < len(MAGIC):
        raise _truncated("magic", len(MAGIC), size)
    if not data.startswith(MAGIC):
        raise SerializationError(
            f"bad magic {data[: len(MAGIC)]!r}; not a CNR frame"
        )
    pos = _HEADER_FMT.size
    if size < pos:
        raise _truncated("header", pos - len(MAGIC), size - len(MAGIC))
    _, version, meta_len = _HEADER_FMT.unpack_from(data)
    if version != VERSION:
        raise SerializationError(f"unsupported frame version {version}")
    if size - pos < meta_len:
        raise _truncated("metadata", meta_len, size - pos)
    try:
        meta = json.loads(data[pos : pos + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt metadata: {exc}") from exc
    pos += meta_len

    chunks: list[Chunk] = []
    while True:
        if size - pos < 4:
            raise _truncated("chunk magic", 4, size - pos)
        magic = data[pos : pos + 4]
        if magic == END_MAGIC:
            break
        if magic != CHUNK_MAGIC:
            raise SerializationError(f"bad chunk magic {magic!r}")
        body = pos + _CHUNK_FMT.size
        if size < body:
            raise _truncated("chunk header", body - pos - 4, size - pos - 4)
        _, chunk_id, payload_len, crc = _CHUNK_FMT.unpack_from(data, pos)
        if size - body < payload_len:
            raise _truncated(f"chunk {chunk_id}", payload_len, size - body)
        pos = body + payload_len
        payload = data[body:pos]
        if zlib.crc32(payload) != crc:
            raise SerializationError(
                f"chunk {chunk_id} CRC mismatch (corrupt payload)"
            )
        chunks.append(Chunk(chunk_id, payload))

    if size < pos + _END_FMT.size:
        raise _truncated("end frame", _END_FMT.size - 4, size - pos - 4)
    _, num_chunks, ids_crc = _END_FMT.unpack_from(data, pos)
    if num_chunks != len(chunks):
        raise SerializationError(
            f"end frame declares {num_chunks} chunks, "
            f"stream contained {len(chunks)}"
        )
    if _ids_crc([c.chunk_id for c in chunks]) != ids_crc:
        raise SerializationError("chunk id list CRC mismatch")
    return meta, chunks
