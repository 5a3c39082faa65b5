"""Pre-PR-17 codec and frame format, kept verbatim as the test oracle.

These are the bodies ``src/repro/serialize/codec.py`` and
``src/repro/serialize/format.py`` shipped before the cached-header
encoders and the flat frame functions replaced them: a
``json.dumps(sort_keys=True)`` header per call, ``dtype.name`` looked
up every time, and ``FrameWriter`` / ``FrameReader`` streaming through
a ``BytesIO``. They define what "byte-identical" means for
``tests/test_serialize_differential.py`` — same stored bytes, same
decoded values, same ``SerializationError`` messages — and must not be
edited to follow the shipped code. Only the error type is imported.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Iterator

import numpy as np

from repro.errors import SerializationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quant.base import QuantizedTensor

# ----------------------------------------------------------------------
# serialize/codec.py
# ----------------------------------------------------------------------

_LEN = struct.Struct(">I")

#: dtypes the codec will round-trip; checkpoints only ever contain these.
_ALLOWED_DTYPES = {
    "float64",
    "float32",
    "float16",
    "int64",
    "int32",
    "int16",
    "uint8",
    "int8",
    "bool",
}


def _header(blob: dict) -> bytes:
    encoded = json.dumps(blob, sort_keys=True).encode("utf-8")
    return _LEN.pack(len(encoded)) + encoded


def _split_header(data: bytes) -> tuple[dict, bytes]:
    if len(data) < _LEN.size:
        raise SerializationError("payload too short for codec header")
    (length,) = _LEN.unpack(data[: _LEN.size])
    end = _LEN.size + length
    if len(data) < end:
        raise SerializationError("truncated codec header")
    try:
        header = json.loads(data[_LEN.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt codec header: {exc}") from exc
    return header, data[end:]


def encode_array(arr: np.ndarray) -> bytes:
    """Encode an ndarray as header + raw little-endian bytes."""
    dtype = np.dtype(arr.dtype)
    if dtype.name not in _ALLOWED_DTYPES:
        raise SerializationError(f"refusing to encode dtype {dtype.name}")
    contiguous = np.ascontiguousarray(arr)
    le = contiguous.astype(dtype.newbyteorder("<"), copy=False)
    header = _header(
        {"kind": "array", "dtype": dtype.name, "shape": list(arr.shape)}
    )
    return header + le.tobytes()


def decode_array(data: bytes) -> np.ndarray:
    """Decode bytes produced by :func:`encode_array`."""
    header, body = _split_header(data)
    if header.get("kind") != "array":
        raise SerializationError(f"expected array payload, got {header!r}")
    dtype_name = header["dtype"]
    if dtype_name not in _ALLOWED_DTYPES:
        raise SerializationError(f"refusing to decode dtype {dtype_name}")
    dtype = np.dtype(dtype_name).newbyteorder("<")
    shape = tuple(header["shape"])
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if len(body) != expected:
        raise SerializationError(
            f"array body is {len(body)} bytes, expected {expected}"
        )
    arr = np.frombuffer(body, dtype=dtype).reshape(shape)
    return arr.astype(np.dtype(dtype_name), copy=True)


def encode_quantized(qt: "QuantizedTensor") -> bytes:
    """Encode a quantized tensor: header + packed codes + param arrays."""
    parts: list[bytes] = []
    param_specs: list[dict] = []
    for name in sorted(qt.params):
        payload = encode_array(qt.params[name])
        param_specs.append({"name": name, "length": len(payload)})
        parts.append(payload)
    codes = encode_array(qt.codes)
    header = _header(
        {
            "kind": "quantized",
            "quantizer": qt.quantizer,
            "bit_width": qt.bit_width,
            "shape": list(qt.shape),
            "codes_length": len(codes),
            "params": param_specs,
        }
    )
    return header + codes + b"".join(parts)


def decode_quantized(data: bytes) -> "QuantizedTensor":
    """Decode bytes produced by :func:`encode_quantized`."""
    from repro.quant.base import QuantizedTensor

    header, body = _split_header(data)
    if header.get("kind") != "quantized":
        raise SerializationError(
            f"expected quantized payload, got {header!r}"
        )
    codes_length = int(header["codes_length"])
    if len(body) < codes_length:
        raise SerializationError("truncated quantized payload (codes)")
    codes = decode_array(body[:codes_length])
    offset = codes_length
    params: dict[str, np.ndarray] = {}
    for spec in header["params"]:
        length = int(spec["length"])
        segment = body[offset : offset + length]
        if len(segment) != length:
            raise SerializationError(
                f"truncated quantized payload (param {spec['name']})"
            )
        params[spec["name"]] = decode_array(segment)
        offset += length
    if offset != len(body):
        raise SerializationError("trailing bytes after quantized payload")
    return QuantizedTensor(
        codes=codes,
        bit_width=int(header["bit_width"]),
        shape=tuple(header["shape"]),
        quantizer=str(header["quantizer"]),
        params=params,
    )


def encode_payload(obj: "np.ndarray | QuantizedTensor") -> bytes:
    """Encode either a raw array or a quantized tensor (dispatching)."""
    from repro.quant.base import QuantizedTensor

    if isinstance(obj, QuantizedTensor):
        return encode_quantized(obj)
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    raise SerializationError(f"cannot encode object of type {type(obj)!r}")


def decode_payload(data: bytes) -> "np.ndarray | QuantizedTensor":
    """Decode a payload produced by :func:`encode_payload`."""
    header, _ = _split_header(data)
    kind = header.get("kind")
    if kind == "array":
        return decode_array(data)
    if kind == "quantized":
        return decode_quantized(data)
    raise SerializationError(f"unknown payload kind {kind!r}")


# ----------------------------------------------------------------------
# serialize/format.py
# ----------------------------------------------------------------------

MAGIC = b"CNR1"
CHUNK_MAGIC = b"CHNK"
END_MAGIC = b"CEND"
VERSION = 1

_HEADER_FMT = struct.Struct(">HI")  # version, meta_len
_CHUNK_FMT = struct.Struct(">IQI")  # chunk_id, payload_len, crc32
_END_FMT = struct.Struct(">II")  # num_chunks, ids_crc


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class Chunk:
    """One verified chunk read back from a frame stream."""

    chunk_id: int
    payload: bytes


class FrameWriter:
    """Streams frames to a binary file-like object.

    Usage::

        writer = FrameWriter(stream)
        writer.write_header({"checkpoint_id": "ckpt-3"})
        writer.write_chunk(0, payload)
        writer.finish()
    """

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._chunk_ids: list[int] = []
        self._header_written = False
        self._finished = False
        self.bytes_written = 0

    def write_header(self, meta: dict) -> int:
        """Write the header frame; returns bytes written."""
        if self._header_written:
            raise SerializationError("header already written")
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        out = MAGIC + _HEADER_FMT.pack(VERSION, len(blob)) + blob
        self._stream.write(out)
        self._header_written = True
        self.bytes_written += len(out)
        return len(out)

    def write_chunk(self, chunk_id: int, payload: bytes) -> int:
        """Write one chunk frame; returns bytes written."""
        if not self._header_written:
            raise SerializationError("write_header must precede chunks")
        if self._finished:
            raise SerializationError("writer already finished")
        if chunk_id < 0 or chunk_id > 0xFFFFFFFF:
            raise SerializationError(f"chunk_id {chunk_id} out of range")
        out = CHUNK_MAGIC + _CHUNK_FMT.pack(
            chunk_id, len(payload), _crc(payload)
        )
        self._stream.write(out)
        self._stream.write(payload)
        self._chunk_ids.append(chunk_id)
        written = len(out) + len(payload)
        self.bytes_written += written
        return written

    def finish(self) -> int:
        """Write the end frame; returns bytes written."""
        if not self._header_written:
            raise SerializationError("cannot finish before header")
        if self._finished:
            raise SerializationError("writer already finished")
        ids_blob = b"".join(struct.pack(">I", i) for i in self._chunk_ids)
        out = END_MAGIC + _END_FMT.pack(len(self._chunk_ids), _crc(ids_blob))
        self._stream.write(out)
        self._finished = True
        self.bytes_written += len(out)
        return len(out)


class FrameReader:
    """Reads and verifies frames produced by :class:`FrameWriter`."""

    def __init__(self, stream: BinaryIO) -> None:
        self._stream = stream
        self._meta: dict | None = None

    def _read_exact(self, n: int, what: str) -> bytes:
        data = self._stream.read(n)
        if len(data) != n:
            raise SerializationError(
                f"truncated stream while reading {what} "
                f"(wanted {n} bytes, got {len(data)})"
            )
        return data

    def read_header(self) -> dict:
        """Read and return the header metadata dict."""
        magic = self._read_exact(len(MAGIC), "magic")
        if magic != MAGIC:
            raise SerializationError(f"bad magic {magic!r}; not a CNR frame")
        version, meta_len = _HEADER_FMT.unpack(
            self._read_exact(_HEADER_FMT.size, "header")
        )
        if version != VERSION:
            raise SerializationError(f"unsupported frame version {version}")
        blob = self._read_exact(meta_len, "metadata")
        try:
            self._meta = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"corrupt metadata: {exc}") from exc
        return self._meta

    def iter_chunks(self) -> Iterator[Chunk]:
        """Yield verified chunks; raises on CRC mismatch or truncation."""
        if self._meta is None:
            self.read_header()
        seen_ids: list[int] = []
        while True:
            magic = self._read_exact(4, "chunk magic")
            if magic == END_MAGIC:
                num_chunks, ids_crc = _END_FMT.unpack(
                    self._read_exact(_END_FMT.size, "end frame")
                )
                if num_chunks != len(seen_ids):
                    raise SerializationError(
                        f"end frame declares {num_chunks} chunks, "
                        f"stream contained {len(seen_ids)}"
                    )
                ids_blob = b"".join(struct.pack(">I", i) for i in seen_ids)
                if _crc(ids_blob) != ids_crc:
                    raise SerializationError("chunk id list CRC mismatch")
                return
            if magic != CHUNK_MAGIC:
                raise SerializationError(f"bad chunk magic {magic!r}")
            chunk_id, payload_len, crc = _CHUNK_FMT.unpack(
                self._read_exact(_CHUNK_FMT.size, "chunk header")
            )
            payload = self._read_exact(payload_len, f"chunk {chunk_id}")
            if _crc(payload) != crc:
                raise SerializationError(
                    f"chunk {chunk_id} CRC mismatch (corrupt payload)"
                )
            seen_ids.append(chunk_id)
            yield Chunk(chunk_id, payload)


def encode_frames(meta: dict, chunks: list[tuple[int, bytes]]) -> bytes:
    """One-shot encode: header + chunks + end frame into a bytes blob."""
    buf = io.BytesIO()
    writer = FrameWriter(buf)
    writer.write_header(meta)
    for chunk_id, payload in chunks:
        writer.write_chunk(chunk_id, payload)
    writer.finish()
    return buf.getvalue()


def decode_frames(data: bytes) -> tuple[dict, list[Chunk]]:
    """One-shot decode: returns (meta, chunks); raises on any corruption."""
    reader = FrameReader(io.BytesIO(data))
    meta = reader.read_header()
    return meta, list(reader.iter_chunks())
