"""Codecs for numpy arrays and quantized tensors.

Payloads are self-describing: a small JSON header (dtype, shape, and for
quantized tensors the quantizer name, bit width and parameter arrays)
followed by raw little-endian bytes. Kept independent from the frame
format so codecs can be unit-tested in isolation.

An array header depends only on ``(dtype, shape)``, and a checkpoint
writes the same few of them thousands of times, so the encoder resolves
it through one bounded cache; the decoder parses each header it meets
once and reads bodies in place (offsets into the payload, no slices).
The bytes are exactly what the uncached code wrote — the wire format has
one version (``tests/golden_wire_format.json`` pins it).
"""

from __future__ import annotations

import json
import math
import struct
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SerializationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..quant.base import QuantizedTensor

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


@lru_cache(maxsize=1024)
def _array_header(
    dtype: np.dtype, shape: tuple[int, ...]
) -> tuple[bytes, np.dtype]:
    """Header bytes and little-endian body dtype of an array payload.

    Cached because ``dtype.name`` and ``json.dumps`` cost more than
    copying a small tensor's bytes. Pool workers encode concurrently:
    ``lru_cache`` is thread-safe, and a refused dtype raises on every
    call (exceptions are not cached).
    """
    name = dtype.name
    if name not in _ALLOWED_DTYPES:
        raise SerializationError(f"refusing to encode dtype {name}")
    header = _header({"kind": "array", "dtype": name, "shape": list(shape)})
    return header, dtype.newbyteorder("<")


def _split_header(data: bytes, start: int, stop: int) -> tuple[dict, int]:
    """Parse the header of the payload at ``data[start:stop]``.

    Returns the header and the offset its body starts at.
    """
    body = start + _LEN.size
    if stop < body:
        raise SerializationError("payload too short for codec header")
    body += _LEN.unpack_from(data, start)[0]
    if stop < body:
        raise SerializationError("truncated codec header")
    try:
        header = json.loads(data[start + _LEN.size : body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt codec header: {exc}") from exc
    return header, body


def encode_array(arr: np.ndarray) -> bytes:
    """Encode an ndarray as header + raw little-endian bytes."""
    header, little_endian = _array_header(arr.dtype, arr.shape)
    # ``tobytes`` writes C order whatever the input's layout.
    return header + arr.astype(little_endian, copy=False).tobytes()


def _array_body(
    header: dict, data: bytes, start: int, stop: int
) -> np.ndarray:
    """The array whose parsed ``header`` precedes ``data[start:stop]``."""
    dtype_name = header["dtype"]
    if dtype_name not in _ALLOWED_DTYPES:
        raise SerializationError(f"refusing to decode dtype {dtype_name}")
    native = np.dtype(dtype_name)
    shape = tuple(header["shape"])
    count = math.prod(shape)
    expected = count * native.itemsize
    if stop - start != expected:
        raise SerializationError(
            f"array body is {stop - start} bytes, expected {expected}"
        )
    arr = np.frombuffer(
        data, dtype=native.newbyteorder("<"), count=count, offset=start
    )
    # The one copy: a writable, native-order array that owns its data.
    return arr.reshape(shape).astype(native, copy=True)


def decode_array(data: bytes) -> np.ndarray:
    """Decode bytes produced by :func:`encode_array`."""
    return _decode(data, 0, len(data), "array")


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
    return b"".join([header, codes, *parts])


def _quantized_body(
    header: dict, data: bytes, start: int, stop: int
) -> "QuantizedTensor":
    """The tensor whose parsed ``header`` precedes ``data[start:stop]``."""
    from ..quant.base import QuantizedTensor

    offset = start + int(header["codes_length"])
    if stop < offset:
        raise SerializationError("truncated quantized payload (codes)")
    codes = _decode(data, start, offset, "array")
    params: dict[str, np.ndarray] = {}
    for spec in header["params"]:
        end = offset + int(spec["length"])
        if stop < end:
            raise SerializationError(
                f"truncated quantized payload (param {spec['name']})"
            )
        params[spec["name"]] = _decode(data, offset, end, "array")
        offset = end
    if offset != stop:
        raise SerializationError("trailing bytes after quantized payload")
    return QuantizedTensor(
        codes=codes,
        bit_width=int(header["bit_width"]),
        shape=tuple(header["shape"]),
        quantizer=str(header["quantizer"]),
        params=params,
    )


def decode_quantized(data: bytes) -> "QuantizedTensor":
    """Decode bytes produced by :func:`encode_quantized`."""
    return _decode(data, 0, len(data), "quantized")


def encode_payload(obj: "np.ndarray | QuantizedTensor") -> bytes:
    """Encode either a raw array or a quantized tensor (dispatching)."""
    from ..quant.base import QuantizedTensor

    if isinstance(obj, QuantizedTensor):
        return encode_quantized(obj)
    if isinstance(obj, np.ndarray):
        return encode_array(obj)
    raise SerializationError(f"cannot encode object of type {type(obj)!r}")


def _decode(data: bytes, start: int, stop: int, expect: str | None = None):
    """Decode the payload at ``data[start:stop]``: one header parse,
    then the body in place. ``expect`` insists on one payload kind."""
    header, body = _split_header(data, start, stop)
    kind = header.get("kind")
    if expect is not None and kind != expect:
        raise SerializationError(f"expected {expect} payload, got {header!r}")
    if kind == "array":
        return _array_body(header, data, body, stop)
    if kind == "quantized":
        return _quantized_body(header, data, body, stop)
    raise SerializationError(f"unknown payload kind {kind!r}")


def decode_payload(data: bytes) -> "np.ndarray | QuantizedTensor":
    """Decode a payload produced by :func:`encode_payload`."""
    return _decode(data, 0, len(data))
