"""Sub-byte bit-packing for quantization codes.

N-bit quantization (N in 1..8) produces integer codes in [0, 2^N - 1].
Storing each code in a full byte would forfeit most of the bandwidth
savings the paper is after, so codes are packed densely: 2-bit codes use
a quarter byte each, 3-bit codes 3/8 of a byte, and so on. The widths
that divide a byte (1, 2, 4) pack with one shift-and-OR per slot; 3, 5,
6 and 7 bits straddle bytes and go through numpy's bit routines.
"""

from __future__ import annotations

import numpy as np

from ..errors import PackingError

#: Widths supported by the packer (the paper evaluates 2, 3, 4 and 8).
SUPPORTED_BITS = tuple(range(1, 9))


def _validate_bits(bits: int) -> None:
    if bits not in SUPPORTED_BITS:
        raise PackingError(
            f"unsupported bit width {bits}; supported: {SUPPORTED_BITS}"
        )


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to pack ``count`` codes of ``bits`` bits each."""
    _validate_bits(bits)
    if count < 0:
        raise PackingError(f"negative code count {count}")
    return (count * bits + 7) // 8


def pack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack integer codes into a dense uint8 array (MSB-first).

    ``codes`` may have any shape; packing operates on the flattened,
    C-ordered view. Codes outside [0, 2^bits) are rejected — silent
    wrap-around would corrupt checkpoints undetectably.
    """
    _validate_bits(bits)
    flat = np.ascontiguousarray(codes).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint8)
    # One scan for the codes every quantizer emits: an unsigned dtype
    # cannot go negative, so only its max needs looking at.
    top = flat.max()
    signed = flat.dtype.kind not in "ub"
    if top >= (1 << bits) or (signed and flat.min() < 0):
        raise PackingError(
            f"codes out of range for {bits}-bit packing: "
            f"[{flat.min()}, {top}]"
        )
    if bits == 8:  # fast path: codes already are full bytes
        return flat.astype(np.uint8)
    as_bytes = flat.astype(np.uint8, copy=False)
    if 8 % bits == 0:
        # Byte-dividing widths: code i of each byte is a strided lane,
        # shifted into its slot and OR-ed in. A short final lane leaves
        # the pad bits of the last byte zero.
        per_byte = 8 // bits
        packed = np.zeros(packed_size(flat.size, bits), dtype=np.uint8)
        shifted = np.empty_like(packed)
        for slot in range(per_byte):
            lane = as_bytes[slot::per_byte]
            shift = 8 - bits * (slot + 1)
            if shift:
                lane = np.left_shift(lane, shift, out=shifted[: lane.size])
            np.bitwise_or(
                packed[: lane.size], lane, out=packed[: lane.size]
            )
        return packed
    bit_rows = np.unpackbits(as_bytes.reshape(-1, 1), axis=1)  # MSB first
    wanted = bit_rows[:, 8 - bits :]  # low `bits` bits of each code
    return np.packbits(wanted.reshape(-1))


def unpack_bits(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits`: recover ``count`` codes as uint8.

    ``count`` must be supplied because trailing pad bits in the final
    byte are indistinguishable from real zero codes.
    """
    _validate_bits(bits)
    if count < 0:
        raise PackingError(f"negative code count {count}")
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    needed = packed_size(count, bits)
    if packed.size < needed:
        raise PackingError(
            f"packed buffer too small: {packed.size} bytes for "
            f"{count} x {bits}-bit codes (need {needed})"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint8)
    if bits == 8:  # fast path mirrors pack_bits
        return packed[:count].copy()
    if 8 % bits == 0:
        # Mirror of the pack_bits lanes: shift slot i down, mask it.
        per_byte = 8 // bits
        codes = np.empty(count, dtype=np.uint8)
        for slot in range(per_byte):
            lane = codes[slot::per_byte]
            shift = 8 - bits * (slot + 1)
            np.right_shift(packed[: lane.size], shift, out=lane)
            if slot:  # slot 0 has nothing above it
                np.bitwise_and(lane, (1 << bits) - 1, out=lane)
        return codes
    bit_stream = np.unpackbits(packed[:needed])[: count * bits]
    groups = bit_stream.reshape(count, bits)
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - bits :] = groups
    return np.packbits(padded, axis=1).reshape(-1)


def pack_rows(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack a 2-D code matrix row-contiguously (still one flat buffer).

    Row-contiguous packing means a chunk of rows can be sliced out of the
    packed buffer without unpacking everything — required by the chunked
    checkpoint writer — *provided* ``row_bits = cols * bits`` is a
    multiple of 8. The writer picks chunk boundaries accordingly; this
    helper exists so that alignment logic lives in exactly one place.
    """
    if codes.ndim != 2:
        raise PackingError(f"pack_rows expects 2-D codes, got {codes.ndim}-D")
    return pack_bits(codes, bits)


def unpack_rows(
    packed: np.ndarray, bits: int, rows: int, cols: int
) -> np.ndarray:
    """Invert :func:`pack_rows` into a (rows, cols) uint8 matrix."""
    if rows < 0 or cols < 0:
        raise PackingError("rows and cols must be non-negative")
    flat = unpack_bits(packed, bits, rows * cols)
    return flat.reshape(rows, cols)
