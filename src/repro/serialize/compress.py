"""Generic byte compressors — the paper's negative baseline.

Section 1 of the paper reports that Zstandard recovers at most ~7% on
recommendation-model checkpoints, which motivates quantization instead.
Zstandard is not available offline, so we substitute:

* :class:`DeflateCompressor` — zlib/DEFLATE from the standard library, the
  closest widely deployed general-purpose codec (the substitution
  ``benchmarks/test_t02_generic_compression.py`` measures).
* :class:`RleCompressor` — a from-scratch run-length codec over repeated
  bytes; useful as a worst-case generic baseline and fully self-contained.

Both operate on raw checkpoint bytes and are exercised by the
``tab-zstd`` bench to confirm the paper's "generic compression doesn't
help" observation on trained fp32 embedding data.
"""

from __future__ import annotations

import struct
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..errors import SerializationError


@dataclass(frozen=True)
class CompressionReport:
    """Outcome of compressing one payload."""

    original_bytes: int
    compressed_bytes: int

    @property
    def ratio(self) -> float:
        """compressed / original; 1.0 means no savings."""
        if self.original_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.original_bytes

    @property
    def savings(self) -> float:
        """Fractional size reduction (paper quotes <= 0.07 for Zstd)."""
        return 1.0 - self.ratio


class Compressor(ABC):
    """A reversible bytes -> bytes codec."""

    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; output must round-trip via ``decompress``."""

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Invert :meth:`compress`."""

    def report(self, data: bytes) -> CompressionReport:
        """Compress and report sizes without keeping the output."""
        return CompressionReport(len(data), len(self.compress(data)))


class DeflateCompressor(Compressor):
    """DEFLATE (zlib) — stands in for Zstandard in the paper's baseline."""

    name = "deflate"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise SerializationError(f"invalid deflate level {level}")
        self._level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self._level)

    def decompress(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise SerializationError(f"corrupt deflate stream: {exc}") from exc


class RleCompressor(Compressor):
    """Byte-level run-length encoding, implemented from scratch.

    Format: a sequence of ``(u8 count, u8 value)`` pairs for runs, with a
    literal-block escape for incompressible spans::

        0x00 | u16 length | raw bytes      (literal block)
        count>=1 | value                   (run of `count` copies)

    fp32 training weights have almost no repeated bytes, so this codec
    demonstrates the generic-compression failure mode even more starkly
    than DEFLATE.
    """

    name = "rle"

    _LITERAL = 0x00
    _MAX_RUN = 255
    _MAX_LITERAL = 0xFFFF

    def compress(self, data: bytes) -> bytes:
        out = bytearray()
        literal = bytearray()

        def flush_literal() -> None:
            start = 0
            while start < len(literal):
                block = literal[start : start + self._MAX_LITERAL]
                out.append(self._LITERAL)
                out.extend(struct.pack(">H", len(block)))
                out.extend(block)
                start += len(block)
            literal.clear()

        i = 0
        n = len(data)
        while i < n:
            run = 1
            while (
                i + run < n
                and data[i + run] == data[i]
                and run < self._MAX_RUN
            ):
                run += 1
            if run >= 4:  # runs shorter than 4 cost more than literals
                flush_literal()
                out.append(run)
                out.append(data[i])
            else:
                literal += data[i : i + run]
            i += run
        flush_literal()
        return bytes(out)

    def decompress(self, data: bytes) -> bytes:
        out = bytearray()
        i = 0
        n = len(data)
        while i < n:
            tag = data[i]
            i += 1
            if tag == self._LITERAL:
                if i + 2 > n:
                    raise SerializationError("truncated RLE literal header")
                (length,) = struct.unpack(">H", data[i : i + 2])
                i += 2
                if i + length > n:
                    raise SerializationError("truncated RLE literal block")
                out += data[i : i + length]
                i += length
            else:
                if i >= n:
                    raise SerializationError("truncated RLE run")
                out += bytes([data[i]]) * tag
                i += 1
        return bytes(out)


_COMPRESSORS = {
    "deflate": DeflateCompressor,
    "rle": RleCompressor,
}


def make_compressor(name: str, **kwargs: object) -> Compressor:
    """Instantiate a compressor by name ('deflate' or 'rle')."""
    try:
        factory = _COMPRESSORS[name]
    except KeyError:
        raise SerializationError(
            f"unknown compressor {name!r}; valid: {sorted(_COMPRESSORS)}"
        ) from None
    return factory(**kwargs)  # type: ignore[arg-type]
