"""Quantizer interface and the quantized-tensor value object.

A :class:`Quantizer` converts a 2-D fp32 tensor (embedding rows x dim)
into a :class:`QuantizedTensor` — densely packed integer codes plus the
per-row parameters needed to de-quantize (scale/zero-point for uniform
methods, a codebook for k-means). De-quantization is lossy by design;
the paper's whole argument is that the loss is tolerable for checkpoints
because training itself continues in full precision.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import QuantizationError
from .packing import pack_rows, packed_size, unpack_rows


@dataclass
class QuantizedTensor:
    """Packed quantization codes plus de-quantization parameters.

    Attributes:
        codes: dense uint8 buffer of packed ``bit_width``-bit codes.
        bit_width: bits per element code.
        shape: original (rows, dim) of the quantized tensor.
        quantizer: name of the quantizer that produced this tensor.
        params: per-row parameter arrays (e.g. ``xmin``/``xmax`` or
            ``codebook``), each with leading dimension == rows.
    """

    codes: np.ndarray
    bit_width: int
    shape: tuple[int, ...]
    quantizer: str
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.shape) != 2:
            raise QuantizationError(
                f"QuantizedTensor is 2-D only, got shape {self.shape}"
            )
        rows, dim = self.shape
        expected = packed_size(rows * dim, self.bit_width)
        if self.codes.size != expected:
            raise QuantizationError(
                f"packed codes are {self.codes.size} bytes; "
                f"{rows}x{dim} at {self.bit_width} bits needs {expected}"
            )
        for name, arr in self.params.items():
            if arr.shape[0] != rows:
                raise QuantizationError(
                    f"param {name!r} has leading dim {arr.shape[0]}, "
                    f"expected rows={rows}"
                )

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def dim(self) -> int:
        return self.shape[1]

    def unpacked_codes(self) -> np.ndarray:
        """Codes as a (rows, dim) uint8 matrix."""
        return unpack_rows(self.codes, self.bit_width, *self.shape)

    @property
    def code_bytes(self) -> int:
        """Bytes spent on packed codes."""
        return int(self.codes.size)

    @property
    def param_bytes(self) -> int:
        """Bytes spent on de-quantization parameters (metadata)."""
        return int(sum(a.nbytes for a in self.params.values()))

    @property
    def nbytes(self) -> int:
        """Total storage footprint: codes + parameters.

        The paper notes (section 6.3.2) that savings are sub-linear in
        bit width because of exactly this metadata term.
        """
        return self.code_bytes + self.param_bytes

    @property
    def original_nbytes(self) -> int:
        """fp32 bytes the un-quantized tensor would occupy."""
        return self.rows * self.dim * 4

    @property
    def compression_ratio(self) -> float:
        """original / quantized size; > 1 means savings."""
        if self.nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.nbytes


class Quantizer(ABC):
    """Lossy 2-D tensor codec with a stable name and bit width."""

    #: registry name, overridden by concrete classes
    name: str = "abstract"

    def __init__(self, bits: int) -> None:
        if not 1 <= bits <= 8:
            raise QuantizationError(
                f"bit width must be in [1, 8], got {bits}"
            )
        self.bits = bits

    @abstractmethod
    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        """Quantize a (rows, dim) fp32 tensor."""

    @abstractmethod
    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        """Reconstruct an fp32 (rows, dim) tensor from codes + params."""

    def quantize_many(
        self, tensors: Sequence[np.ndarray]
    ) -> list[QuantizedTensor]:
        """Quantize each tensor exactly as its own :meth:`quantize` call
        would, through one call on all their rows.

        A call has a fixed cost however few rows it gets (the adaptive
        search is two dozen iterations of a few dozen numpy calls), so
        many small tensors are stacked into one and the result is split
        back: codes unpacked once and re-packed per piece (a piece need
        not end on a byte), params row-sliced. That is only the same as
        one call per tensor because a row's codes and params depend on
        that row alone; a quantizer for which they do not overrides
        this. One tensor goes straight to :meth:`quantize`, uncopied.
        """
        if len(tensors) == 1:
            return [self.quantize(tensors[0])]
        if any(tensor.size == 0 for tensor in tensors):
            raise QuantizationError("cannot quantize an empty tensor")
        whole = self.quantize(np.concatenate(tensors))
        codes = whole.unpacked_codes()
        pieces = []
        start = 0
        for tensor in tensors:
            rows = slice(start, start + tensor.shape[0])
            pieces.append(
                QuantizedTensor(
                    codes=pack_rows(codes[rows], whole.bit_width),
                    bit_width=whole.bit_width,
                    shape=(tensor.shape[0], whole.dim),
                    quantizer=whole.quantizer,
                    params={
                        name: value[rows]
                        for name, value in whole.params.items()
                    },
                )
            )
            start = rows.stop
        return pieces

    def roundtrip(self, tensor: np.ndarray) -> np.ndarray:
        """Quantize then de-quantize (the restore path's value error)."""
        return self.dequantize(self.quantize(tensor))

    def _check_input(self, tensor: np.ndarray) -> np.ndarray:
        if tensor.ndim != 2:
            raise QuantizationError(
                f"quantizers operate on 2-D tensors, got {tensor.ndim}-D"
            )
        if tensor.size == 0:
            raise QuantizationError("cannot quantize an empty tensor")
        if not np.all(np.isfinite(tensor)):
            raise QuantizationError(
                "tensor contains non-finite values; refusing to quantize"
            )
        return np.ascontiguousarray(tensor, dtype=np.float32)

    def _check_dequant_input(self, qt: QuantizedTensor) -> None:
        if qt.quantizer != self.name:
            raise QuantizationError(
                f"{self.name} quantizer cannot decode a tensor produced "
                f"by {qt.quantizer!r}"
            )
        if qt.bit_width != self.bits:
            raise QuantizationError(
                f"bit-width mismatch: quantizer={self.bits}, "
                f"tensor={qt.bit_width}"
            )


class Float16Quantizer(Quantizer):
    """Half-precision cast: 2x smaller, deterministic, metadata-free.

    The 16-bit rung between the paper's 4/8-bit adaptive codes and the
    fp32 baseline. De-quantization is the exact inverse cast, so the
    restore-path value is bit-for-bit ``x.astype(f16).astype(f32)`` —
    useful for fleets that want guaranteed-tiny error without per-row
    parameters. Codes hold the raw fp16 bytes (2 per element), so the
    storage accounting stays uniform across quantizers.
    """

    name = "float16"

    def __init__(self) -> None:
        super().__init__(bits=8)  # codes are byte-packed fp16 halves

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        halves = x.astype(np.float16)
        return QuantizedTensor(
            codes=halves.view(np.uint8).reshape(-1).copy(),
            bit_width=8,
            shape=(x.shape[0], x.shape[1] * 2),  # 2 code bytes per fp16
            quantizer=self.name,
        )

    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        self._check_dequant_input(qt)
        raw = np.ascontiguousarray(qt.codes, dtype=np.uint8)
        return (
            raw.view(np.float16)
            .reshape(qt.rows, qt.dim // 2)
            .astype(np.float32)
        )


class IdentityQuantizer(Quantizer):
    """The 'none' quantizer: full-precision fp32 pass-through.

    Serves as the paper's no-quantization baseline. Codes hold the raw
    fp32 bytes re-interpreted as uint8 so the storage accounting is
    uniform across quantizers.
    """

    name = "none"

    def __init__(self) -> None:
        super().__init__(bits=8)

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        return QuantizedTensor(
            codes=x.view(np.uint8).reshape(-1).copy(),
            bit_width=8,
            shape=(x.shape[0], x.shape[1] * 4),  # 4 code bytes per fp32
            quantizer=self.name,
        )

    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        self._check_dequant_input(qt)
        raw = np.ascontiguousarray(qt.codes, dtype=np.uint8)
        return (
            raw.view(np.float32)
            .reshape(qt.rows, qt.dim // 4)
            .astype(np.float32, copy=True)
        )
