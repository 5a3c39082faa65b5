"""Quantizer registry: build any quantizer from config strings.

The checkpoint writer, the restore path and the benches all construct
quantizers by name; keeping the name -> class mapping in one place means
a manifest written with quantizer "adaptive" can always be decoded by
looking the name up here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import QuantizationError
from .adaptive import AdaptiveAsymmetricQuantizer
from .base import (
    Float16Quantizer,
    IdentityQuantizer,
    QuantizedTensor,
    Quantizer,
)
from .kmeans import KMeansQuantizer
from .uniform import AsymmetricQuantizer, SymmetricQuantizer


def make_quantizer(
    name: str,
    bits: int = 8,
    num_bins: int = 25,
    ratio: float = 1.0,
    kmeans_iterations: int = 15,
    seed: int = 0,
    compact_params: bool = False,
) -> Quantizer:
    """Instantiate a quantizer by registry name.

    Args:
        name: one of ``none``, ``symmetric``, ``asymmetric``,
            ``adaptive``, ``kmeans``.
        bits: bit width (ignored by ``none``, which is fp32).
        num_bins / ratio: adaptive greedy-search parameters.
        kmeans_iterations: Lloyd iterations for ``kmeans``.
        seed: initialisation seed for ``kmeans``.
        compact_params: store per-row range metadata as fp16 (the
            paper's future-work metadata optimisation; uniform and
            adaptive methods only).
    """
    if name == "none":
        return IdentityQuantizer()
    if name == "float16":
        return Float16Quantizer()
    if name == "symmetric":
        return SymmetricQuantizer(bits, compact_params=compact_params)
    if name == "asymmetric":
        return AsymmetricQuantizer(bits, compact_params=compact_params)
    if name == "adaptive":
        return AdaptiveAsymmetricQuantizer(
            bits, num_bins, ratio, compact_params=compact_params
        )
    if name == "kmeans":
        return KMeansQuantizer(bits, kmeans_iterations, seed=seed)
    raise QuantizationError(
        f"unknown quantizer {name!r}; valid: "
        "none, float16, symmetric, asymmetric, adaptive, kmeans"
    )


@lru_cache(maxsize=None)
def _decoder(name: str, bits: int) -> Quantizer:
    """The one decoder per ``(name, bit_width)``.

    Decoding reads nothing but the tensor's own params, so a decoder is
    stateless and safe to share between restores, servers and threads;
    the key space is the registry's names times eight widths. Unknown
    names raise from :func:`make_quantizer` and are not cached.
    De-quantization never re-runs the greedy search or clustering, so
    the registry's default search parameters serve every stored tensor.
    """
    return make_quantizer(name, bits=bits)


def dequantize_tensor(qt: "QuantizedTensor") -> "np.ndarray":
    """De-quantize a self-describing :class:`QuantizedTensor`.

    The tensor records which quantizer produced it, so the restore path
    needs no out-of-band information beyond the payload itself.
    """
    return _decoder(qt.quantizer, qt.bit_width).dequantize(qt)
