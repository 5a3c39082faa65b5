"""Checkpoint quantization library (paper section 5.2).

Public surface:

* :class:`~repro.quant.base.Quantizer` / :class:`~repro.quant.base.QuantizedTensor`
* Uniform methods: :class:`~repro.quant.uniform.SymmetricQuantizer`,
  :class:`~repro.quant.uniform.AsymmetricQuantizer`
* :class:`~repro.quant.adaptive.AdaptiveAsymmetricQuantizer` (greedy search)
* :class:`~repro.quant.kmeans.KMeansQuantizer` (rejected comparator)
* :func:`~repro.quant.registry.make_quantizer` (config-string factory)
* :func:`~repro.quant.error.mean_l2_error` (the paper's metric)
* Sampling profiler: :func:`~repro.quant.profiler.select_num_bins`,
  :func:`~repro.quant.profiler.select_ratio`
"""

from .adaptive import AdaptiveAsymmetricQuantizer, greedy_range_search
from .base import (
    Float16Quantizer,
    IdentityQuantizer,
    QuantizedTensor,
    Quantizer,
)
from .error import mean_l2_error, row_l2_errors
from .kmeans import KMeansQuantizer
from .packing import pack_bits, packed_size, unpack_bits
from .profiler import ProfileResult, select_num_bins, select_ratio
from .registry import make_quantizer
from .uniform import AsymmetricQuantizer, SymmetricQuantizer

__all__ = [
    "AdaptiveAsymmetricQuantizer",
    "AsymmetricQuantizer",
    "Float16Quantizer",
    "IdentityQuantizer",
    "KMeansQuantizer",
    "ProfileResult",
    "QuantizedTensor",
    "Quantizer",
    "SymmetricQuantizer",
    "greedy_range_search",
    "make_quantizer",
    "mean_l2_error",
    "pack_bits",
    "packed_size",
    "row_l2_errors",
    "select_num_bins",
    "select_ratio",
    "unpack_bits",
]
