"""Parameter initialisation for the numpy DLRM.

Matches the conventions of the open-source DLRM reference: MLP weights
use Xavier/Glorot uniform scaling, embedding tables use a uniform
distribution whose width shrinks with the table's row count (so that a
pooled-sum of lookups starts at unit-ish scale).
"""

from __future__ import annotations

import numpy as np


def xavier_uniform(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill a (fan_in, fan_out) fp32 weight matrix with Glorot-uniform
    draws, in place (the draw is rounded straight into ``out``)."""
    fan_in, fan_out = out.shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)
    return out


def embedding_uniform(
    rows: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """DLRM-style embedding init: U(-1/sqrt(rows), 1/sqrt(rows))."""
    limit = 1.0 / np.sqrt(rows)
    return rng.uniform(-limit, limit, size=(rows, dim)).astype(np.float32)
