"""Non-uniform quantization via per-vector k-means (section 5.2, A2).

Each embedding vector's ``n`` elements are clustered into ``2^N``
groups with Lloyd's algorithm (the paper runs 15 iterations); an element
is coded by its cluster index and de-quantized through a per-row
codebook of centroids.

The paper's verdict: marginally better mean l2 error than asymmetric
quantization but orders of magnitude slower (48+ hours for one
production checkpoint), so Check-N-Run rejects it. We implement it
faithfully — batched and vectorised, but still doing the full
assignment/update iterations — so the cost comparison (ablation bench
a01) can be measured rather than asserted.
"""

from __future__ import annotations

import numpy as np

from ..errors import QuantizationError
from .base import QuantizedTensor, Quantizer
from .packing import pack_rows, unpack_rows


def _init_centroids(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Random element sampling per row — plain Lloyd's initialisation.

    Deliberately *not* k-means++: the paper attributes k-means' slightly
    worse 4-bit result to initialisation randomness, and we preserve that
    behaviour.
    """
    rows, n = x.shape
    if k <= n:
        idx = np.argsort(rng.random((rows, n)), axis=1)[:, :k]
    else:
        idx = rng.integers(0, n, size=(rows, k))
    return np.take_along_axis(x, idx, axis=1).astype(np.float32)


def kmeans_rows(
    x: np.ndarray,
    k: int,
    iterations: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row 1-D k-means.

    Args:
        x: (rows, n) matrix; every row is clustered independently.
        k: number of clusters per row.
        iterations: Lloyd iterations (paper uses 15).
        rng: source of initialisation randomness.

    Returns:
        (codes, codebook): codes is (rows, n) uint8 cluster indices,
        codebook is (rows, k) fp32 centroids.
    """
    if k < 1:
        raise QuantizationError(f"k must be >= 1, got {k}")
    if iterations < 1:
        raise QuantizationError(f"iterations must be >= 1, got {iterations}")
    rows, n = x.shape
    centroids = _init_centroids(x, k, rng)
    row_idx = np.broadcast_to(np.arange(rows)[:, None], (rows, n))

    assign = np.zeros((rows, n), dtype=np.int64)
    for _ in range(iterations):
        # Assignment: nearest centroid per element, (rows, n, k) distances.
        dist = np.abs(x[:, :, None] - centroids[:, None, :])
        assign = np.argmin(dist, axis=2)
        # Update: mean of assigned elements; empty clusters keep position.
        sums = np.zeros((rows, k), dtype=np.float64)
        counts = np.zeros((rows, k), dtype=np.int64)
        np.add.at(sums, (row_idx, assign), x)
        np.add.at(counts, (row_idx, assign), 1)
        nonempty = counts > 0
        centroids = np.where(
            nonempty, sums / np.maximum(counts, 1), centroids
        ).astype(np.float32)

    # Final assignment against the updated centroids.
    dist = np.abs(x[:, :, None] - centroids[:, None, :])
    assign = np.argmin(dist, axis=2)
    return assign.astype(np.uint8), centroids


#: Rows clustered per batch: bounds peak memory, since the (rows, n, k)
#: distance tensor is materialised one batch of rows at a time.
ROW_BATCH = 1024


class KMeansQuantizer(Quantizer):
    """Per-row k-means codebook quantization, :data:`ROW_BATCH` rows at a
    time."""

    name = "kmeans"

    def __init__(
        self,
        bits: int,
        iterations: int = 15,
        seed: int = 0,
    ) -> None:
        super().__init__(bits)
        if iterations < 1:
            raise QuantizationError("iterations must be >= 1")
        self.iterations = iterations
        self.seed = seed

    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        x = self._check_input(tensor)
        k = 1 << self.bits
        rows, n = x.shape
        codes = np.zeros((rows, n), dtype=np.uint8)
        codebook = np.zeros((rows, k), dtype=np.float32)
        rng = np.random.default_rng(self.seed)
        for start in range(0, rows, ROW_BATCH):
            stop = min(start + ROW_BATCH, rows)
            batch_codes, batch_book = kmeans_rows(
                x[start:stop], k, self.iterations, rng
            )
            codes[start:stop] = batch_codes
            codebook[start:stop] = batch_book
        return QuantizedTensor(
            codes=pack_rows(codes, self.bits),
            bit_width=self.bits,
            shape=x.shape,
            quantizer=self.name,
            params={"codebook": codebook},
        )

    def dequantize(self, qt: QuantizedTensor) -> np.ndarray:
        self._check_dequant_input(qt)
        codebook = qt.params["codebook"].astype(np.float32)
        codes = unpack_rows(qt.codes, self.bits, qt.rows, qt.dim)
        return np.take_along_axis(
            codebook, codes.astype(np.int64), axis=1
        ).astype(np.float32)
