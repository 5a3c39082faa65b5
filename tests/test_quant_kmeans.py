"""Unit tests for k-means (non-uniform) quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import mean_l2_error
from repro.quant import kmeans
from repro.quant.kmeans import KMeansQuantizer, kmeans_rows
from repro.quant.uniform import AsymmetricQuantizer


class TestKMeansRows:
    def test_separable_clusters_found_exactly(self, rng):
        """Two well-separated value groups per row -> zero error at k=2."""
        rows = 32
        low = rng.normal(0.0, 0.001, size=(rows, 8))
        high = rng.normal(5.0, 0.001, size=(rows, 8))
        x = np.concatenate([low, high], axis=1).astype(np.float32)
        codes, book = kmeans_rows(
            x, k=2, iterations=15, rng=np.random.default_rng(0)
        )
        recon = np.take_along_axis(book, codes.astype(np.int64), axis=1)
        assert np.abs(recon - x).max() < 0.01

    def test_k_at_least_n_gives_near_zero_error(self, rng):
        x = rng.normal(size=(16, 4)).astype(np.float32)
        codes, book = kmeans_rows(
            x, k=8, iterations=15, rng=np.random.default_rng(0)
        )
        recon = np.take_along_axis(book, codes.astype(np.int64), axis=1)
        assert np.abs(recon - x).max() < 1e-4

    def test_invalid_args(self, rng):
        x = rng.normal(size=(4, 4)).astype(np.float32)
        with pytest.raises(QuantizationError, match="k must"):
            kmeans_rows(x, 0, 5, np.random.default_rng(0))
        with pytest.raises(QuantizationError, match="iterations"):
            kmeans_rows(x, 2, 0, np.random.default_rng(0))


class TestKMeansQuantizer:
    def test_roundtrip_shape(self, trained_tensor):
        out = KMeansQuantizer(2, iterations=5).roundtrip(trained_tensor)
        assert out.shape == trained_tensor.shape

    def test_beats_asymmetric_on_multimodal_rows(self, rng):
        """Fig 9: non-uniform quantization wins when values cluster."""
        low = rng.normal(-0.5, 0.01, size=(128, 8))
        high = rng.normal(0.5, 0.01, size=(128, 8))
        x = np.concatenate([low, high], axis=1).astype(np.float32)
        asym = mean_l2_error(x, AsymmetricQuantizer(2).roundtrip(x))
        km = mean_l2_error(
            x, KMeansQuantizer(2, iterations=15).roundtrip(x)
        )
        assert km < asym / 2

    def test_codebook_param_shape(self, trained_tensor):
        qt = KMeansQuantizer(3, iterations=3).quantize(trained_tensor)
        assert qt.params["codebook"].shape == (
            trained_tensor.shape[0],
            8,
        )

    def test_row_batching_equivalent(self, trained_tensor, monkeypatch):
        """Batch size is an implementation detail, not a result change."""
        quantizer = KMeansQuantizer(2, iterations=5, seed=3)
        monkeypatch.setattr(kmeans, "ROW_BATCH", 16)
        a = quantizer.roundtrip(trained_tensor[:64])
        monkeypatch.setattr(kmeans, "ROW_BATCH", 4096)
        b = quantizer.roundtrip(trained_tensor[:64])
        # Same seed stream order differs across batching, so compare
        # quality rather than exact codes.
        err_a = mean_l2_error(trained_tensor[:64], a)
        err_b = mean_l2_error(trained_tensor[:64], b)
        assert err_a == pytest.approx(err_b, rel=0.5)

    def test_determinism_with_seed(self, trained_tensor):
        q1 = KMeansQuantizer(2, iterations=5, seed=42)
        q2 = KMeansQuantizer(2, iterations=5, seed=42)
        a = q1.quantize(trained_tensor[:64])
        b = q2.quantize(trained_tensor[:64])
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_is_much_slower_than_uniform(self, trained_tensor):
        """The paper's rejection argument, measured for real."""
        import time

        x = trained_tensor
        t0 = time.perf_counter()
        AsymmetricQuantizer(4).quantize(x)
        t_asym = time.perf_counter() - t0
        t0 = time.perf_counter()
        KMeansQuantizer(4, iterations=15).quantize(x)
        t_kmeans = time.perf_counter() - t0
        assert t_kmeans > 3 * t_asym

    def test_invalid_constructor(self):
        with pytest.raises(QuantizationError):
            KMeansQuantizer(4, iterations=0)
