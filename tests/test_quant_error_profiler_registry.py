"""Unit tests for the error metric, the sampling profiler, the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import (
    IdentityQuantizer,
    make_quantizer,
    mean_l2_error,
    row_l2_errors,
)
from repro.quant.profiler import (
    MIN_SAMPLE_ROWS,
    RATIO_CANDIDATES,
    sample_rows,
    select_num_bins,
    select_ratio,
)
from repro.quant.registry import dequantize_tensor


class TestErrorMetrics:
    def test_identical_tensors_zero_error(self, trained_tensor):
        assert mean_l2_error(trained_tensor, trained_tensor) == 0.0

    def test_known_value(self):
        a = np.zeros((2, 4), dtype=np.float32)
        b = np.full((2, 4), 0.5, dtype=np.float32)
        # Each row error = sqrt(4 * 0.25) = 1.0
        np.testing.assert_allclose(row_l2_errors(a, b), [1.0, 1.0])
        assert mean_l2_error(a, b) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(QuantizationError, match="mismatch"):
            mean_l2_error(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_1d_rejected(self):
        with pytest.raises(QuantizationError, match="2-D"):
            mean_l2_error(np.zeros(3), np.zeros(3))


class TestSampling:
    def test_small_tensor_returned_whole(self, trained_tensor):
        small = trained_tensor[: MIN_SAMPLE_ROWS // 2]
        out = sample_rows(small, 0.001, np.random.default_rng(0))
        # The MIN_SAMPLE_ROWS floor exceeds the tensor: returned whole.
        assert out.shape[0] == small.shape[0]

    def test_sample_count_respects_fraction_and_floor(self, rng):
        big = rng.normal(size=(10_000, 4)).astype(np.float32)
        out = sample_rows(big, 0.01, rng)
        assert out.shape[0] == 100
        out = sample_rows(big, 0.0001, rng)
        assert out.shape[0] == MIN_SAMPLE_ROWS

    def test_invalid_fraction(self, trained_tensor):
        with pytest.raises(QuantizationError, match="fraction"):
            sample_rows(trained_tensor, 0.0, np.random.default_rng(0))


class TestProfiler:
    def test_bins_selection_returns_candidate(self, trained_tensor):
        result = select_num_bins(
            trained_tensor, bits=2, candidates=(5, 10, 25),
            sample_fraction=1.0,
        )
        assert result.chosen in (5.0, 10.0, 25.0)
        assert len(result.errors) == 3

    def test_errors_decrease_or_flat_with_bins(self, rng):
        x = rng.normal(0, 0.02, size=(512, 16)).astype(np.float32)
        x[:, 0] += 1.0
        result = select_num_bins(
            x, bits=2, candidates=(5, 25, 45), sample_fraction=1.0
        )
        assert result.errors[0] >= result.errors[-1] - 1e-9

    def test_sampled_matches_full_selection(self, rng):
        """The paper: 'the sampled checkpoint provided identical
        parameter selection compared with the full checkpoint'."""
        x = rng.normal(0, 0.02, size=(20_000, 16)).astype(np.float32)
        x[:, 0] += 1.0
        full = select_num_bins(
            x, bits=2, candidates=(5, 15, 25), sample_fraction=1.0
        )
        sampled = select_num_bins(
            x, bits=2, candidates=(5, 15, 25), sample_fraction=0.02
        )
        assert full.chosen == sampled.chosen

    def test_ratio_selection(self, rng):
        x = rng.normal(0, 0.02, size=(512, 16)).astype(np.float32)
        x[:, 0] += 1.0
        result = select_ratio(x, bits=2, num_bins=25, sample_fraction=1.0)
        assert result.candidates == RATIO_CANDIDATES
        assert result.chosen in RATIO_CANDIDATES
        assert len(result.errors) == len(RATIO_CANDIDATES)

    def test_empty_candidates_rejected(self, trained_tensor):
        with pytest.raises(QuantizationError, match="candidate"):
            select_num_bins(trained_tensor, bits=2, candidates=())


class TestRegistry:
    @pytest.mark.parametrize(
        "name", ["none", "symmetric", "asymmetric", "adaptive", "kmeans"]
    )
    def test_all_names_constructible(self, name):
        q = make_quantizer(name, bits=4)
        assert q.name == name

    def test_unknown_name(self):
        with pytest.raises(QuantizationError, match="unknown"):
            make_quantizer("fancy")

    def test_identity_is_lossless(self, trained_tensor):
        q = IdentityQuantizer()
        np.testing.assert_array_equal(
            q.roundtrip(trained_tensor), trained_tensor
        )

    def test_identity_has_no_size_savings(self, trained_tensor):
        qt = IdentityQuantizer().quantize(trained_tensor)
        assert qt.nbytes == trained_tensor.nbytes

    def test_dequantize_tensor_self_describing(self, trained_tensor):
        for name in ("symmetric", "asymmetric", "adaptive", "kmeans"):
            q = make_quantizer(name, bits=4)
            qt = q.quantize(trained_tensor)
            np.testing.assert_array_equal(
                dequantize_tensor(qt), q.dequantize(qt)
            )

    def test_dequantize_tensor_builds_each_decoder_once(
        self, trained_tensor, monkeypatch
    ):
        """One decoder per (name, bit_width), however many chunks a
        restore or a serving fleet pushes through."""
        from repro.quant import registry

        built = []
        real = registry.make_quantizer

        def counting(name, **kwargs):
            built.append((name, kwargs["bits"]))
            return real(name, **kwargs)

        registry._decoder.cache_clear()
        monkeypatch.setattr(registry, "make_quantizer", counting)
        for bits in (2, 4):
            qt = make_quantizer("asymmetric", bits=bits).quantize(
                trained_tensor
            )
            first = dequantize_tensor(qt)
            for _ in range(3):
                np.testing.assert_array_equal(dequantize_tensor(qt), first)
        assert built == [("asymmetric", 2), ("asymmetric", 4)]

    def test_dequantize_tensor_rejects_unknown_quantizer_every_time(
        self, trained_tensor
    ):
        qt = make_quantizer("asymmetric", bits=4).quantize(trained_tensor)
        qt.quantizer = "fancy"
        for _ in range(2):  # an error must not be remembered as a decoder
            with pytest.raises(QuantizationError, match="unknown quantizer"):
                dequantize_tensor(qt)
