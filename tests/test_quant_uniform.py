"""Unit tests for symmetric / asymmetric uniform quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import make_quantizer, mean_l2_error
from repro.quant.uniform import (
    AsymmetricQuantizer,
    SymmetricQuantizer,
    uniform_dequantize_rows,
    uniform_quantize_rows,
)


class TestUniformPrimitives:
    def test_grid_endpoints_exact(self):
        """xmin and xmax are on the grid, so they reconstruct exactly."""
        x = np.array([[-1.0, 0.0, 1.0]], dtype=np.float32)
        xmin = np.array([-1.0], dtype=np.float32)
        xmax = np.array([1.0], dtype=np.float32)
        codes = uniform_quantize_rows(x, xmin, xmax, 8)
        out = uniform_dequantize_rows(codes, xmin, xmax, 8)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-6)

    def test_error_bounded_by_half_step(self, rng):
        x = rng.uniform(-1, 1, size=(100, 16)).astype(np.float32)
        xmin = x.min(axis=1)
        xmax = x.max(axis=1)
        for bits in (2, 3, 4, 8):
            codes = uniform_quantize_rows(x, xmin, xmax, bits)
            out = uniform_dequantize_rows(codes, xmin, xmax, bits)
            step = (xmax - xmin) / ((1 << bits) - 1)
            max_err = np.abs(out - x).max(axis=1)
            assert np.all(max_err <= step / 2 + 1e-6)

    def test_constant_row_reconstructs_value(self):
        x = np.full((1, 8), 0.37, dtype=np.float32)
        xmin = np.array([0.37], dtype=np.float32)
        xmax = np.array([0.37], dtype=np.float32)
        codes = uniform_quantize_rows(x, xmin, xmax, 4)
        out = uniform_dequantize_rows(codes, xmin, xmax, 4)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_values_outside_range_clip(self):
        x = np.array([[-5.0, 0.0, 5.0]], dtype=np.float32)
        xmin = np.array([-1.0], dtype=np.float32)
        xmax = np.array([1.0], dtype=np.float32)
        codes = uniform_quantize_rows(x, xmin, xmax, 4)
        out = uniform_dequantize_rows(codes, xmin, xmax, 4)
        assert out[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-6)

    def test_codes_within_level_range(self, rng):
        x = rng.normal(size=(50, 8)).astype(np.float32)
        codes = uniform_quantize_rows(
            x, x.min(axis=1), x.max(axis=1), 3
        )
        assert codes.min() >= 0
        assert codes.max() <= 7

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_step_codes_without_warnings(self):
        """A positive span whose grid step underflows to 0 divides by
        zero on the clamped path, silently: x/0 codes to the top level
        and 0/0 to 0."""
        x = np.array([[0.0, 2.0**-149, 0.0, 0.0]], dtype=np.float32)
        xmin, xmax = x.min(axis=1), x.max(axis=1)
        codes = uniform_quantize_rows(x, xmin, xmax, 2)
        assert codes.tolist() == [[0, 3, 0, 0]]
        adaptive = make_quantizer("adaptive", bits=2).quantize(x)
        assert adaptive.unpacked_codes().tolist() == [[0, 3, 0, 0]]


class TestSymmetric:
    def test_roundtrip_shape_and_dtype(self, trained_tensor):
        q = SymmetricQuantizer(4)
        out = q.roundtrip(trained_tensor)
        assert out.shape == trained_tensor.shape
        assert out.dtype == np.float32

    def test_single_param_per_row(self, trained_tensor):
        qt = SymmetricQuantizer(4).quantize(trained_tensor)
        assert set(qt.params) == {"xmax"}
        assert qt.param_bytes == trained_tensor.shape[0] * 4

    def test_error_shrinks_with_bits(self, trained_tensor):
        errors = [
            mean_l2_error(
                trained_tensor,
                SymmetricQuantizer(b).roundtrip(trained_tensor),
            )
            for b in (2, 3, 4, 8)
        ]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < errors[0] / 10


class TestAsymmetric:
    def test_beats_symmetric_on_skewed_data(self, rng):
        """The paper's Fig 9 ordering: asymmetric < symmetric error on
        non-symmetric value distributions."""
        skewed = rng.gamma(2.0, 0.05, size=(512, 16)).astype(np.float32)
        for bits in (2, 3, 4, 8):
            sym = mean_l2_error(
                skewed, SymmetricQuantizer(bits).roundtrip(skewed)
            )
            asym = mean_l2_error(
                skewed, AsymmetricQuantizer(bits).roundtrip(skewed)
            )
            assert asym < sym

    def test_two_params_per_row(self, trained_tensor):
        qt = AsymmetricQuantizer(4).quantize(trained_tensor)
        assert set(qt.params) == {"xmin", "xmax"}

    def test_compression_ratio_accounts_metadata(self, trained_tensor):
        qt = AsymmetricQuantizer(4).quantize(trained_tensor)
        # 16 cols at 4 bits = 8 code bytes + 8 param bytes per row,
        # versus 64 fp32 bytes: ratio 4x.
        assert qt.compression_ratio == pytest.approx(4.0)

    def test_8bit_near_lossless_for_training(self, trained_tensor):
        out = AsymmetricQuantizer(8).roundtrip(trained_tensor)
        row_range = trained_tensor.max(axis=1) - trained_tensor.min(axis=1)
        np.testing.assert_array_less(
            np.abs(out - trained_tensor).max(axis=1),
            row_range / 255.0 + 1e-7,
        )


class TestInputValidation:
    def test_rejects_1d(self):
        with pytest.raises(QuantizationError, match="2-D"):
            AsymmetricQuantizer(4).quantize(np.zeros(8, dtype=np.float32))

    def test_rejects_empty(self):
        with pytest.raises(QuantizationError, match="empty"):
            AsymmetricQuantizer(4).quantize(
                np.zeros((0, 4), dtype=np.float32)
            )

    def test_rejects_nan(self):
        bad = np.full((2, 2), np.nan, dtype=np.float32)
        with pytest.raises(QuantizationError, match="non-finite"):
            AsymmetricQuantizer(4).quantize(bad)

    def test_rejects_inf(self):
        bad = np.array([[1.0, np.inf]], dtype=np.float32)
        with pytest.raises(QuantizationError, match="non-finite"):
            SymmetricQuantizer(4).quantize(bad)

    def test_rejects_bad_bits(self):
        with pytest.raises(QuantizationError, match="bit width"):
            AsymmetricQuantizer(0)
        with pytest.raises(QuantizationError, match="bit width"):
            AsymmetricQuantizer(9)

    def test_rejects_cross_quantizer_decode(self, trained_tensor):
        qt = SymmetricQuantizer(4).quantize(trained_tensor)
        with pytest.raises(QuantizationError, match="cannot decode"):
            AsymmetricQuantizer(4).dequantize(qt)

    def test_rejects_bit_width_mismatch(self, trained_tensor):
        qt = AsymmetricQuantizer(4).quantize(trained_tensor)
        with pytest.raises(QuantizationError, match="mismatch"):
            AsymmetricQuantizer(2).dequantize(qt)
