"""Unit tests for sub-byte bit-packing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PackingError
from repro.quant.packing import (
    pack_bits,
    pack_rows,
    packed_size,
    unpack_bits,
    unpack_rows,
)


class TestPackedSize:
    @pytest.mark.parametrize(
        "count,bits,expected",
        [
            (0, 4, 0),
            (1, 1, 1),
            (8, 1, 1),
            (9, 1, 2),
            (4, 2, 1),
            (3, 3, 2),
            (8, 3, 3),
            (2, 4, 1),
            (1, 8, 1),
            (1000, 8, 1000),
        ],
    )
    def test_exact_sizes(self, count, bits, expected):
        assert packed_size(count, bits) == expected

    def test_negative_count_rejected(self):
        with pytest.raises(PackingError, match="negative"):
            packed_size(-1, 4)

    def test_unsupported_bits_rejected(self):
        with pytest.raises(PackingError, match="unsupported"):
            packed_size(10, 9)
        with pytest.raises(PackingError, match="unsupported"):
            packed_size(10, 0)


class TestRoundTrip:
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_all_code_values(self, bits):
        codes = np.arange(1 << bits, dtype=np.uint8)
        packed = pack_bits(codes, bits)
        out = unpack_bits(packed, bits, codes.size)
        np.testing.assert_array_equal(out, codes)

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 63, 64, 65, 1000])
    def test_random_codes_many_lengths(self, bits, count, rng):
        codes = rng.integers(0, 1 << bits, size=count).astype(np.uint8)
        out = unpack_bits(pack_bits(codes, bits), bits, count)
        np.testing.assert_array_equal(out, codes)

    def test_empty(self):
        assert pack_bits(np.zeros(0, dtype=np.uint8), 4).size == 0
        assert unpack_bits(np.zeros(0, dtype=np.uint8), 4, 0).size == 0

    def test_density(self, rng):
        """Packed size must actually be bits/8 of the naive byte size."""
        codes = rng.integers(0, 4, size=4000).astype(np.uint8)
        packed = pack_bits(codes, 2)
        assert packed.size == 1000

    def test_2d_rows_roundtrip(self, rng):
        codes = rng.integers(0, 16, size=(37, 16)).astype(np.uint8)
        packed = pack_rows(codes, 4)
        out = unpack_rows(packed, 4, 37, 16)
        np.testing.assert_array_equal(out, codes)


class TestValidation:
    def test_out_of_range_codes_rejected(self):
        with pytest.raises(PackingError, match="out of range"):
            pack_bits(np.array([4], dtype=np.uint8), 2)

    def test_negative_codes_rejected(self):
        with pytest.raises(PackingError, match="out of range"):
            pack_bits(np.array([-1], dtype=np.int64), 4)

    def test_undersized_buffer_rejected(self):
        packed = pack_bits(np.zeros(16, dtype=np.uint8), 4)
        with pytest.raises(PackingError, match="too small"):
            unpack_bits(packed, 4, 100)

    def test_pack_rows_requires_2d(self):
        with pytest.raises(PackingError, match="2-D"):
            pack_rows(np.zeros(8, dtype=np.uint8), 4)


class TestAlignment:
    def test_aligned_rows_sliceable(self, rng):
        """With aligned rows, a row's bytes can be sliced from the pack."""
        cols, bits = 16, 4  # 8 bytes per row
        codes = rng.integers(0, 16, size=(10, cols)).astype(np.uint8)
        packed = pack_rows(codes, bits)
        row_bytes = cols * bits // 8
        for r in range(10):
            segment = packed[r * row_bytes : (r + 1) * row_bytes]
            out = unpack_bits(segment, bits, cols)
            np.testing.assert_array_equal(out, codes[r])
