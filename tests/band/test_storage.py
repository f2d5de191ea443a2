"""Unit tests for band storage layouts (LAPACK lower band + Figure 10)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.band.storage import (
    LowerBandStorage,
    PackedBandStorage,
    band_from_dense,
    dense_from_band,
)


class TestLowerBandStorage:
    def test_roundtrip(self, rng):
        A = random_symmetric_band(20, 3, rng)
        lb = LowerBandStorage.from_dense(A, 3)
        assert np.allclose(lb.to_dense(), A)

    def test_layout_convention(self, rng):
        A = random_symmetric_band(10, 2, rng)
        lb = LowerBandStorage.from_dense(A, 2)
        for i in range(3):
            for j in range(10 - i):
                assert lb.ab[i, j] == A[j + i, j]

    def test_diagonal_and_subdiagonal_views(self, rng):
        A = random_symmetric_band(12, 4, rng)
        lb = LowerBandStorage.from_dense(A, 4)
        assert np.allclose(lb.diagonal(), np.diagonal(A))
        assert np.allclose(lb.subdiagonal(2), np.diagonal(A, -2))

    def test_subdiagonal_out_of_band(self, rng):
        lb = LowerBandStorage.from_dense(random_symmetric_band(8, 2, rng), 2)
        with pytest.raises(IndexError):
            lb.subdiagonal(3)
        with pytest.raises(IndexError):
            lb.subdiagonal(0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LowerBandStorage(np.zeros((3, 10)), bandwidth=4)

    def test_copy_is_independent(self, rng):
        lb = LowerBandStorage.from_dense(random_symmetric_band(8, 2, rng), 2)
        cp = lb.copy()
        cp.ab[0, 0] = 123.0
        assert lb.ab[0, 0] != 123.0

    def test_nbytes(self, rng):
        lb = LowerBandStorage.from_dense(random_symmetric_band(16, 3, rng), 3)
        assert lb.nbytes() == 4 * 16 * 8


class TestPackedBandStorage:
    def test_roundtrip_dense(self, rng):
        A = random_symmetric_band(15, 4, rng)
        pb = PackedBandStorage.from_dense(A, 4)
        assert np.allclose(pb.to_dense(), A)

    def test_roundtrip_via_lower_band(self, rng):
        A = random_symmetric_band(18, 3, rng)
        lb = LowerBandStorage.from_dense(A, 3)
        pb = PackedBandStorage.from_lower_band(lb)
        assert np.allclose(pb.to_lower_band().ab, lb.ab)

    def test_columns_are_consecutive(self, rng):
        # The Figure 10 property: column j's band entries occupy one
        # contiguous slice of the flat buffer.
        A = random_symmetric_band(12, 3, rng)
        pb = PackedBandStorage.from_dense(A, 3)
        for j in range(12):
            col = pb.column(j)
            expect = A[j : min(j + 4, 12), j]
            assert np.array_equal(col, expect)

    def test_total_size_formula(self, rng):
        n, b = 20, 5
        pb = PackedBandStorage.from_dense(random_symmetric_band(n, b, rng), b)
        expect = n * (b + 1) - b * (b + 1) // 2
        assert pb.data.size == expect
        assert pb.nbytes() == expect * 8

    def test_packed_smaller_than_dense(self, rng):
        n, b = 64, 4
        A = random_symmetric_band(n, b, rng)
        pb = PackedBandStorage.from_dense(A, b)
        assert pb.nbytes() < A.nbytes / 6

    def test_column_is_view(self, rng):
        pb = PackedBandStorage.from_dense(random_symmetric_band(10, 2, rng), 2)
        pb.column(3)[0] = 42.0
        assert pb.to_dense()[3, 3] == 42.0


class TestDenseFromBand:
    def test_tridiagonal_construction(self):
        T = dense_from_band(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]))
        expect = np.array([[1, 4, 0], [4, 2, 5], [0, 5, 3]], dtype=float)
        assert np.array_equal(T, expect)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dense_from_band(np.zeros(3), np.zeros(3))

    def test_band_from_dense_alias(self, rng):
        A = random_symmetric_band(9, 2, rng)
        assert np.allclose(band_from_dense(A, 2).to_dense(), A)
