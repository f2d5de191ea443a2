"""Unit tests for public-API input validation."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.workloads import goe
from repro.core.validation import (
    EmptyMatrixError,
    NonFiniteError,
    NonSquareError,
    SymmetryError,
    check_symmetric,
    matrix_fingerprint,
)


class TestCheckSymmetric:
    def test_passes_symmetric_through(self):
        A = goe(10, seed=1)
        B = check_symmetric(A)
        assert np.array_equal(A, B)
        assert B is not A  # never aliases

    def test_symmetrizes_roundoff_asymmetry(self):
        A = goe(10, seed=2)
        A[3, 4] += 1e-13
        B = check_symmetric(A)
        assert np.array_equal(B, B.T)

    def test_rejects_large_asymmetry(self):
        A = goe(10, seed=3)
        A[3, 4] += 1.0
        with pytest.raises(SymmetryError):
            check_symmetric(A)

    def test_rejects_nan_and_inf(self):
        A = goe(6, seed=4)
        A[2, 2] = np.nan
        with pytest.raises(NonFiniteError, match="NaN"):
            check_symmetric(A)
        A = goe(6, seed=4)
        A[1, 1] = np.inf
        with pytest.raises(NonFiniteError):
            check_symmetric(A)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError, match="square"):
            check_symmetric(np.zeros((3, 5)))

    def test_rejects_vector(self):
        with pytest.raises(NonSquareError):
            check_symmetric(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(EmptyMatrixError):
            check_symmetric(np.zeros((0, 0)))

    def test_typed_errors_are_value_errors(self):
        # callers that only catch ValueError keep working
        for exc in (SymmetryError, NonSquareError, NonFiniteError,
                    EmptyMatrixError):
            assert issubclass(exc, ValueError)

    def test_custom_tolerance(self):
        A = goe(8, seed=5)
        A[0, 1] += 1e-6
        with pytest.raises(SymmetryError):
            check_symmetric(A)
        B = check_symmetric(A, tol=1e-3)
        assert np.array_equal(B, B.T)

    def test_symmetrizes_asymmetry_whose_square_underflows(self):
        # ||A - A^T||_F^2 = 2e-340 underflows to 0; the entries differ.
        A = goe(10, seed=6) * 1e-160
        A[3, 4] += 1e-170
        assert A[3, 4] != A[4, 3]
        B = check_symmetric(A)
        assert np.array_equal(B, B.T)
        assert np.array_equal(B, (A + A.T) / 2.0)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 200])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tiled_pass_matches_full_matrix_form(self, n, dtype, order):
        # The tile-pair pass rejects and symmetrizes exactly as the
        # full-matrix gate ||A - A^T||_F > tol ||A||_F and (A + A^T) / 2.
        g = np.random.default_rng(n).standard_normal((n, n))
        S, U = (g + g.T) / 2, np.triu(g, 1)
        # Two levels straddle the 1e-8 gate by a factor well under sqrt(2).
        unit = np.linalg.norm(U - U.T) / np.linalg.norm(S) if n > 1 else 1.0
        for level in (0.0, 1e-13, 1e-10, 0.85e-8 / unit, 1.15e-8 / unit, 1e-2):
            A = np.asarray(S + level * U, order=order)
            A64 = np.asarray(A.astype(dtype), dtype=np.float64)
            ratio = np.linalg.norm(A64 - A64.T) / np.linalg.norm(A64)
            if ratio > 1e-8:
                with pytest.raises(SymmetryError):
                    check_symmetric(A, dtype=dtype, warn_on_upcast=False)
                continue
            B = check_symmetric(A, dtype=dtype, warn_on_upcast=False)
            W = A.astype(dtype)
            assert B.dtype == dtype
            assert np.array_equal(B, (W + W.T) / np.asarray(2.0, dtype=dtype))

    def test_integer_input_promoted(self):
        A = np.array([[2, 1], [1, 3]])
        B = check_symmetric(A)
        assert B.dtype == np.float64


class TestMatrixFingerprint:
    def test_deterministic_across_copies(self):
        A = goe(9, seed=20)
        assert matrix_fingerprint(A) == matrix_fingerprint(A.copy())

    def test_single_bit_flip_changes_digest(self):
        A = goe(9, seed=21)
        B = A.copy()
        B[4, 4] = np.nextafter(B[4, 4], np.inf)
        assert matrix_fingerprint(A) != matrix_fingerprint(B)

    def test_shape_is_part_of_identity(self):
        flat = np.arange(12, dtype=np.float64)
        assert (matrix_fingerprint(flat.reshape(3, 4))
                != matrix_fingerprint(flat.reshape(4, 3)))

    def test_dtype_is_part_of_identity(self):
        A = np.eye(4, dtype=np.float32)
        assert matrix_fingerprint(A) != matrix_fingerprint(A.astype(np.float64))

    def test_non_contiguous_views_hash_by_content(self):
        A = goe(10, seed=22)
        view = A[::2, ::2]
        assert matrix_fingerprint(view) == matrix_fingerprint(view.copy())

    def test_digest_is_short_hex(self):
        fp = matrix_fingerprint(goe(5, seed=23))
        assert len(fp) == 32
        int(fp, 16)  # hex-parsable


class TestDriversValidate:
    def test_tridiagonalize_rejects_nan(self):
        A = goe(12, seed=6)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            repro.tridiagonalize(A)

    @pytest.mark.parametrize("entry", [
        lambda A: repro.eigh(A),
        lambda A: repro.eigh_partial(A, indices=(0, 1)),
        lambda A: repro.tridiagonalize(A),
    ])
    def test_typed_errors_at_every_entry_point(self, entry):
        with pytest.raises(NonSquareError):
            entry(np.zeros((4, 6)))
        with pytest.raises(EmptyMatrixError):
            entry(np.zeros((0, 0)))
        bad = goe(12, seed=30)
        bad[1, 2] = bad[2, 1] = np.nan
        with pytest.raises(NonFiniteError):
            entry(bad)

    def test_dense_method_validates_too(self):
        with pytest.raises(NonSquareError):
            repro.eigh(np.zeros((4, 6)), method="dense")
        bad = goe(8, seed=31)
        bad[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            repro.eigh(bad, method="dense")

    def test_eigh_stacked_validates_shape(self):
        with pytest.raises(NonSquareError):
            repro.eigh_stacked(np.zeros((3, 4, 5)))
        with pytest.raises(NonSquareError):
            repro.eigh_stacked(np.zeros((4, 4)))  # not a stack
        with pytest.raises(EmptyMatrixError):
            repro.eigh_stacked(np.zeros((0, 4, 4)))

    def test_tridiagonalize_rejects_asymmetric(self):
        A = np.random.default_rng(7).standard_normal((12, 12))
        with pytest.raises(SymmetryError):
            repro.tridiagonalize(A)

    def test_eigh_inherits_validation(self):
        A = np.random.default_rng(8).standard_normal((10, 10))
        with pytest.raises(SymmetryError):
            repro.eigh(A)

    def test_roundoff_asymmetric_input_accepted(self):
        A = goe(24, seed=9)
        A[5, 6] += 1e-14
        res = repro.eigh(A, bandwidth=3, second_block=6)
        assert res.residual((A + A.T) / 2) < 1e-12
