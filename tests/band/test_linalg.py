"""Unit tests for band linear algebra (sbmv, norms, Gershgorin)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.linalg import (
    band_frobenius_norm,
    band_gershgorin,
    band_inf_norm,
    band_quadratic_form,
    band_trace,
    sbmv,
    tridiag_matvec,
)
from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage, dense_from_band


@pytest.fixture
def case(rng):
    A = random_symmetric_band(30, 4, rng)
    return A, LowerBandStorage.from_dense(A, 4)


class TestSbmv:
    def test_matches_dense(self, case, rng):
        A, lb = case
        x = rng.standard_normal(30)
        assert np.allclose(sbmv(lb, x), A @ x, atol=1e-13)

    def test_multiple_rhs(self, case, rng):
        A, lb = case
        X = rng.standard_normal((30, 5))
        assert np.allclose(sbmv(lb, X), A @ X, atol=1e-13)

    def test_diagonal_matrix(self, rng):
        d = rng.standard_normal(10)
        lb = LowerBandStorage(d[None, :].copy(), 0)
        x = rng.standard_normal(10)
        assert np.allclose(sbmv(lb, x), d * x)

    def test_wrong_length_rejected(self, case):
        _, lb = case
        with pytest.raises(ValueError):
            sbmv(lb, np.zeros(7))

    def test_linear_in_x(self, case, rng):
        _, lb = case
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        assert np.allclose(sbmv(lb, 2 * x + y), 2 * sbmv(lb, x) + sbmv(lb, y),
                           atol=1e-12)


class TestNorms:
    def test_frobenius_matches_dense(self, case):
        A, lb = case
        assert band_frobenius_norm(lb) == pytest.approx(np.linalg.norm(A))

    def test_inf_norm_matches_dense(self, case):
        A, lb = case
        assert band_inf_norm(lb) == pytest.approx(
            np.max(np.sum(np.abs(A), axis=1))
        )

    def test_trace(self, case):
        A, lb = case
        assert band_trace(lb) == pytest.approx(np.trace(A))

    def test_gershgorin_encloses_spectrum(self, case):
        A, lb = case
        lo, hi = band_gershgorin(lb)
        lam = np.linalg.eigvalsh(A)
        assert lo <= lam[0] and lam[-1] <= hi

    def test_quadratic_form(self, case, rng):
        A, lb = case
        x = rng.standard_normal(30)
        assert band_quadratic_form(lb, x) == pytest.approx(x @ A @ x)


class TestTridiagMatvec:
    def test_matches_dense(self, rng):
        d = rng.standard_normal(12)
        e = rng.standard_normal(11)
        x = rng.standard_normal(12)
        T = dense_from_band(d, e)
        assert np.allclose(tridiag_matvec(d, e, x), T @ x, atol=1e-13)

    def test_matrix_rhs(self, rng):
        d = rng.standard_normal(8)
        e = rng.standard_normal(7)
        X = rng.standard_normal((8, 3))
        T = dense_from_band(d, e)
        assert np.allclose(tridiag_matvec(d, e, X), T @ X, atol=1e-13)

    def test_scalar_case(self):
        y = tridiag_matvec(np.array([2.0]), np.zeros(0), np.array([3.0]))
        assert y[0] == 6.0


class TestPipelineResidualsViaBand:
    def test_band_reduction_invariants_on_band_storage(self, rng):
        """Trace and Frobenius norm are similarity invariants — checkable
        straight from band storage, no densification."""
        from repro.core.dbbr import dbbr

        g = rng.standard_normal((40, 40))
        A = (g + g.T) / 2
        res = dbbr(A, 4, 8)
        lb = LowerBandStorage.from_dense(res.band, 4)
        assert band_trace(lb) == pytest.approx(np.trace(A), abs=1e-9)
        assert band_frobenius_norm(lb) == pytest.approx(np.linalg.norm(A))

    def test_bc_band_eigen_residual_on_band_storage(self, rng):
        from repro.core.bc_wavefront import bulge_chase_wavefront
        from repro.eig.dc import dc_eigh

        A = random_symmetric_band(35, 3, rng)
        lb = LowerBandStorage.from_dense(A, 3)
        bc, _ = bulge_chase_wavefront(lb)
        lam, U = dc_eigh(bc.d, bc.e)
        resid = np.linalg.norm(tridiag_matvec(bc.d, bc.e, U) - U * lam)
        assert resid < 1e-11 * max(band_frobenius_norm(lb), 1.0)
