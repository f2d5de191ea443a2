"""Unit tests for the Cuppen divide-and-conquer eigensolver."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from repro.band.storage import dense_from_band
from repro.bench.workloads import laplacian_1d, wilkinson_tridiagonal
from repro.eig.dc import dc_eigh


def check_decomposition(d, e, atol=5e-13):
    n = d.size
    # Leaves of 24, so these small inputs run real merges.
    lam, U = dc_eigh(d, e, base_size=24)
    lref = eigh_tridiagonal(d, e, eigvals_only=True) if n > 1 else np.sort(d)
    scale = max(float(np.max(np.abs(lref))), 1.0)
    assert np.max(np.abs(lam - lref)) < atol * scale
    T = dense_from_band(d, e)
    assert np.linalg.norm(T @ U - U * lam) < atol * max(np.linalg.norm(T), 1.0)
    assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-11
    return lam, U


class TestRandomMatrices:
    @pytest.mark.parametrize("n", [3, 24, 25, 47, 100, 200])
    def test_random(self, rng, n):
        check_decomposition(rng.standard_normal(n), rng.standard_normal(n - 1))

    def test_eigenvalues_only_matches_vector_path(self, rng):
        d = rng.standard_normal(90)
        e = rng.standard_normal(89)
        lam_v, _ = dc_eigh(d, e, compute_vectors=True, base_size=24)
        lam_n, U = dc_eigh(d, e, compute_vectors=False, base_size=24)
        assert U is None
        assert np.max(np.abs(lam_v - lam_n)) < 1e-13

    def test_base_size_invariance(self, rng):
        d = rng.standard_normal(70)
        e = rng.standard_normal(69)
        lam1, _ = dc_eigh(d, e, base_size=5)
        lam2, _ = dc_eigh(d, e, base_size=48)
        assert np.max(np.abs(lam1 - lam2)) < 1e-12


class TestStructuredMatrices:
    def test_laplacian(self):
        d, e = laplacian_1d(128)
        check_decomposition(d, e)

    def test_wilkinson(self):
        d, e = wilkinson_tridiagonal(41)
        check_decomposition(d, e)

    def test_zero_coupling_splits_cleanly(self, rng):
        # rho = 0 at the tear point: subproblems are independent.
        d = rng.standard_normal(50)
        e = rng.standard_normal(49)
        e[24] = 0.0  # exactly the n//2 tear position
        check_decomposition(d, e)

    def test_identity(self):
        lam, U = dc_eigh(np.ones(64), np.zeros(63), base_size=24)
        assert np.allclose(lam, 1.0)
        assert np.linalg.norm(U.T @ U - np.eye(64)) < 1e-12

    def test_heavy_deflation_counted(self, rng):
        d = np.ones(80)
        d[40:] = 2.0
        e = np.full(79, 1e-14)
        lam, U, stats = dc_eigh(d, e, return_stats=True, base_size=24)
        assert stats.deflation_fraction > 0.5
        check_decomposition(d, e)

    def test_graded_spectrum(self, rng):
        d = np.geomspace(1.0, 1e10, 60)
        e = rng.standard_normal(59)
        lam, _ = dc_eigh(d, e, base_size=24)
        lref = eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.max(np.abs(lam - lref) / (1 + np.abs(lref))) < 1e-12

    def test_negative_couplings(self, rng):
        # All-negative off-diagonal exercises the rho < 0 reflection.
        d = rng.standard_normal(40)
        e = -np.abs(rng.standard_normal(39)) - 0.1
        check_decomposition(d, e)


class TestValidation:
    def test_wrong_e_length(self):
        with pytest.raises(ValueError):
            dc_eigh(np.zeros(5), np.zeros(5))

    def test_base_size_too_small(self):
        with pytest.raises(ValueError):
            dc_eigh(np.zeros(10), np.zeros(9), base_size=2)

    def test_stats_fields(self, rng):
        d = rng.standard_normal(100)
        e = rng.standard_normal(99)
        _, _, stats = dc_eigh(d, e, return_stats=True, base_size=10)
        assert stats.merges >= 3
        assert stats.gemm_flops > 0
        assert all(s > 10 for s in stats.sizes)
