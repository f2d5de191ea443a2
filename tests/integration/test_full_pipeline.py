"""Integration tests: the complete tridiagonalization + EVD pipelines on
structured workloads, cross-checked against NumPy/SciPy and each other."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import repro
from repro.band.storage import dense_from_band
from repro.bench.workloads import (
    clustered_spectrum,
    geometric_spectrum,
    goe,
    symmetric_with_spectrum,
    uniform_spectrum,
)
from repro.eig.select import select_eigh
from tests.oracles import tridiag_qr_eigh


class TestTridiagonalizationPipelines:
    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct"])
    @pytest.mark.parametrize("n", [17, 64, 100])
    def test_all_methods_all_sizes(self, method, n):
        A = goe(n, seed=n)
        res = repro.tridiagonalize(A, method=method, bandwidth=4, second_block=12)
        T = dense_from_band(res.d, res.e)
        Q = res.q()
        assert np.linalg.norm(Q @ T @ Q.T - A) / np.linalg.norm(A) < 1e-12
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) < 1e-11

    def test_methods_agree_on_spectrum(self):
        A = goe(80, seed=5)
        spectra = []
        for method in ["dbbr", "sbr", "direct"]:
            res = repro.tridiagonalize(A, method=method, bandwidth=5, second_block=10)
            spectra.append(eigh_tridiagonal(res.d, res.e, eigvals_only=True))
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-11
        assert np.max(np.abs(spectra[0] - spectra[2])) < 1e-11

    def test_two_stage_on_already_banded_input(self):
        from repro.bench.workloads import random_band

        A = random_band(60, 3, seed=1)
        res = repro.tridiagonalize(A, method="dbbr", bandwidth=3, second_block=9)
        T = dense_from_band(res.d, res.e)
        assert np.max(
            np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(A))
        ) < 1e-11


class TestEVDWorkloads:
    def test_known_uniform_spectrum(self):
        lam = uniform_spectrum(72, -2.0, 7.0)
        A = symmetric_with_spectrum(lam, seed=1)
        res = repro.eigh(A, bandwidth=4, second_block=8)
        assert np.max(np.abs(res.eigenvalues - lam)) < 5e-12
        assert res.residual(A) < 1e-12

    def test_clustered_spectrum_deflation_path(self):
        lam = clustered_spectrum(60, clusters=3, spread=1e-11, seed=2)
        A = symmetric_with_spectrum(lam, seed=3)
        res = repro.eigh(A, bandwidth=3, second_block=9)
        assert np.max(np.abs(res.eigenvalues - np.sort(lam))) < 1e-11
        V = res.eigenvectors
        assert np.linalg.norm(V.T @ V - np.eye(60)) < 1e-10

    def test_geometric_spectrum_wide_range(self):
        lam = geometric_spectrum(50, cond=1e10)
        A = symmetric_with_spectrum(lam, seed=4)
        res = repro.eigh(A, bandwidth=4, second_block=8)
        # Large eigenvalues to full relative accuracy; small ones to
        # absolute accuracy ~ eps * ||A||.
        err = np.abs(res.eigenvalues - lam)
        assert np.max(err) < 1e-13 * np.max(lam)

    def test_negative_definite(self):
        lam = -np.abs(uniform_spectrum(40, 1.0, 9.0))
        A = symmetric_with_spectrum(lam, seed=5)
        res = repro.eigh(A, bandwidth=3, second_block=6)
        assert np.all(res.eigenvalues < 0)
        assert res.residual(A) < 1e-12

    @pytest.mark.parametrize("solver", ["dc"])
    def test_three_solvers_one_matrix(self, solver):
        A = goe(56, seed=6)
        res = repro.eigh(A, bandwidth=4, second_block=8)
        assert res.solver == solver
        assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(A))) < 1e-10


class TestCrossSolverConsistency:
    def test_tridiagonal_solvers_agree(self, rng):
        # D&C, LAPACK's bisection (dstebz) and the QL oracle are fully
        # independent and must agree with each other.
        n = 120
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        lam_dc, _ = repro.dc_eigh(d, e, compute_vectors=False)
        lam_qr, _ = tridiag_qr_eigh(d, e, compute_vectors=False)
        lam_bi, _ = select_eigh(d, e, 0, n - 1, compute_vectors=False)
        scale = max(np.max(np.abs(lam_dc)), 1.0)
        assert np.max(np.abs(lam_dc - lam_qr)) < 1e-12 * scale
        assert np.max(np.abs(lam_dc - lam_bi)) < 1e-11 * scale

    def test_trace_and_frobenius_invariants(self):
        A = goe(64, seed=7)
        res = repro.eigh(A, bandwidth=4, second_block=8)
        assert np.sum(res.eigenvalues) == pytest.approx(np.trace(A), abs=1e-9)
        assert np.sum(res.eigenvalues**2) == pytest.approx(
            np.linalg.norm(A) ** 2, rel=1e-12
        )

    def test_eigenvalues_match_numpy_across_methods(self):
        A = goe(48, seed=8)
        lam_np = np.linalg.eigvalsh(A)
        for method in ["proposed", "magma", "cusolver"]:
            res = repro.eigh(A, method=method, compute_vectors=False,
                             bandwidth=4, second_block=8)
            assert np.max(np.abs(res.eigenvalues - lam_np)) < 1e-11
