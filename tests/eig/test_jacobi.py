"""Unit tests for the cyclic Jacobi test oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import goe, symmetric_with_spectrum
from tests.oracles import jacobi_eigh


class TestJacobi:
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
    def test_matches_numpy(self, n):
        A = goe(n, seed=n)
        lam, V = jacobi_eigh(A)
        lam_ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(lam - lam_ref)) < 1e-11 * max(1, np.max(np.abs(lam_ref)))
        assert np.linalg.norm(A @ V - V * lam) / max(np.linalg.norm(A), 1) < 1e-12
        assert np.linalg.norm(V.T @ V - np.eye(n)) < 1e-12

    def test_eigenvalues_only(self):
        A = goe(25, seed=1)
        lam, V = jacobi_eigh(A, compute_vectors=False)
        assert V is None
        assert np.max(np.abs(lam - np.linalg.eigvalsh(A))) < 1e-11

    def test_diagonal_input_is_fixed_point(self):
        d = np.array([3.0, -1.0, 2.0, 0.0])
        lam, V = jacobi_eigh(np.diag(d))
        assert np.allclose(lam, np.sort(d))
        assert np.allclose(np.abs(V), np.eye(4)[:, np.argsort(d)])

    def test_high_relative_accuracy_on_graded_spd(self):
        # Jacobi's specialty: graded positive definite matrices.
        lam_true = np.geomspace(1e-12, 1.0, 30)
        A = symmetric_with_spectrum(lam_true, seed=2)
        lam, _ = jacobi_eigh(A, compute_vectors=False)
        # Small eigenvalues to good *absolute* accuracy at least.
        assert np.max(np.abs(lam - lam_true)) < 1e-13

    def test_agreement_with_two_stage_pipeline(self):
        import repro

        A = goe(40, seed=3)
        lam_j, _ = jacobi_eigh(A, compute_vectors=False)
        res = repro.eigh(A, compute_vectors=False, bandwidth=4, second_block=8)
        assert np.max(np.abs(lam_j - res.eigenvalues)) < 1e-11

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((3, 4)))

    def test_input_not_modified(self):
        A = goe(10, seed=4)
        A0 = A.copy()
        jacobi_eigh(A)
        assert np.array_equal(A, A0)

    def test_ascending_output(self):
        lam, _ = jacobi_eigh(goe(30, seed=5))
        assert np.all(np.diff(lam) >= 0)
