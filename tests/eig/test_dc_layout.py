"""The divide-and-conquer layout: stacked LAPACK leaf solves, exact
power-of-two scaling and the typed leaf failure — each held to LAPACK
(``eigh_tridiagonal``) as an independent oracle."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import repro
from repro.bench.workloads import goe, wilkinson_tridiagonal
from repro.eig import dc as dc_module
from repro.eig.dc import _merge_tree, dc_eigh
from repro.resilience import ConvergenceError, FaultSpec, clear_faults, injected_faults

_EPS = np.finfo(np.float64).eps


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_faults()
    yield
    clear_faults()


def goe_tridiagonal(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The tridiagonal form of a GOE matrix (Dumitriu–Edelman beta=1 model):
    ``d ~ N(0, 1)``, ``e_k ~ chi_{n-1-k} / sqrt(2)``."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = np.sqrt(rng.chisquare(np.arange(n - 1, 0, -1)) / 2.0)
    return d, e


def assert_matches_lapack(d, e, lam, factor=200.0):
    n = d.size
    ref = eigh_tridiagonal(d, e, eigvals_only=True) if n > 1 else np.sort(d)
    norm = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    assert np.max(np.abs(lam - ref)) <= factor * n * _EPS * norm


class TestLeafLayout:
    def test_two_leaf_sizes(self, rng):
        n, base = 100, 24
        leaves, _ = _merge_tree(n, base)
        assert {t - s for s, t in leaves} == {12, 13}
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        lam, U, stats = dc_eigh(d, e, base_size=base, return_stats=True)
        assert stats.leaves == len(leaves)
        assert_matches_lapack(d, e, lam)
        assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 25])
    @pytest.mark.parametrize("vectors", [True, False])
    def test_boundary_sizes(self, rng, n, vectors):
        # 24-wide leaves: n = 25 is the first size that merges.
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        lam, U = dc_eigh(d, e, compute_vectors=vectors, base_size=24)
        assert_matches_lapack(d, e, lam)
        if vectors:
            T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-13
            assert np.linalg.norm(T @ U - U * lam) < 1e-13 * max(np.linalg.norm(T), 1.0)

    def test_eigenvalues_only_equals_vector_mode(self):
        d, e = goe_tridiagonal(300, seed=2)
        lam_v, _ = dc_eigh(d, e)
        lam_n, U = dc_eigh(d, e, compute_vectors=False)
        assert U is None
        assert np.max(np.abs(lam_v - lam_n)) <= 4 * _EPS * np.max(np.abs(lam_v))


class TestBasisOrder:
    """``dc_eigh`` hands back a C-ordered ``U`` whatever the sign of the
    root merge's coupling ``rho = e[n//2 - 1]`` (a negative one merges
    through the reversed problem)."""

    @pytest.mark.parametrize("rho_sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [100, 300, 517])
    def test_c_contiguous_for_either_root_sign(self, n, rho_sign):
        d, e = goe_tridiagonal(n, seed=n)
        m = n // 2
        # Flipping the sign of one coupling is the similarity
        # diag(1, .., 1, -1, .., -1): the spectrum is unchanged.
        e[m - 1] = rho_sign * abs(e[m - 1])
        lam, U = dc_eigh(d, e)
        assert U.flags.c_contiguous
        assert_matches_lapack(d, e, lam)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.linalg.norm(T @ U - U * lam) < 1e-13 * np.linalg.norm(T) * n
        assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-13 * n

    def test_fp32_basis_is_c_contiguous(self):
        d, e = goe_tridiagonal(300, seed=3)
        _, U = dc_eigh(d, e, vector_dtype=np.float32)
        assert U.dtype == np.float32 and U.flags.c_contiguous


class TestHardSpectra:
    """Eigenvalues within 200 n eps ||T|| of LAPACK on hostile tridiagonals."""

    def test_clustered(self, rng):
        d = np.repeat([-1.0, 1e-3, 1.0 + 1e-9, 1.0], 50) + 1e-12 * rng.standard_normal(200)
        e = 1e-7 * rng.standard_normal(199)
        lam, _ = dc_eigh(d, e)
        assert_matches_lapack(d, e, lam)

    def test_graded(self, rng):
        d = np.geomspace(1e-12, 1.0, 160)
        e = np.sqrt(d[:-1] * d[1:]) * rng.uniform(0.1, 1.0, 159)
        for vectors in (True, False):
            lam, _ = dc_eigh(d, e, compute_vectors=vectors)
            assert_matches_lapack(d, e, lam)

    def test_glued_wilkinson(self):
        w_d, w_e = wilkinson_tridiagonal(21)
        blocks = 8
        d = np.tile(w_d, blocks)
        e = np.concatenate([np.append(w_e, 1e-8)] * blocks)[:-1]
        for vectors in (True, False):
            lam, _ = dc_eigh(d, e, compute_vectors=vectors)
            assert_matches_lapack(d, e, lam)


class TestScaling:
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("vectors", [True, False])
    def test_extreme_scales_match_lapack(self, rng, scale, vectors):
        n = 120
        d = rng.standard_normal(n) * scale
        e = rng.standard_normal(n - 1) * scale
        # 24-wide leaves, so the merges run at the extreme scales too.
        lam, U = dc_eigh(d, e, compute_vectors=vectors, base_size=24)
        assert np.all(np.isfinite(lam))
        assert_matches_lapack(d, e, lam)
        if vectors:
            assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-12

    def test_power_of_two_scaling_is_exact(self, rng):
        d, e = rng.standard_normal(90), rng.standard_normal(89)
        lam, U = dc_eigh(d, e, base_size=24)
        lam_s, U_s = dc_eigh(d * 2.0**40, e * 2.0**40, base_size=24)
        assert np.array_equal(lam_s, lam * 2.0**40)
        assert np.array_equal(U_s, U)

    def test_zero_matrix(self):
        lam, U = dc_eigh(np.zeros(30), np.zeros(29), base_size=24)
        assert np.array_equal(lam, np.zeros(30))
        assert np.linalg.norm(U.T @ U - np.eye(30)) < 1e-14


class TestLeafFailure:
    def test_lapack_failure_is_typed(self, monkeypatch, rng):
        def failing_eigh(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(dc_module.np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError) as info:
            dc_eigh(rng.standard_normal(60), rng.standard_normal(59))
        assert info.value.site == "dc.leaf"

    def test_injected_leaf_fault_raises_typed(self, rng):
        with injected_faults(FaultSpec("dc.leaf", "convergence")):
            with pytest.raises(ConvergenceError) as info:
                dc_eigh(rng.standard_normal(40), rng.standard_normal(39))
        assert info.value.site == "dc.leaf"

    def test_fallback_chain_recovers(self):
        A = goe(48, seed=11)
        with injected_faults(FaultSpec("dc.leaf", "convergence", times=1)):
            with pytest.raises(ConvergenceError):
                repro.eigh(A)
        with injected_faults(FaultSpec("dc.leaf", "convergence", times=1)):
            res = repro.eigh(A, fallback="chain")
        dense = repro.eigh(A, method="dense")
        np.testing.assert_array_equal(res.eigenvalues, dense.eigenvalues)
