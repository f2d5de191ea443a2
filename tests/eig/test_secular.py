"""Unit tests for the rank-one secular stage ``rank_one_eigh``.

Every numerical test runs twice, once per ``mode``: ``batched`` is the
production path (one LAPACK ``dlaed9`` call: ``dlaed4`` roots, the
Gu–Eisenstat ``z`` and the eigenvectors) and ``scalar`` the per-root
oracle loops of ``tests/oracles.py``, so both are held to the same
invariants.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.backend import lapack
from repro.eig.secular import rank_one_eigh
from repro.resilience import ConvergenceError
from tests.oracles import (
    rank_one_eigh_scalar,
    secular_f,
    solve_secular_root,
)

_EPS = np.finfo(np.float64).eps

_IMPLS = {"batched": rank_one_eigh, "scalar": rank_one_eigh_scalar}


@pytest.fixture(params=["scalar", "batched"])
def mode(request):
    return _IMPLS[request.param]


def random_problem(rng, N=20, zscale=1.0):
    d = np.sort(rng.standard_normal(N))
    d += np.arange(N) * 1e-6  # ensure distinct poles
    z = rng.standard_normal(N) * zscale
    z[np.abs(z) < 1e-3 * zscale] = 1e-3 * zscale
    rho = float(abs(rng.standard_normal()) + 0.1)
    return d, z, rho


def refined_z(d, lam, S, rho):
    """The ``z_hat`` the eigenvectors were formed from.

    Column ``i`` of ``S`` is ``z_hat / (d - lam_i)`` normalized; the last
    root lies above every pole, and the secular equation at it fixes the
    normalization without cancellation.
    """
    u, gap = S[:, -1], lam[-1] - d
    return -u * gap / np.sqrt(rho * float(np.sum(u * u * gap)))


class TestRoots:
    def test_interlacing(self, rng, mode):
        d, z, rho = random_problem(rng)
        lam, _ = mode(d, z, rho)
        # rho > 0: d_i < lam_i < d_{i+1} (lam_N beyond d_N).
        assert np.all(lam[:-1] > d[:-1]) and np.all(lam[:-1] < d[1:])
        assert lam[-1] > d[-1]

    def test_matches_dense_eigensolver(self, rng, mode):
        d, z, rho = random_problem(rng, N=30)
        lam, _ = mode(d, z, rho)
        lam_ref = np.linalg.eigvalsh(np.diag(d) + rho * np.outer(z, z))
        assert np.max(np.abs(np.sort(lam) - lam_ref) / (1 + np.abs(lam_ref))) < 1e-13

    def test_residual_of_each_root(self, rng, mode):
        d, z, rho = random_problem(rng, N=15)
        z2 = z * z
        lam_all, _ = mode(d, z, rho)
        for lam in lam_all:
            # |f| should be at roundoff of its own evaluation.
            scale = 1.0 + rho * float(np.sum(np.abs(z2 / (d - lam))))
            assert abs(secular_f(lam, d, z2, rho)) < 1e-11 * scale

    def test_trace_identity(self, rng, mode):
        # sum lam = sum d + rho ||z||^2.
        d, z, rho = random_problem(rng, N=25)
        lam, _ = mode(d, z, rho)
        assert abs(np.sum(lam) - (np.sum(d) + rho * float(z @ z))) < 1e-10

    def test_large_z_scale(self, rng, mode):
        d, z, rho = random_problem(rng, N=20, zscale=1e4)
        M = np.diag(d) + rho * np.outer(z, z)
        lam, _ = mode(d, z, rho)
        lam_ref = np.linalg.eigvalsh(M)
        # Backward-error normalization: absolute errors scale with ||M||.
        scale = np.linalg.norm(M)
        assert np.max(np.abs(np.sort(lam) - lam_ref)) < 1e-13 * scale

    def test_tiny_z_component_root_hugs_pole(self, rng, mode):
        d = np.array([0.0, 1.0, 2.0])
        z = np.array([1.0, 1e-10, 1.0])
        rho = 0.5
        lam, _ = mode(d, z, rho)
        # Root 1 sits within ~rho*z^2 of its pole.
        assert abs(lam[1] - 1.0) < 1e-18

    def test_root_index_bounds(self, rng, mode):
        d, z, rho = random_problem(rng, N=5)
        with pytest.raises(IndexError):
            solve_secular_root(d, z**2, rho, 5)

    def test_negative_rho_rejected(self, rng, mode):
        d, z, rho = random_problem(rng, N=5)
        with pytest.raises(ValueError):
            solve_secular_root(d, z**2, -rho, 0)
        with pytest.raises(ValueError):
            mode(d, z, -rho)

    def test_unknown_mode_rejected(self, rng, mode):
        # There is one root engine: a mode switch fails loudly rather
        # than being ignored.
        d, z, rho = random_problem(rng, N=5)
        with pytest.raises(TypeError):
            rank_one_eigh(d, z, rho, mode="vectorised")


class TestRefineZ:
    """The Gu–Eisenstat ``z_hat``, read back from the eigenvectors."""

    def test_refined_close_to_original(self, rng, mode):
        d, z, rho = random_problem(rng, N=20)
        lam, S = mode(d, z, rho)
        zhat = refined_z(d, lam, S, rho)
        assert np.max(np.abs(zhat - z) / np.abs(z)) < 1e-8

    def test_signs_preserved(self, rng, mode):
        d, z, rho = random_problem(rng, N=16)
        lam, S = mode(d, z, rho)
        assert np.all(np.sign(refined_z(d, lam, S, rho)) == np.sign(z))

    def test_roots_exact_for_refined_problem(self, rng, mode):
        d, z, rho = random_problem(rng, N=12)
        lam, S = mode(d, z, rho)
        zhat = refined_z(d, lam, S, rho)
        lam_hat = np.linalg.eigvalsh(np.diag(d) + rho * np.outer(zhat, zhat))
        assert np.max(np.abs(np.sort(lam) - lam_hat)) < 1e-11


class TestEigenvectors:
    def test_orthonormal(self, rng, mode):
        d, z, rho = random_problem(rng, N=25)
        _, U = mode(d, z, rho)
        assert np.linalg.norm(U.T @ U - np.eye(25)) < 1e-12

    def test_residual(self, rng, mode):
        d, z, rho = random_problem(rng, N=25)
        M = np.diag(d) + rho * np.outer(z, z)
        lam, U = mode(d, z, rho)
        assert np.linalg.norm(M @ U - U * lam) / np.linalg.norm(M) < 1e-11

    def test_clustered_poles_stay_orthogonal(self, rng, mode):
        # Poles separated by barely more than deflation tolerances.
        N = 10
        d = np.sort(np.concatenate([np.zeros(5), np.ones(5)]) + 1e-7 * np.arange(N))
        z = rng.standard_normal(N)
        _, U = mode(d, z, 1.0)
        assert np.linalg.norm(U.T @ U - np.eye(N)) < 1e-10


class TestBatchedOracleAgreement:
    """Production (``dlaed9``) against the scalar oracle on hostile inputs."""

    def assert_modes_agree(self, d, z, rho, mode):
        del mode  # both run explicitly; keeps the shared parametrization
        ls, Us = rank_one_eigh_scalar(d, z, rho)
        lb, Ub = rank_one_eigh(d, z, rho)
        scale = max(float(np.max(np.abs(d))) + rho * float(z @ z), 1.0)
        assert np.max(np.abs(ls - lb)) <= 4.0 * _EPS * scale
        # Columns are sign-fixed by z_hat, except for K = 1, where
        # dlaed4 returns the eigenvector +1.
        if d.size == 1:
            Us = np.abs(Us)
        assert np.max(np.abs(Us - Ub)) < 1e-11

    def test_random(self, rng, mode):
        d, z, rho = random_problem(rng, N=40)
        self.assert_modes_agree(d, z, rho, mode)

    def test_clustered_poles_8eps(self, rng, mode):
        # Pole spacing of ~8*eps*scale: just above what dlaed2-style
        # deflation removes, the hardest surviving geometry.
        N = 24
        d = 1.0 + 8.0 * _EPS * np.arange(N)
        z = rng.standard_normal(N)
        z[np.abs(z) < 1e-3] = 1e-3
        self.assert_modes_agree(d, z, 1.0, mode)

    def test_degenerate_n1(self, rng, mode):
        self.assert_modes_agree(np.array([0.3]), np.array([0.9]), 0.8, mode)

    def test_degenerate_n2(self, rng, mode):
        self.assert_modes_agree(
            np.array([-0.5, 0.25]), np.array([0.6, -0.7]), 1.3, mode
        )

    def test_wide_dynamic_range(self, rng, mode):
        d = np.geomspace(1e-8, 1e8, 30)
        z = rng.standard_normal(30)
        z[np.abs(z) < 1e-3] = 1e-3
        self.assert_modes_agree(d, z, 0.5, mode)


def assert_roots_match(d, z, rho, factor=4.0):
    """Each ``dlaed9`` root against the scalar oracle (value within
    ``factor`` eps of the problem's scale) and against ``eigvalsh`` of the
    dense ``D + rho z z^T``."""
    got, _ = rank_one_eigh(d, z, rho)
    ref, _ = rank_one_eigh_scalar(d, z, rho)
    scale = max(float(np.max(np.abs(d))) + rho * float(z @ z), 1.0)
    assert np.max(np.abs(got - ref)) <= factor * _EPS * scale
    dense = np.linalg.eigvalsh(np.diag(d) + rho * np.outer(z, z))
    assert np.max(np.abs(got - dense)) <= 8.0 * d.size * _EPS * scale
    return got


class TestDlaed4Roots:
    """The ``dlaed4`` roots inside ``dlaed9`` on the geometries ``dlaed4``
    special-cases."""

    def test_poles_1e12_apart(self, rng):
        d = np.sort(np.concatenate([rng.standard_normal(6), 0.5 + 1e-12 * np.arange(6)]))
        z = rng.standard_normal(d.size)
        z[np.abs(z) < 1e-2] = 1e-2
        lam = assert_roots_match(d, z, 0.9)
        # The clustered roots sit between their poles, resolved far below
        # the pole spacing.
        assert np.all(lam[:-1] >= d[:-1]) and np.all(lam[:-1] <= d[1:])

    def test_tiny_z(self, rng):
        d = np.sort(rng.standard_normal(20)) + 1e-6 * np.arange(20)
        z = rng.standard_normal(20)
        z[::4] = 1e-9
        lam = assert_roots_match(d, z, 0.7)
        # A tiny weight pins a root to its pole, within about rho z_j^2.
        for j in range(0, 20, 4):
            assert np.min(np.abs(lam - d[j])) < 1e-15

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_smallest_sizes(self, rng, N):
        for _ in range(20):
            d = np.sort(rng.standard_normal(N)) + 1e-3 * np.arange(N)
            z = rng.standard_normal(N)
            assert_roots_match(d, z, float(abs(rng.standard_normal()) + 0.05))

    def test_n2_both_anchor_sides(self):
        # f(midpoint) > 0 puts root 0 nearer the lower pole, < 0 nearer
        # the upper one: both branches of dlaed5's closed form.
        d = np.array([0.0, 1.0])
        for z in (np.array([0.1, 1.0]), np.array([1.0, 0.1])):
            lam = assert_roots_match(d, z, 2.0)
            assert (lam[0] - d[0] < d[1] - lam[0]) == (z[0] < z[1])

    def test_large_merge(self):
        rng = np.random.default_rng(7)
        N = 2000
        d = np.sort(rng.standard_normal(N)) + 1e-9 * np.arange(N)
        z = rng.standard_normal(N)
        z /= np.linalg.norm(z)
        assert_roots_match(d, z, 0.6, factor=16.0)

    def test_unnormalized_z_and_rho(self, rng):
        # dlaed9 wants a unit z; the scaling into rho must be exact enough.
        d = np.sort(rng.standard_normal(30)) + 1e-6 * np.arange(30)
        for zscale in (1e-6, 1e5):
            assert_roots_match(d, rng.standard_normal(30) * zscale, 0.3, factor=8.0)

    def test_mismatched_lengths_rejected(self):
        # dlaed9 reads K entries of each buffer: a short z must not reach it.
        with pytest.raises(ValueError):
            rank_one_eigh(np.arange(4.0), np.ones(3), 1.0)

    def test_undeflated_zero_z_is_info_1(self):
        d = np.array([0.0, 1.0, 2.0, 3.0])
        z = np.array([0.5, 0.0, 0.5, 0.5])
        with pytest.raises(ConvergenceError) as info:
            rank_one_eigh(d, z, 1.0)
        assert info.value.site == "secular.newton"
        assert "INFO=1" in str(info.value)
        assert info.value.indices == [1]

    def test_scipy_fallback_gives_identical_roots(self, monkeypatch):
        if lapack._numpy_symbol("dlaed9", 13) is None:
            pytest.skip("this NumPy has no scipy_dlaed9_64_: the fallback is the default")
        rng = np.random.default_rng(3)
        d = np.sort(rng.standard_normal(64)) + 1e-6 * np.arange(64)
        z = rng.standard_normal(64)
        ref, S_ref = rank_one_eigh(d, z, 0.8)
        # A NumPy without the ILP64 symbol: the scipy LP64 capsule takes over.
        monkeypatch.setattr(lapack, "_numpy_symbol", lambda name, nargs: None)
        lapack.lapack_function.cache_clear()
        try:
            assert lapack.lapack_function("dlaed9", 13)[1] is ctypes.c_int32
            got, S = rank_one_eigh(d, z, 0.8)
        finally:
            lapack.lapack_function.cache_clear()
        # Two LAPACK builds of one routine: equal to roundoff.
        scale = max(float(np.max(np.abs(d))) + 0.8 * float(z @ z), 1.0)
        assert np.max(np.abs(got - ref)) <= 4.0 * _EPS * scale
        assert np.max(np.abs(S - S_ref)) <= 1e-13
