"""Unit tests for blocked direct (one-stage) tridiagonalization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.storage import dense_from_band
from repro.core.back_transform import q_from_blocks
from repro.core.direct_tridiag import direct_tridiagonalize
from repro.core.tridiag import tridiagonalize
from tests.conftest import make_symmetric

GRID = [(10, 3), (30, 8), (33, 32), (50, 16), (3, 1)]


class TestDirectTridiag:
    @pytest.mark.parametrize("n,nb", GRID)
    def test_reconstruction(self, n, nb):
        A = make_symmetric(n, seed=n + nb)
        res = direct_tridiagonalize(A, block=nb)
        T = dense_from_band(res.d, res.e)
        Q = q_from_blocks(res.blocks, n)
        assert np.linalg.norm(Q @ T @ Q.T - A) / np.linalg.norm(A) < 1e-13
        assert np.array_equal(res.q(), Q)

    @pytest.mark.parametrize("n,nb", GRID)
    def test_one_wy_block_per_panel(self, n, nb):
        res = direct_tridiagonalize(make_symmetric(n, seed=n + nb), block=nb)
        starts = list(range(0, n - 2, nb))
        assert [blk.offset for blk in res.blocks] == [j0 + 1 for j0 in starts]
        assert sum(blk.width for blk in res.blocks) == n - 2
        for blk in res.blocks:
            assert blk.width <= nb and blk.rows == n - blk.offset
            Y = blk.Y
            assert np.array_equal(np.diagonal(Y), np.ones(blk.width))
            assert np.array_equal(np.triu(Y, 1), np.zeros_like(Y))

    def test_q_orthogonal(self):
        A = make_symmetric(40, seed=1)
        res = direct_tridiagonalize(A, block=8)
        Q = res.q()
        assert np.linalg.norm(Q.T @ Q - np.eye(40)) < 1e-13

    def test_block_size_does_not_change_result(self):
        A = make_symmetric(25, seed=2)
        r1 = direct_tridiagonalize(A, block=1)
        r2 = direct_tridiagonalize(A, block=8)
        r3 = direct_tridiagonalize(A, block=64)
        assert np.allclose(r1.d, r2.d, atol=1e-11)
        assert np.allclose(np.abs(r1.e), np.abs(r3.e), atol=1e-11)

    def test_matches_scipy_hessenberg_spectrum(self):
        from scipy.linalg import eigh_tridiagonal

        A = make_symmetric(30, seed=3)
        res = direct_tridiagonalize(A)
        lam_t = eigh_tridiagonal(res.d, res.e, eigvals_only=True)
        lam_a = np.linalg.eigvalsh(A)
        assert np.max(np.abs(lam_t - lam_a)) < 1e-11

    def test_blas2_fraction_near_half(self):
        A = make_symmetric(64, seed=4)
        res = direct_tridiagonalize(A, block=8)
        # A large share of the flops are the symv — the BLAS2 bottleneck
        # of Section 2.2 (the exact share depends on block size and the
        # look-ahead correction accounting).
        frac = res.blas2_flops / res.flops
        assert 0.25 < frac < 0.7

    def test_apply_q_transpose_inverts(self, rng):
        A = make_symmetric(22, seed=5)
        res = tridiagonalize(A, method="direct")
        X = rng.standard_normal((22, 3))
        Y = X.copy()
        res.apply_q(Y)
        res.apply_q_transpose(Y)
        assert np.allclose(X, Y, atol=1e-12)

    def test_apply_q_on_negative_column_stride(self, rng):
        # The D&C hands back F-ordered eigenvectors in reversed column order.
        n = 70
        res = tridiagonalize(make_symmetric(n, seed=7), method="direct")
        F = np.asfortranarray(rng.standard_normal((n, n)))[:, ::-1]
        C = np.ascontiguousarray(F)
        res.apply_q(F)
        res.apply_q(C)
        assert np.max(np.abs(F - C)) < 1e-13

    def test_tiny_matrices(self):
        for n in [1, 2]:
            A = make_symmetric(n, seed=n)
            res = direct_tridiagonalize(A)
            assert res.d.size == n
            assert np.allclose(res.d, np.diagonal(A))

    def test_input_not_modified(self):
        A = make_symmetric(15, seed=6)
        A0 = A.copy()
        direct_tridiagonalize(A)
        assert np.array_equal(A, A0)

    def test_diagonal_input(self):
        A = np.diag(np.arange(1.0, 11.0))
        res = direct_tridiagonalize(A)
        assert np.allclose(np.sort(res.d), np.arange(1.0, 11.0))
        assert np.max(np.abs(res.e)) < 1e-14
