"""Unit tests for the SVD pipeline (bidiagonalization + Golub-Kahan)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.storage import dense_from_band
from repro.core.svd import bidiagonalize, golub_kahan_tridiagonal, svd


class TestBidiagonalize:
    @pytest.mark.parametrize("m,n", [(5, 5), (12, 8), (30, 30), (40, 7), (3, 1)])
    def test_factorization(self, rng, m, n):
        A = rng.standard_normal((m, n))
        bd = bidiagonalize(A)
        # Rebuild B and check A = U B V^T by applying the factors.
        B = np.zeros((m, n))
        B[np.arange(n), np.arange(n)] = bd.d
        B[np.arange(n - 1), np.arange(1, n)] = bd.f
        UB = B.copy()
        bd.apply_u(UB)  # U @ B
        VT = np.eye(n)
        bd.apply_v(VT)  # V
        assert np.linalg.norm(UB @ VT.T - A) / max(np.linalg.norm(A), 1) < 1e-13

    def test_u_v_orthogonal(self, rng):
        A = rng.standard_normal((14, 9))
        bd = bidiagonalize(A)
        U = np.eye(14)
        bd.apply_u(U)
        V = np.eye(9)
        bd.apply_v(V)
        assert np.linalg.norm(U.T @ U - np.eye(14)) < 1e-13
        assert np.linalg.norm(V.T @ V - np.eye(9)) < 1e-13

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            bidiagonalize(rng.standard_normal((3, 5)))

    def test_input_not_modified(self, rng):
        A = rng.standard_normal((8, 6))
        A0 = A.copy()
        bidiagonalize(A)
        assert np.array_equal(A, A0)


class TestGolubKahan:
    def test_shuffle_structure(self, rng):
        d = rng.standard_normal(4)
        f = rng.standard_normal(3)
        dt, et = golub_kahan_tridiagonal(d, f)
        assert np.all(dt == 0.0)
        assert np.allclose(et, [d[0], f[0], d[1], f[1], d[2], f[2], d[3]])

    def test_spectrum_is_plus_minus_sigma(self, rng):
        d = rng.standard_normal(5)
        f = rng.standard_normal(4)
        B = np.diag(d) + np.diag(f, 1)
        sigma = np.linalg.svd(B, compute_uv=False)
        dt, et = golub_kahan_tridiagonal(d, f)
        lam = np.linalg.eigvalsh(dense_from_band(dt, et))
        expect = np.sort(np.concatenate([sigma, -sigma]))
        assert np.max(np.abs(np.sort(lam) - expect)) < 1e-12


class TestSVD:
    @pytest.mark.parametrize("m,n", [(6, 6), (20, 12), (33, 33), (50, 9)])
    def test_matches_numpy(self, rng, m, n):
        A = rng.standard_normal((m, n))
        s, U, V = svd(A)
        sref = np.linalg.svd(A, compute_uv=False)
        assert np.max(np.abs(s - sref)) < 1e-11 * max(sref[0], 1)
        assert np.linalg.norm((U * s) @ V.T - A) / np.linalg.norm(A) < 1e-12
        assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-11
        assert np.linalg.norm(V.T @ V - np.eye(n)) < 1e-11

    def test_values_descending_nonnegative(self, rng):
        s, _, _ = svd(rng.standard_normal((15, 10)))
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 1e-14)

    def test_rank_deficient(self, rng):
        A = rng.standard_normal((15, 4)) @ rng.standard_normal((4, 10))
        s, U, V = svd(A)
        assert np.sum(s > 1e-10 * s[0]) == 4
        assert np.linalg.norm((U * s) @ V.T - A) / np.linalg.norm(A) < 1e-12
        assert np.linalg.norm(U.T @ U - np.eye(10)) < 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(10)) < 1e-10

    def test_zero_matrix(self):
        s, U, V = svd(np.zeros((5, 3)))
        assert np.all(s == 0)
        assert np.linalg.norm(U.T @ U - np.eye(3)) < 1e-14

    def test_values_only(self, rng):
        A = rng.standard_normal((12, 7))
        s, U, V = svd(A, compute_vectors=False)
        assert U is None and V is None
        assert np.max(np.abs(s - np.linalg.svd(A, compute_uv=False))) < 1e-12

    def test_orthogonal_input(self):
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((9, 9)))
        s, _, _ = svd(Q)
        assert np.max(np.abs(s - 1.0)) < 1e-12

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            svd(rng.standard_normal((4, 9)))

    def test_known_singular_values(self):
        A = np.diag([5.0, 3.0, 1.0]) @ np.eye(3)
        s, U, V = svd(A)
        assert np.allclose(s, [5.0, 3.0, 1.0])
        assert np.allclose(np.abs(U), np.eye(3), atol=1e-12)


class TestContextThreading:
    """Regression: `svd` must run its D&C solve on the caller's context
    (it used to re-resolve a fresh one, bypassing backend/workspace/hooks)."""

    def test_caller_context_receives_stage_events(self, rng):
        from repro.backend.context import ExecutionContext

        events = []
        ctx = ExecutionContext(hooks=[events.append])
        A = rng.standard_normal((36, 30))  # GK tridiagonal size 60: real merges
        s, U, V = svd(A, backend=ctx)
        stages = {ev.stage for ev in events}
        # The bidiagonalization, the tridiagonal solve, and the D&C
        # sub-stages all flow through the caller's hooks.
        assert {"bidiagonalize", "tridiag_solver"} <= stages
        assert {"dc_deflate", "dc_secular", "dc_gemm"} <= stages
        assert "tridiag_solver" in ctx.stage_times
        # And the result is still correct.
        assert np.max(np.abs(s - np.linalg.svd(A, compute_uv=False))) < 1e-11

    def test_caller_workspace_is_used(self, rng):
        from repro.backend.context import ExecutionContext

        ctx = ExecutionContext()
        svd(rng.standard_normal((40, 40)), backend=ctx)
        # Batched secular scratch was drawn from *this* pool.
        assert ctx.workspace.nbytes > 0

    def test_backend_string_accepted(self, rng):
        A = rng.standard_normal((10, 6))
        s_default, _, _ = svd(A)
        s_named, _, _ = svd(A, backend="numpy")
        assert np.array_equal(s_default, s_named)

    def test_gk_solve_matches_scalar_secular_oracle(self, rng):
        # svd runs the batched secular mode; solving its Golub-Kahan
        # tridiagonal with the scalar dc_eigh oracle gives the same values.
        from repro.eig import dc_eigh

        n = 18
        A = rng.standard_normal((n, n))
        s_b, _, _ = svd(A)
        bd = bidiagonalize(A)
        lam, _ = dc_eigh(
            *golub_kahan_tridiagonal(bd.d, bd.f),
            compute_vectors=False,
            secular_mode="scalar",
        )
        s_s = np.maximum(lam[2 * n - 1 : n - 1 : -1], 0.0)
        assert np.max(np.abs(s_b - s_s)) < 1e-12 * max(s_s[0], 1.0)
