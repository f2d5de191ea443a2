"""Unit tests for Householder reflectors and WY accumulations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.householder import (
    WYAccumulator,
    accumulate_wy,
    apply_householder_left,
    apply_householder_right,
    apply_householder_two_sided,
    batched_make_householder,
    build_q_from_compact_wy,
    build_q_from_wy,
    larft,
    make_householder,
    merge_wy,
)


def dense_h(v: np.ndarray, tau: float) -> np.ndarray:
    return np.eye(v.size) - tau * np.outer(v, v)


class TestMakeHouseholder:
    def test_annihilates_tail(self, rng):
        x = rng.standard_normal(9)
        v, tau, beta = make_householder(x)
        y = dense_h(v, tau) @ x
        assert abs(y[0] - beta) < 1e-14
        assert np.max(np.abs(y[1:])) < 1e-13

    def test_norm_preserved(self, rng):
        x = rng.standard_normal(12)
        _, _, beta = make_householder(x)
        assert abs(abs(beta) - np.linalg.norm(x)) < 1e-12

    def test_unit_leading_element(self, rng):
        v, _, _ = make_householder(rng.standard_normal(5))
        assert v[0] == 1.0

    def test_sign_avoids_cancellation(self):
        # beta must have the opposite sign of x[0].
        v, tau, beta = make_householder(np.array([3.0, 4.0]))
        assert beta == -5.0

    def test_already_annihilated_gives_identity(self):
        x = np.array([2.5, 0.0, 0.0])
        v, tau, beta = make_householder(x)
        assert tau == 0.0
        assert beta == 2.5

    def test_length_one_vector(self):
        v, tau, beta = make_householder(np.array([-7.0]))
        assert tau == 0.0 and beta == -7.0

    def test_reflector_is_orthogonal_and_symmetric(self, rng):
        v, tau, _ = make_householder(rng.standard_normal(7))
        H = dense_h(v, tau)
        assert np.linalg.norm(H @ H - np.eye(7)) < 1e-13
        assert np.linalg.norm(H - H.T) < 1e-14

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_householder(np.zeros(0))

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            make_householder(np.zeros((3, 3)))


class TestApplications:
    def test_left_matches_dense(self, rng):
        v, tau, _ = make_householder(rng.standard_normal(6))
        C = rng.standard_normal((6, 4))
        expect = dense_h(v, tau) @ C
        apply_householder_left(C, v, tau)
        assert np.allclose(C, expect, atol=1e-13)

    def test_right_matches_dense(self, rng):
        v, tau, _ = make_householder(rng.standard_normal(6))
        C = rng.standard_normal((4, 6))
        expect = C @ dense_h(v, tau)
        apply_householder_right(C, v, tau)
        assert np.allclose(C, expect, atol=1e-13)

    def test_two_sided_matches_dense(self, rng):
        v, tau, _ = make_householder(rng.standard_normal(6))
        B = rng.standard_normal((6, 6))
        B = (B + B.T) / 2
        H = dense_h(v, tau)
        expect = H @ B @ H
        apply_householder_two_sided(B, v, tau)
        assert np.allclose(B, expect, atol=1e-12)

    def test_two_sided_preserves_symmetry(self, rng):
        v, tau, _ = make_householder(rng.standard_normal(8))
        B = rng.standard_normal((8, 8))
        B = (B + B.T) / 2
        apply_householder_two_sided(B, v, tau)
        assert np.linalg.norm(B - B.T) < 1e-13

    def test_tau_zero_is_noop(self, rng):
        C = rng.standard_normal((5, 5))
        C0 = C.copy()
        apply_householder_left(C, np.ones(5), 0.0)
        apply_householder_right(C, np.ones(5), 0.0)
        assert np.array_equal(C, C0)


class TestWYAccumulator:
    def test_matches_explicit_product(self, rng):
        m, k = 10, 4
        acc = WYAccumulator(m)
        expect = np.eye(m)
        for _ in range(k):
            v, tau, _ = make_householder(rng.standard_normal(m))
            acc.append(v, tau)
            expect = expect @ dense_h(v, tau)
        assert np.allclose(acc.q(), expect, atol=1e-13)

    def test_growth_beyond_capacity(self, rng):
        acc = WYAccumulator(6, capacity=1)
        for _ in range(5):
            v, tau, _ = make_householder(rng.standard_normal(6))
            acc.append(v, tau)
        assert acc.k == 5
        assert acc.W.shape == (6, 5)

    def test_q_is_orthogonal(self, rng):
        acc = WYAccumulator(8)
        for _ in range(3):
            v, tau, _ = make_householder(rng.standard_normal(8))
            acc.append(v, tau)
        Q = acc.q()
        assert np.linalg.norm(Q.T @ Q - np.eye(8)) < 1e-13

    def test_shape_mismatch_rejected(self):
        acc = WYAccumulator(5)
        with pytest.raises(ValueError):
            acc.append(np.ones(4), 1.0)

    def test_accumulate_wy_equivalent(self, rng):
        m, k = 9, 3
        V = np.zeros((m, k))
        taus = np.zeros(k)
        for j in range(k):
            v, tau, _ = make_householder(rng.standard_normal(m))
            V[:, j] = v
            taus[j] = tau
        W, Y = accumulate_wy(V, taus)
        acc = WYAccumulator(m)
        for j in range(k):
            acc.append(V[:, j], taus[j])
        assert np.allclose(W, acc.W) and np.allclose(Y, acc.Y)


class TestCompactWY:
    def test_larft_matches_wy(self, rng):
        m, k = 12, 4
        V = np.zeros((m, k))
        taus = np.zeros(k)
        A = rng.standard_normal((m, k))
        # Build proper unit-lower reflectors from a QR-like sweep.
        for j in range(k):
            v, tau, _ = make_householder(A[j:, j])
            V[j:, j] = v
            taus[j] = tau
            w = tau * (v @ A[j:, j + 1 :])
            A[j:, j + 1 :] -= np.outer(v, w)
        T = larft(V, taus)
        W, Y = accumulate_wy(V, taus)
        Q1 = build_q_from_compact_wy(V, T)
        Q2 = build_q_from_wy(W, Y)
        assert np.allclose(Q1, Q2, atol=1e-13)

    def test_w_equals_v_times_t(self, rng):
        m, k = 10, 3
        V = np.zeros((m, k))
        taus = np.zeros(k)
        for j in range(k):
            x = rng.standard_normal(m - j)
            v, tau, _ = make_householder(x)
            V[j:, j] = v
            taus[j] = tau
        T = larft(V, taus)
        W, Y = accumulate_wy(V, taus)
        assert np.allclose(W, V @ T, atol=1e-13)

    def test_larft_upper_triangular(self, rng):
        V = np.tril(rng.standard_normal((8, 4)))
        np.fill_diagonal(V, 1.0)
        T = larft(V, np.full(4, 0.5))
        assert np.allclose(T, np.triu(T))


class TestMergeWY:
    def test_merge_equals_product(self, rng):
        m = 10
        V1 = np.zeros((m, 2))
        t1 = np.zeros(2)
        V2 = np.zeros((m, 3))
        t2 = np.zeros(3)
        for j in range(2):
            V1[:, j], t1[j], _ = make_householder(rng.standard_normal(m))
        for j in range(3):
            V2[:, j], t2[j], _ = make_householder(rng.standard_normal(m))
        W1, Y1 = accumulate_wy(V1, t1)
        W2, Y2 = accumulate_wy(V2, t2)
        W, Y = merge_wy(W1, Y1, W2, Y2)
        expect = build_q_from_wy(W1, Y1) @ build_q_from_wy(W2, Y2)
        assert np.allclose(build_q_from_wy(W, Y), expect, atol=1e-13)

    def test_merge_widths_add(self, rng):
        W1 = rng.standard_normal((7, 2))
        Y1 = rng.standard_normal((7, 2))
        W2 = rng.standard_normal((7, 3))
        Y2 = rng.standard_normal((7, 3))
        W, Y = merge_wy(W1, Y1, W2, Y2)
        assert W.shape == (7, 5) and Y.shape == (7, 5)


class TestBatchedMakeHouseholder:
    def test_matches_scalar_kernel(self, rng):
        # Agreement is to the last ulp: the batched inner product (einsum)
        # may sum in a different order than the scalar np.dot.
        X = rng.standard_normal((7, 9))
        V, tau, beta = batched_make_householder(X)
        for s in range(7):
            v_s, tau_s, beta_s = make_householder(X[s])
            assert np.allclose(V[s], v_s, rtol=1e-14, atol=0.0)
            assert np.isclose(tau[s], tau_s, rtol=1e-14, atol=0.0)
            assert np.isclose(beta[s], beta_s, rtol=1e-14, atol=0.0)

    def test_annihilates_all_tails(self, rng):
        X = rng.standard_normal((5, 6))
        V, tau, beta = batched_make_householder(X)
        for s in range(5):
            y = dense_h(V[s], tau[s]) @ X[s]
            assert abs(y[0] - beta[s]) < 1e-12
            assert np.max(np.abs(y[1:])) < 1e-12

    def test_already_annihilated_rows(self, rng):
        # Mixed batch: rows with zero tails take the tau == 0 identity
        # path without disturbing their neighbours.
        X = rng.standard_normal((4, 5))
        X[1, 1:] = 0.0
        X[3, 1:] = 0.0
        V, tau, beta = batched_make_householder(X)
        assert tau[1] == 0.0 and beta[1] == X[1, 0]
        assert np.array_equal(V[1], np.eye(5)[0])
        for s in (0, 2):
            v_s, tau_s, beta_s = make_householder(X[s])
            assert np.allclose(V[s], v_s, rtol=1e-14, atol=0.0)
            assert np.isclose(tau[s], tau_s, rtol=1e-14, atol=0.0)
            assert np.isclose(beta[s], beta_s, rtol=1e-14, atol=0.0)

    def test_length_one_vectors(self, rng):
        X = rng.standard_normal((3, 1))
        V, tau, beta = batched_make_householder(X)
        assert np.array_equal(V, np.ones((3, 1)))
        assert np.array_equal(tau, np.zeros(3))
        assert np.array_equal(beta, X[:, 0])

    def test_input_not_modified(self, rng):
        X = rng.standard_normal((4, 6))
        X0 = X.copy()
        batched_make_householder(X)
        assert np.array_equal(X, X0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batched_make_householder(np.zeros(5))
        with pytest.raises(ValueError):
            batched_make_householder(np.zeros((3, 0)))


def _scaled_residual(x, v, tau, beta):
    """``||(I - tau v v^T) x - beta e_1|| / ||x||``, evaluated on ``x``
    scaled by a power of two into the normal range (exact, and scaling
    commutes with the reflector) so the norms cannot underflow."""
    k = -int(np.frexp(np.abs(x).max())[1])
    y = np.ldexp(x.astype(np.float64), k)
    r = y - float(tau) * v * float(v @ y)
    r[0] -= np.ldexp(float(beta), k)
    return np.linalg.norm(r) / np.linalg.norm(y)


class TestUnderflowRescale:
    """Tails whose squares underflow are annihilated, not mistaken for
    zero tails (``dlarfg``'s rescale)."""

    @pytest.mark.parametrize("scale", [1e-163, 1e-300])
    @pytest.mark.parametrize("zero_head", [False, True])
    def test_both_kernels_annihilate(self, rng, scale, zero_head):
        m = 20
        x = rng.standard_normal(m) * scale
        if zero_head:
            x[0] = 0.0
        assert np.dot(x[1:], x[1:]) < np.finfo(np.float64).tiny
        tol = 10 * m * np.finfo(np.float64).eps
        v, tau, beta = make_householder(x)
        assert tau != 0.0 and v[0] == 1.0
        assert _scaled_residual(x, v, tau, beta) <= tol
        # The tiny row sits between normal ones in the batch.
        X = np.vstack([rng.standard_normal(m), x, rng.standard_normal(m)])
        V, taus, betas = batched_make_householder(X)
        assert taus[1] != 0.0 and V[1, 0] == 1.0
        for s in range(3):
            assert _scaled_residual(X[s], V[s], taus[s], betas[s]) <= tol
        assert abs(betas[1] - beta) <= tol * abs(beta)

    def test_float32_denormal_tail(self, rng):
        m = 12
        x = (rng.standard_normal(m) * 64 * np.finfo(np.float32).tiny).astype(np.float32)
        x[0] = 0.0
        tol = 10 * m * np.finfo(np.float32).eps
        v, tau, beta = make_householder(x)
        assert tau != 0.0
        assert _scaled_residual(x, v, tau, beta) <= tol
        V, taus, betas = batched_make_householder(x[None, :])
        assert taus[0] != 0.0
        assert _scaled_residual(x, V[0], taus[0], betas[0]) <= tol

    def test_exactly_zero_tail_stays_identity(self):
        for head in (0.0, 1e-300, 2.0):
            x = np.array([head, 0.0, -0.0, 0.0])
            v, tau, beta = make_householder(x)
            assert tau == 0.0 and beta == head
            V, taus, betas = batched_make_householder(x[None, :])
            assert taus[0] == 0.0 and betas[0] == head
            assert np.array_equal(V[0], np.eye(4)[0])

    def test_normal_rows_unchanged_by_a_tiny_neighbour(self, rng):
        # A batch that takes the guarded path gives its normal rows the
        # same bits as the unguarded fast path.
        X = rng.standard_normal((6, 9))
        V0, tau0, beta0 = batched_make_householder(X)
        Xt = X.copy()
        Xt[2] *= 1e-300
        V, tau, beta = batched_make_householder(Xt)
        rows = [0, 1, 3, 4, 5]
        assert np.array_equal(V[rows], V0[rows])
        assert np.array_equal(tau[rows], tau0[rows])
        assert np.array_equal(beta[rows], beta0[rows])
        # ... and the tiny row is the normal one's reflector, beta scaled.
        np.testing.assert_allclose(V[2], V0[2], rtol=1e-14)
        np.testing.assert_allclose(beta[2], beta0[2] * 1e-300, rtol=1e-14)
