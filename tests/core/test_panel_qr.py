"""Unit tests for the panel QR factorization."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.backend import lapack
from repro.core.householder import build_q_from_wy
from repro.core.panel_qr import (
    _panel_wy,
    explicit_q,
    panel_qr,
    panel_qr_compact,
    panel_qr_wy,
)

class TestPanelQR:
    def test_r_is_upper_triangular(self, rng):
        P = rng.standard_normal((12, 5))
        _, _, R = panel_qr(P)
        assert np.allclose(R, np.triu(R))

    def test_reconstruction(self, rng):
        P = rng.standard_normal((10, 4))
        V, taus, R = panel_qr(P)
        Q = explicit_q(V, taus)
        full_r = np.zeros_like(P)
        full_r[:4] = R
        assert np.allclose(Q @ full_r, P, atol=1e-13)

    def test_matches_numpy_qr_up_to_signs(self, rng):
        P = rng.standard_normal((15, 6))
        _, _, R = panel_qr(P)
        _, R_np = np.linalg.qr(P)
        assert np.allclose(np.abs(R), np.abs(R_np), atol=1e-12)

    def test_v_unit_lower_trapezoidal(self, rng):
        P = rng.standard_normal((9, 3))
        V, _, _ = panel_qr(P)
        for j in range(3):
            assert V[j, j] == 1.0
            assert np.all(V[:j, j] == 0.0)

    def test_square_panel(self, rng):
        P = rng.standard_normal((5, 5))
        V, taus, R = panel_qr(P)
        Q = explicit_q(V, taus)
        assert np.allclose(Q @ R, P, atol=1e-13)

    def test_single_column(self, rng):
        P = rng.standard_normal((8, 1))
        V, taus, R = panel_qr(P)
        assert abs(abs(R[0, 0]) - np.linalg.norm(P)) < 1e-13

    def test_wide_panel_rejected(self, rng):
        with pytest.raises(ValueError):
            panel_qr(rng.standard_normal((3, 5)))

    def test_input_not_modified(self, rng):
        P = rng.standard_normal((7, 3))
        P0 = P.copy()
        panel_qr(P)
        assert np.array_equal(P, P0)

    def test_rank_deficient_panel(self, rng):
        col = rng.standard_normal(8)
        P = np.column_stack([col, 2 * col, rng.standard_normal(8)])
        V, taus, R = panel_qr(P)
        Q = explicit_q(V, taus)
        full_r = np.zeros_like(P)
        full_r[:3] = R
        assert np.allclose(Q @ full_r, P, atol=1e-12)
        assert abs(R[1, 1]) < 1e-12  # deficiency shows up on the diagonal


class TestPanelQRWY:
    def test_q_orthogonal(self, rng):
        P = rng.standard_normal((11, 4))
        W, Y, _ = panel_qr_wy(P)
        Q = build_q_from_wy(W, Y)
        assert np.linalg.norm(Q.T @ Q - np.eye(11)) < 1e-13

    def test_qt_panel_is_r(self, rng):
        P = rng.standard_normal((10, 3))
        W, Y, R = panel_qr_wy(P)
        Q = build_q_from_wy(W, Y)
        top = (Q.T @ P)[:3]
        assert np.allclose(top, R, atol=1e-12)
        assert np.max(np.abs((Q.T @ P)[3:])) < 1e-12


class TestPanelQRCompact:
    def test_compact_matches_wy(self, rng):
        P = rng.standard_normal((13, 5))
        W, Y, _ = panel_qr_wy(P)
        V, T, _ = panel_qr_compact(P)
        assert np.allclose(W, V @ T, atol=1e-12)
        assert np.allclose(Y, V)

    def test_t_upper_triangular(self, rng):
        P = rng.standard_normal((9, 4))
        _, T, _ = panel_qr_compact(P)
        assert np.allclose(T, np.triu(T))


def _wy_tol(dt, m):
    """Roundoff tolerance for two QR algorithms on an ``m``-row panel."""
    return 20.0 * m * float(np.finfo(dt).eps)


def _check_factors(P, W, Y, R, tol):
    """``I - W Y^T`` orthogonal and ``(I - W Y^T) [R; 0] == P``."""
    m, w = P.shape
    Q = np.eye(m) - W.astype(np.float64) @ Y.T.astype(np.float64)
    assert np.linalg.norm(Q.T @ Q - np.eye(m)) < tol
    full_r = np.zeros((m, w))
    full_r[: R.shape[0]] = R
    scale = max(float(np.abs(P).max()), np.finfo(P.dtype).tiny)
    assert np.abs(Q @ full_r - P).max() <= tol * scale


class TestPanelWYLapack:
    """The production ``?geqrt`` panel against the per-column oracle."""

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [1, 2, 16, 32])
    @pytest.mark.parametrize("rows", ["b+1", "2b", "517"])
    def test_matches_oracle(self, rng, rows, b, dt):
        m = {"b+1": b + 1, "2b": 2 * b, "517": 517}[rows]
        P = rng.standard_normal((m, b)).astype(dt)
        W, Y, R = _panel_wy(P)
        W0, Y0, R0 = panel_qr_wy(P)
        assert W.dtype == Y.dtype == R.dtype == dt
        assert W.shape == Y.shape == (m, b) and R.shape == (b, b)
        tol = _wy_tol(dt, m)
        np.testing.assert_allclose(W, W0, rtol=0, atol=tol)
        np.testing.assert_allclose(Y, Y0, rtol=0, atol=tol)
        np.testing.assert_allclose(R, R0, rtol=0, atol=tol * np.abs(P).max())
        assert np.array_equal(Y, np.tril(Y))
        assert np.all(np.diag(Y) == 1.0)
        _check_factors(P, W, Y, R, tol)

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    def test_zero_panel(self, dt):
        P = np.zeros((20, 4), dtype=dt)
        W, Y, R = _panel_wy(P)
        W0, Y0, R0 = panel_qr_wy(P)
        assert np.array_equal(W, W0) and not W.any()
        assert np.array_equal(Y, Y0)
        assert np.array_equal(R, R0) and not R.any()

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    def test_rank_deficient_panel(self, rng, dt):
        # The second reflector is built from roundoff, so only the
        # factorization's properties (not the oracle's bits) are defined.
        col = rng.standard_normal(40)
        P = np.column_stack([col, 2 * col, rng.standard_normal(40)]).astype(dt)
        W, Y, R = _panel_wy(P)
        _check_factors(P, W, Y, R, _wy_tol(dt, 40))
        _, _, R0 = panel_qr_wy(P)
        np.testing.assert_allclose(np.abs(R[0]), np.abs(R0[0]), rtol=_wy_tol(dt, 40))
        assert abs(R[1, 1]) < _wy_tol(dt, 40) * np.abs(P).max()

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    @pytest.mark.parametrize("beta", [3.5, -2.0])
    def test_column_already_reduced(self, rng, dt, beta):
        # x = beta e_1 is the identity reflector (tau = 0) with R[0, 0] =
        # beta, sign kept, in dlarfg and make_householder alike.
        P = rng.standard_normal((12, 3)).astype(dt)
        P[:, 0] = 0.0
        P[0, 0] = beta
        W, Y, R = _panel_wy(P)
        W0, Y0, R0 = panel_qr_wy(P)
        assert R[0, 0] == R0[0, 0] == dt(beta)
        assert not W[:, 0].any() and not W0[:, 0].any()
        tol = _wy_tol(dt, 12)
        np.testing.assert_allclose(W, W0, rtol=0, atol=tol)
        np.testing.assert_allclose(R, R0, rtol=0, atol=tol * np.abs(P).max())

    @pytest.mark.parametrize("dt,scale", [(np.float64, 1e-150), (np.float32, 1e-17)])
    @pytest.mark.parametrize("b", [1, 4])
    def test_rescaled_column_matches_oracle(self, rng, dt, scale, b):
        # ||x|| below sqrt(tiny)/eps with squares still normal: dlarfg's
        # 1/safmin rescale and make_householder's must agree.
        P = (rng.standard_normal((30, b)) * scale).astype(dt)
        W, Y, R = _panel_wy(P)
        W0, Y0, R0 = panel_qr_wy(P)
        tol = _wy_tol(dt, 30)
        np.testing.assert_allclose(W, W0, rtol=0, atol=tol)
        np.testing.assert_allclose(Y, Y0, rtol=0, atol=tol)
        assert np.abs(R.astype(np.float64) - R0).max() <= tol * np.abs(P).max()
        _check_factors(P, W, Y, R, tol)

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    @pytest.mark.parametrize("b", [1, 4])
    def test_denormal_range_column(self, rng, dt, b):
        # Entries near the smallest normal: their squares underflow to 0.
        # dlarfg's scaled norm still annihilates the column, and so does
        # the oracle's rescale (make_householder).
        tiny = np.finfo(dt).tiny
        P = (rng.standard_normal((30, b)) * 64 * tiny).astype(dt)
        W, Y, R = _panel_wy(P)
        tol = _wy_tol(dt, 30)
        _check_factors(P, W, Y, R, tol)
        assert W[:, 0].any()
        W0, _, _ = panel_qr_wy(P)
        np.testing.assert_allclose(W[:, 0], W0[:, 0], rtol=0, atol=tol)
        col = P[:, 0].astype(np.float64)
        assert abs(abs(float(R[0, 0])) - np.linalg.norm(col / tiny) * tiny) <= (
            tol * np.abs(col).max()
        )

    @pytest.mark.parametrize("m,w", [(5, 5), (3, 5), (1, 4), (9, 4)])
    def test_tile_shapes(self, rng, m, w):
        # A square or wide tile keeps only the reflectors with a
        # subdiagonal part; R is the upper-trapezoidal top.
        P = rng.standard_normal((m, w))
        W, Y, R = _panel_wy(P)
        r = min(m - 1, w)
        assert W.shape == Y.shape == (m, r)
        assert R.shape == (min(m, w), w)
        assert np.array_equal(R, np.triu(R))
        _check_factors(P, W, Y, R, _wy_tol(np.float64, m))

    def test_input_not_modified(self, rng):
        P = rng.standard_normal((30, 6))
        P0 = P.copy()
        _panel_wy(P)
        assert np.array_equal(P, P0)

    @pytest.mark.parametrize("dt", [np.float64, np.float32])
    def test_scipy_fallback_gives_same_factors(self, rng, monkeypatch, dt):
        pytest.importorskip("scipy.linalg")
        P = rng.standard_normal((100, 16)).astype(dt)
        W, Y, R = _panel_wy(P)
        # A NumPy without the ILP64 symbol: the scipy LP64 capsule takes over.
        monkeypatch.setattr(lapack, "_numpy_symbol", lambda name, nargs: None)
        lapack.lapack_function.cache_clear()
        try:
            Ws, Ys, Rs = _panel_wy(P)
        finally:
            lapack.lapack_function.cache_clear()
        tol = _wy_tol(dt, 100)
        np.testing.assert_allclose(Ws, W, rtol=0, atol=tol)
        np.testing.assert_allclose(Ys, Y, rtol=0, atol=tol)
        np.testing.assert_allclose(Rs, R, rtol=0, atol=tol * np.abs(P).max())
        _check_factors(P, Ws, Ys, Rs, tol)

    def test_solve_path_does_not_import_scipy(self):
        if lapack._numpy_symbol("dgeqrt", 9) is None:
            pytest.skip("this NumPy's LAPACK has no ILP64 dgeqrt symbol")
        code = (
            "import sys, numpy as np, repro\n"
            "g = np.random.default_rng(0).standard_normal((64, 64))\n"
            "repro.eigh((g + g.T) / 2)\n"
            "print('scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert out.stdout.strip() == "False"
