"""Unit tests for double-blocking band reduction (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import bandwidth_of, symmetric_error
from repro.core.dbbr import _zero_off_band, dbbr
from repro.core.panel_qr import panel_qr_wy
from repro.core.syr2k import syr2k_reference
from tests.conftest import make_symmetric


def textbook_sbr(A, b):
    """Classic SBR: every width-``b`` panel updates the trailing matrix
    at once, ``B - Y Z^T - Z Y^T`` with ``Z = B W - 1/2 Y (W^T B W)``."""
    A = A.copy()
    n = A.shape[0]
    nelim = max(0, n - b - 1)
    for j in range(0, nelim, b):
        bw = min(b, nelim - j)
        r0 = j + b
        W, Y, R = panel_qr_wy(A[r0:, j : j + bw])
        A[r0:, j : j + bw] = 0.0
        A[r0 : r0 + bw, j : j + bw] = R
        A[j : j + bw, r0:] = A[r0:, j : j + bw].T
        B = A[r0:, r0:]
        P = B @ W
        Z = P - 0.5 * Y @ (W.T @ P)
        A[r0:, r0:] = B - (Y @ Z.T + Z @ Y.T)
        # Short final panel: in-band columns left of the window get Q^T S.
        S = A[r0:, j + bw : r0]
        S -= Y @ (W.T @ S)
        A[j + bw : r0, r0:] = S.T
    i = np.arange(n)
    A[np.abs(i[:, None] - i[None, :]) > b] = 0.0
    return A


class TestDBBRStructure:
    @pytest.mark.parametrize(
        "n,b,k", [(32, 2, 8), (40, 4, 16), (50, 5, 20), (64, 8, 8), (45, 3, 12)]
    )
    def test_band_structure(self, n, b, k):
        A = make_symmetric(n, seed=n + b + k)
        res = dbbr(A, b, k)
        assert bandwidth_of(res.band, tol=1e-10) <= b
        assert symmetric_error(res.band) < 1e-12

    def test_k_equals_b_degenerates_to_sbr(self):
        # Includes a short final panel (n=23, b=3) and bandwidth 1.
        for n, b in ((30, 4), (23, 3), (20, 1)):
            A = make_symmetric(n, seed=2)
            res = dbbr(A, b, b)
            assert np.allclose(res.band, textbook_sbr(A, b), atol=1e-12)

    def test_k_not_multiple_of_b_rejected(self):
        with pytest.raises(ValueError):
            dbbr(make_symmetric(20), 4, 10)

    def test_k_smaller_than_b_rejected(self):
        with pytest.raises(ValueError):
            dbbr(make_symmetric(20), 8, 4)

    def test_invalid_bandwidth(self):
        A = make_symmetric(20)
        with pytest.raises(ValueError):
            dbbr(A, 0, 4)
        # Fractional and bool block sizes are rejected, not truncated
        # (4.7 would run as 4, True as 1).
        for b, k in ((4.7, 8), (True, 2), (4, 8.5), (2, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                dbbr(A, b, k)
        assert np.array_equal(dbbr(A, 4.0, 8.0).band, dbbr(A, 4, 8).band)

    def test_input_not_modified(self):
        A = make_symmetric(25, seed=4)
        A0 = A.copy()
        dbbr(A, 3, 9)
        assert np.array_equal(A, A0)


class TestDBBRCorrectness:
    @pytest.mark.parametrize("n,b,k", [(30, 3, 9), (48, 4, 16), (41, 5, 15)])
    def test_similarity_transform(self, n, b, k):
        A = make_symmetric(n, seed=n * 3 + k)
        res = dbbr(A, b, k)
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err < 1e-13

    def test_same_band_as_sbr(self):
        # DBBR computes the *same* reduction as SBR (k = b), just
        # reordered: identical panels -> identical band matrix (up to
        # roundoff).
        A = make_symmetric(40, seed=8)
        r_sbr = dbbr(A, 4, 4)
        r_dbbr = dbbr(A, 4, 16)
        assert np.allclose(r_dbbr.band, r_sbr.band, atol=1e-10)

    def test_same_blocks_as_sbr(self):
        A = make_symmetric(32, seed=10)
        r_sbr = dbbr(A, 4, 4)
        r_dbbr = dbbr(A, 4, 8)
        assert len(r_sbr.blocks) == len(r_dbbr.blocks)
        for b1, b2 in zip(r_sbr.blocks, r_dbbr.blocks):
            assert b1.offset == b2.offset
            assert np.allclose(b1.Y, b2.Y, atol=1e-10)

    def test_spectrum_preserved(self):
        A = make_symmetric(44, seed=12)
        res = dbbr(A, 4, 16)
        assert np.max(
            np.abs(np.linalg.eigvalsh(A) - np.linalg.eigvalsh(res.band))
        ) < 1e-11

    def test_short_final_panel_and_block(self):
        # nelim not divisible by k nor b: exercises both tail paths.
        A = make_symmetric(37, seed=14)
        res = dbbr(A, 4, 12)
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err < 1e-13

    def test_k_spanning_whole_matrix(self):
        A = make_symmetric(26, seed=16)
        res = dbbr(A, 2, 24)  # one outer block covers everything
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err < 1e-13

    def test_dbbr_extra_flops_grow_with_k(self):
        A = make_symmetric(48, seed=18)
        f_small = dbbr(A, 4, 4).flops
        f_large = dbbr(A, 4, 16).flops
        # Deferral costs extra look-ahead GEMMs.
        assert f_large > f_small


class TestDBBRKernels:
    """The in-place forms DBBR uses, against their full-matrix oracles."""

    @pytest.mark.parametrize("n,b", [(1, 0), (5, 1), (20, 3), (33, 8), (10, 9), (8, 12)])
    def test_zero_off_band_matches_mask(self, n, b):
        A = np.random.default_rng(n + b).standard_normal((n, n))
        i = np.arange(n)
        expect = A.copy()
        expect[np.abs(i[:, None] - i[None, :]) > b] = 0.0
        _zero_off_band(A, b)
        assert np.array_equal(A, expect)

    @pytest.mark.parametrize("m,k", [(1, 1), (37, 4), (130, 48)])
    def test_inplace_deferred_update_is_syr2k_reference(self, m, k):
        rng = np.random.default_rng(m * k)
        C = make_symmetric(m, seed=m)
        Y, Z = rng.standard_normal((m, k)), rng.standard_normal((m, k))
        expect = syr2k_reference(C, Y, Z, alpha=-1.0)
        P = Y @ Z.T
        C -= P + P.T
        assert np.array_equal(C, expect)
        assert np.array_equal(C, C.T)
