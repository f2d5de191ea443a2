"""Unit tests for the shared reduction result types (WYBlock etc.)."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BandReductionResult, WYBlock
from repro.core.panel_qr import panel_qr_wy
from tests.conftest import make_symmetric


def make_block(rng, n=12, offset=4, width=3) -> WYBlock:
    W, Y, _ = panel_qr_wy(rng.standard_normal((n - offset, width)))
    return WYBlock(W=W, Y=Y, offset=offset)


class TestWYBlock:
    def test_embed_is_orthogonal(self, rng):
        blk = make_block(rng)
        Q = blk.embed(12)
        assert np.linalg.norm(Q.T @ Q - np.eye(12)) < 1e-13

    def test_embed_identity_above_offset(self, rng):
        blk = make_block(rng)
        Q = blk.embed(12)
        assert np.array_equal(Q[:4, :4], np.eye(4))
        assert np.all(Q[:4, 4:] == 0.0)

    def test_apply_left_matches_embed(self, rng):
        blk = make_block(rng)
        X = rng.standard_normal((12, 5))
        Y = X.copy()
        blk.apply_left(Y)
        assert np.allclose(Y, blk.embed(12) @ X, atol=1e-13)

    def test_apply_left_transpose_inverts(self, rng):
        blk = make_block(rng)
        X = rng.standard_normal((12, 3))
        Y = X.copy()
        blk.apply_left(Y)
        blk.apply_left_transpose(Y)
        assert np.allclose(X, Y, atol=1e-13)

    def test_shape_properties(self, rng):
        blk = make_block(rng, n=20, offset=6, width=4)
        assert blk.width == 4
        assert blk.rows == 14


class TestBandReductionResult:
    def test_q_is_ordered_product(self, rng):
        from repro.core.dbbr import dbbr

        A = make_symmetric(24, seed=31)
        res = dbbr(A, 3, 3)
        Q = res.q()
        expect = np.eye(24)
        for blk in res.blocks:
            expect = expect @ blk.embed(24)
        assert np.allclose(Q, expect, atol=1e-12)

    def test_reconstruct_equals_manual(self, rng):
        from repro.core.dbbr import dbbr

        A = make_symmetric(18, seed=32)
        res = dbbr(A, 2, 2)
        Q = res.q()
        assert np.allclose(res.reconstruct(), Q @ res.band @ Q.T, atol=1e-12)

    def test_n_property(self):
        res = BandReductionResult(band=np.eye(7), bandwidth=2)
        assert res.n == 7
        assert np.allclose(res.q(), np.eye(7))  # no blocks -> identity
