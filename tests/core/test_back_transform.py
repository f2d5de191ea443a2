"""Unit tests for the SBR back transformation (Algorithm 3 / Figure 13).

The one grouped compact-WY apply is checked against an independent
oracle kept here: the panel blocks applied one by one with
:meth:`WYBlock.apply_left`, rightmost first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.context import resolve_context
from repro.core.back_transform import (
    _sbr_groups,
    apply_sbr_q,
    apply_sbr_q_transpose,
    q_from_blocks,
)
from repro.core.bulge_chasing import bulge_chase
from repro.core.dbbr import dbbr
from tests.conftest import make_symmetric

N, B, K = 40, 4, 12


def apply_left_loop(blocks, X: np.ndarray) -> np.ndarray:
    """``Q_sbr X`` by the definition ``Q_sbr = Q_0 Q_1 ... Q_{p-1}``."""
    out = X.copy()
    for blk in reversed(blocks):
        blk.apply_left(out)
    return out


def total_width(blocks) -> int:
    return sum(blk.width for blk in blocks)


#: The schedules the paper compares, as group widths of the one loop:
#: MAGMA's ormqr order (no merging), Figure 13 (width k) and Algorithm 3
#: (everything merged into one W).
SCHEDULES = {
    "blocked": lambda blocks: 1,
    "incremental": lambda blocks: K,
    "recursive": lambda blocks: total_width(blocks),
}


@pytest.fixture
def reduction():
    A = make_symmetric(N, seed=77)
    return A, dbbr(A, B, K)


def _case(n: int, dtype):
    b = max(1, min(B, n - 2))
    A = make_symmetric(n, seed=n).astype(dtype)
    return b, dbbr(A, b, 3 * b).blocks


class TestGroupWidthGrid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", sorted({1, 2, 3, B - 1, B + 1, N}))
    @pytest.mark.parametrize("which", ["1", "b-1", "b", "b+1", "k", "total"])
    def test_matches_apply_left_loop(self, n, dtype, which):
        b, blocks = _case(n, dtype)
        gw = {
            "1": 1,
            "b-1": max(1, b - 1),
            "b": b,
            "b+1": b + 1,
            "k": 3 * b,
            "total": total_width(blocks) + 1,
        }[which]
        X = np.random.default_rng(n).standard_normal((n, 5)).astype(dtype)
        ref = apply_left_loop(blocks, X)
        Y = X.copy()
        apply_sbr_q(blocks, Y, group_width=gw)
        assert Y.dtype == dtype
        if gw <= b:
            # No block is merged: the same GEMMs as the one-by-one loop.
            assert np.array_equal(Y, ref)
        else:
            tol = 1e-12 if dtype == np.float64 else 1e-5
            assert np.allclose(Y, ref, atol=tol)
        apply_sbr_q_transpose(blocks, Y, group_width=gw)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.allclose(Y, X, atol=tol)


class TestMethodsAgree:
    @pytest.mark.parametrize("method", sorted(SCHEDULES))
    def test_q_matches_blocked(self, reduction, method):
        _, res = reduction
        Q_ref = apply_left_loop(res.blocks, np.eye(N))
        Q = q_from_blocks(res.blocks, N, SCHEDULES[method](res.blocks))
        assert np.allclose(Q, Q_ref, atol=1e-12)

    @pytest.mark.parametrize("gw", [4, 8, 16, 64])
    def test_incremental_group_widths(self, reduction, gw):
        _, res = reduction
        Q_ref = apply_left_loop(res.blocks, np.eye(N))
        Q = np.eye(N)
        apply_sbr_q(res.blocks, Q, group_width=gw)
        assert np.allclose(Q, Q_ref, atol=1e-12)

    def test_unknown_method_rejected(self, reduction):
        # ``method`` only survives for the EVD benchmark's replay call.
        _, res = reduction
        for method in ("blocked", "recursive", "bogus"):
            with pytest.raises(ValueError, match="group_width"):
                apply_sbr_q(res.blocks, np.eye(N), method=method)
        Q = np.eye(N)
        apply_sbr_q(res.blocks, Q, group_width=K, method="incremental")
        assert np.array_equal(Q, q_from_blocks(res.blocks, N, K))

    def test_transpose_is_inverse(self, reduction, rng):
        _, res = reduction
        for gw in (1, B, K, total_width(res.blocks)):
            X = rng.standard_normal((N, 5))
            Y = X.copy()
            apply_sbr_q(res.blocks, Y, group_width=gw)
            apply_sbr_q_transpose(res.blocks, Y, group_width=gw)
            assert np.allclose(X, Y, atol=1e-12)


def _groups(blocks, gw):
    return _sbr_groups(blocks, gw, resolve_context(None))


class TestMerging:
    def test_recursive_merge_width(self, reduction):
        """Algorithm 3: an unlimited width merges everything into one W."""
        _, res = reduction
        (group,) = _groups(res.blocks, total_width(res.blocks))
        off, W, Y = group
        assert off == res.blocks[0].offset
        assert W.shape == Y.shape == (N - off, total_width(res.blocks))

    def test_recursive_merge_is_orthogonal(self, reduction):
        _, res = reduction
        ((off, W, Y),) = _groups(res.blocks, total_width(res.blocks))
        Q = np.eye(N - off) - W @ Y.T
        assert np.linalg.norm(Q.T @ Q - np.eye(N - off)) < 1e-12

    def test_empty_blocks(self):
        assert _groups([], 8) == []
        for gw in (1, 8, 1000):
            Q = np.eye(10)
            apply_sbr_q([], Q, group_width=gw)
            apply_sbr_q_transpose([], Q, group_width=gw)
            assert np.array_equal(Q, np.eye(10))

    def test_grouped_merge_respects_width(self, reduction):
        _, res = reduction
        groups = _groups(res.blocks, 8)
        # All groups except possibly the last reach >= 8 columns, and each
        # one stops growing as soon as it does.
        for _, W, _ in groups[:-1]:
            assert 8 <= W.shape[1] < 8 + B
        assert sum(W.shape[1] for _, W, _ in groups) == total_width(res.blocks)

    def test_grouped_product_in_order(self, reduction):
        _, res = reduction
        Q = np.eye(N)
        for off, W, Y in _groups(res.blocks, 8):
            G = np.eye(N)
            G[off:, off:] -= W @ Y.T
            Q = Q @ G
        assert np.allclose(Q, apply_left_loop(res.blocks, np.eye(N)), atol=1e-12)

    def test_group_width_one_is_identity_grouping(self, reduction):
        _, res = reduction
        groups = _groups(res.blocks, 1)
        assert len(groups) == len(res.blocks)
        for (off, W, Y), blk in zip(groups, res.blocks):
            assert off == blk.offset and W is blk.W and Y is blk.Y

    def test_invalid_group_width(self, reduction):
        _, res = reduction
        with pytest.raises(ValueError):
            apply_sbr_q(res.blocks, np.eye(N), group_width=0)

    def test_block_above_its_group_starts_a_new_group(self, reduction, rng):
        # Reductions emit blocks with rising offsets; any other order
        # still applies correctly because such a block is never merged.
        _, res = reduction
        blocks = [res.blocks[3], res.blocks[0], res.blocks[5], res.blocks[1]]
        assert [g[0] for g in _groups(blocks, 100)] == [
            blocks[0].offset, blocks[1].offset,
        ]
        X = rng.standard_normal((N, 3))
        Y = X.copy()
        apply_sbr_q(blocks, Y, group_width=100)
        assert np.allclose(Y, apply_left_loop(blocks, X), atol=1e-12)


class TestEigenvectorAssembly:
    def test_full_pipeline_eigenvectors(self):
        A = make_symmetric(36, seed=99)
        res = dbbr(A, 3, 3)
        bc = bulge_chase(res.band, 3)
        from repro.band.storage import dense_from_band

        T = dense_from_band(bc.d, bc.e)
        lam, U = np.linalg.eigh(T)
        for gw in (1, 3, 6, total_width(res.blocks)):
            # V = Q_sbr (Q1 U)
            V = U.copy()
            bc.apply_q1(V)
            apply_sbr_q(res.blocks, V, group_width=gw)
            resid = np.linalg.norm(A @ V - V * lam) / np.linalg.norm(A)
            orth = np.linalg.norm(V.T @ V - np.eye(36))
            assert resid < 1e-12 and orth < 1e-12
