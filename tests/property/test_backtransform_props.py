"""Hypothesis property tests for the back transformations."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.band.ops import random_symmetric_band
from repro.core.back_transform import apply_sbr_q, apply_sbr_q_transpose, q_from_blocks
from repro.core.bc_back_transform import apply_q1_blocks, q1_blocks
from repro.core.bulge_chasing import apply_q1_reference, bulge_chase
from repro.core.dbbr import dbbr


def _sym(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


@st.composite
def reduction_case(draw):
    n = draw(st.integers(min_value=8, max_value=40))
    b = draw(st.integers(min_value=1, max_value=min(6, n - 2)))
    groups = draw(st.integers(min_value=1, max_value=4))
    gw = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, b * groups, gw, seed


@settings(max_examples=30, deadline=None)
@given(reduction_case())
def test_all_sbr_back_methods_agree(case):
    """Every group width applies the same ``Q_sbr`` as the blocks one by
    one (bit for bit up to the panel width), and its transpose undoes it."""
    n, b, k, gw, seed = case
    res = dbbr(_sym(n, seed), b, k)
    X = np.random.default_rng(seed + 1).standard_normal((n, 3))
    ref = X.copy()
    for blk in reversed(res.blocks):
        blk.apply_left(ref)
    Y = X.copy()
    apply_sbr_q(res.blocks, Y, group_width=gw)
    if gw <= b:
        assert np.array_equal(Y, ref)
    assert np.allclose(Y, ref, atol=1e-10)
    apply_sbr_q_transpose(res.blocks, Y, group_width=gw)
    assert np.allclose(Y, X, atol=1e-10)
    assert np.allclose(q_from_blocks(res.blocks, n, gw), res.q(), atol=1e-10)


@st.composite
def bc_case(draw):
    n = draw(st.integers(min_value=6, max_value=36))
    b = draw(st.integers(min_value=2, max_value=min(6, n - 1)))
    group = draw(st.integers(min_value=1, max_value=32))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, group, seed


@settings(max_examples=30, deadline=None)
@given(bc_case())
def test_blocked_bc_back_exact_for_any_group(case):
    """Diamond WY-blocking of the reflector log reproduces the commit-order
    product for every group width: blocked Q1 equals the scalar Q1."""
    n, b, group, seed = case
    A = random_symmetric_band(n, b, np.random.default_rng(seed))
    bc = bulge_chase(A, b)
    blocks = q1_blocks(bc.sweeps, bc.steps, bc.V, bc.tau, group=group)
    X = np.random.default_rng(seed + 1).standard_normal((n, 3))
    Y1 = X.copy()
    apply_q1_reference(bc, Y1)
    Y2 = X.copy()
    apply_q1_blocks(blocks, Y2)
    assert np.allclose(Y1, Y2, atol=1e-10)
    # Round trip through the transpose.
    apply_q1_blocks(blocks, Y2, transpose=True)
    assert np.allclose(Y2, X, atol=1e-10)
