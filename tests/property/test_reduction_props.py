"""Hypothesis property tests for the reduction pipeline invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.band.ops import bandwidth_of, random_symmetric_band
from repro.band.storage import dense_from_band
from repro.core.bulge_chasing import bulge_chase
from repro.core.dbbr import dbbr
from tests.conftest import chase_in_schedule


def _sym(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


@st.composite
def reduction_case(draw):
    n = draw(st.integers(min_value=6, max_value=48))
    b = draw(st.integers(min_value=1, max_value=max(1, min(8, n - 2))))
    groups = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, b * groups, seed


@settings(max_examples=40, deadline=None)
@given(reduction_case())
def test_dbbr_similarity_invariants(case):
    """For any (n, b, k, seed): DBBR yields an orthogonally similar band
    matrix of bandwidth <= b with the original spectrum."""
    n, b, k, seed = case
    A = _sym(n, seed)
    res = dbbr(A, b, k)
    assert bandwidth_of(res.band, tol=1e-9) <= b
    err = np.linalg.norm(res.reconstruct() - A) / max(np.linalg.norm(A), 1e-300)
    assert err < 1e-11
    lam0 = np.linalg.eigvalsh(A)
    lam1 = np.linalg.eigvalsh(res.band)
    assert np.max(np.abs(lam0 - lam1)) < 1e-9 * max(1.0, np.max(np.abs(lam0)))


@settings(max_examples=30, deadline=None)
@given(reduction_case())
def test_sbr_and_dbbr_same_band(case):
    """SBR (DBBR with k = b) and DBBR perform identical eliminations, so
    the band matrices agree (deferral only reorders exact arithmetic)."""
    n, b, k, seed = case
    A = _sym(n, seed)
    r1 = dbbr(A, b, b)
    r2 = dbbr(A, b, k)
    assert np.allclose(r1.band, r2.band, atol=1e-8 * max(1.0, np.linalg.norm(A)))


@st.composite
def band_case(draw):
    n = draw(st.integers(min_value=4, max_value=40))
    b = draw(st.integers(min_value=2, max_value=max(2, min(7, n - 1))))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, seed


@settings(max_examples=40, deadline=None)
@given(band_case())
def test_bulge_chasing_invariants(case):
    """Bulge chasing preserves the spectrum and produces an orthogonal Q1
    for any band matrix."""
    n, b, seed = case
    B = random_symmetric_band(n, b, np.random.default_rng(seed))
    res = bulge_chase(B, b)
    T = dense_from_band(res.d, res.e)
    Q1 = res.q1()
    assert np.linalg.norm(Q1.T @ Q1 - np.eye(n)) < 1e-11
    rec = np.linalg.norm(Q1 @ T @ Q1.T - B) / max(np.linalg.norm(B), 1e-300)
    assert rec < 1e-11


@st.composite
def pipeline_case(draw):
    n = draw(st.integers(min_value=6, max_value=40))
    b = draw(st.integers(min_value=2, max_value=max(2, min(6, n - 1))))
    S = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=16)))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, b, S, seed


@settings(max_examples=40, deadline=None)
@given(pipeline_case())
def test_pipeline_reordering_is_exact(case):
    """The spin-lock pipeline is a pure reordering of commuting tasks: the
    tridiagonal output is bit-identical to the sequential chase for every
    (n, b, S)."""
    n, b, S, seed = case
    B = random_symmetric_band(n, b, np.random.default_rng(seed))
    seq = bulge_chase(B, b)
    par, stats = chase_in_schedule(B, b, max_sweeps=S)
    assert np.array_equal(seq.d, par.d)
    assert np.array_equal(seq.e, par.e)
    if S is not None and stats.rounds:
        assert stats.max_parallel <= S
