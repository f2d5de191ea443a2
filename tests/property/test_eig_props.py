"""Hypothesis property tests for the tridiagonal eigensolvers."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.band.storage import dense_from_band
from repro.eig.dc import dc_eigh
from repro.eig.secular import rank_one_eigh
from repro.eig.select import select_eigh
from tests.oracles import tridiag_qr_eigh


@st.composite
def tridiag_case(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** draw(st.integers(min_value=-3, max_value=3))
    d = rng.standard_normal(n) * scale
    e = rng.standard_normal(max(n - 1, 0)) * scale
    # Sprinkle exact zeros into e to exercise splitting.
    if n > 2 and draw(st.booleans()):
        e[rng.integers(0, n - 1)] = 0.0
    return d, e


@settings(max_examples=40, deadline=None)
@given(tridiag_case())
def test_dc_equals_qr_iteration(case):
    """Two independent solvers agree on every random tridiagonal."""
    d, e = case
    lam_dc, _ = dc_eigh(d, e, compute_vectors=False)
    lam_qr, _ = tridiag_qr_eigh(d, e, compute_vectors=False)
    scale = max(np.max(np.abs(lam_qr)) if lam_qr.size else 0.0, 1e-30)
    assert np.max(np.abs(lam_dc - lam_qr)) < 1e-11 * scale


@settings(max_examples=30, deadline=None)
@given(tridiag_case())
def test_dc_eigenvector_residuals(case):
    """D&C eigenpairs satisfy the residual and orthogonality bounds."""
    d, e = case
    n = d.size
    lam, U = dc_eigh(d, e)
    T = dense_from_band(d, e)
    norm_t = max(np.linalg.norm(T), 1e-30)
    assert np.linalg.norm(T @ U - U * lam) < 1e-11 * norm_t
    assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(tridiag_case())
def test_bisection_brackets_dc(case):
    """LAPACK's bisection (``dstebz``, Sturm counts) agrees with D&C — a
    third independent check rooted in inertia rather than factorization."""
    d, e = case
    lam_dc, _ = dc_eigh(d, e, compute_vectors=False)
    lam_bi, _ = select_eigh(d, e, 0, d.size - 1, compute_vectors=False)
    scale = max(np.max(np.abs(lam_dc)) if lam_dc.size else 0.0, 1e-30)
    assert np.max(np.abs(np.sort(lam_bi) - lam_dc)) < 1e-10 * scale


@st.composite
def secular_case(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    d = np.sort(rng.standard_normal(n))
    d += np.arange(n) * 1e-5  # separated poles
    z = rng.standard_normal(n)
    z[np.abs(z) < 1e-2] = 1e-2
    rho = float(draw(st.floats(min_value=0.05, max_value=10.0)))
    return d, z, rho


@settings(max_examples=40, deadline=None)
@given(secular_case())
def test_secular_interlacing_and_residual(case):
    """Interlacing, trace preservation, and eigenpair residuals hold for
    every well-separated rank-one update."""
    d, z, rho = case
    n = d.size
    lam, U = rank_one_eigh(d, z, rho)
    assert np.all(lam[:-1] > d[:-1]) and np.all(lam[:-1] < d[1:] + 1e-30)
    assert lam[-1] > d[-1]
    assert abs(np.sum(lam) - (np.sum(d) + rho * float(z @ z))) < 1e-8 * max(
        np.max(np.abs(lam)), 1.0
    ) * n
    M = np.diag(d) + rho * np.outer(z, z)
    assert np.linalg.norm(M @ U - U * lam) < 1e-9 * max(np.linalg.norm(M), 1.0)
    assert np.linalg.norm(U.T @ U - np.eye(n)) < 1e-9
