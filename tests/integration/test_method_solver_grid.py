"""The full configuration grid: every tridiagonalization method x vectors
on/off, one matrix, machine precision."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.workloads import goe

N = 64
A = goe(N, seed=123)
LAM_REF = np.linalg.eigvalsh(A)

METHODS = ["dbbr", "sbr", "direct"]
#: The result's solver tag: divide and conquer on every tridiagonal plan.
SOLVERS = ["dc"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_grid_with_vectors(method, solver):
    res = repro.eigh(A, method=method, bandwidth=4, second_block=8)
    assert res.solver == solver
    assert np.max(np.abs(res.eigenvalues - LAM_REF)) < 1e-10
    assert res.residual(A) < 1e-10
    V = res.eigenvectors
    assert np.linalg.norm(V.T @ V - np.eye(N)) < 1e-9


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_grid_eigenvalues_only(method, solver):
    res = repro.eigh(A, method=method, compute_vectors=False,
                     bandwidth=4, second_block=8)
    assert res.solver == solver
    assert res.eigenvectors is None
    assert np.max(np.abs(res.eigenvalues - LAM_REF)) < 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_grid_partial_spectrum(method):
    res = repro.eigh_partial(A, (10, 19), method=method,
                             bandwidth=4, second_block=8)
    assert np.max(np.abs(res.eigenvalues - LAM_REF[10:20])) < 1e-9
    V = res.eigenvectors
    assert np.linalg.norm(A @ V - V * res.eigenvalues) / np.linalg.norm(A) < 1e-8
