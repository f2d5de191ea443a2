"""The full configuration grid: every tridiagonalization method x vectors
on/off, one matrix, machine precision.  Each method runs as the preset
that uses it, SBR with its sweep cap lifted."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.bench.workloads import goe

N = 64
A = goe(N, seed=123)
LAM_REF = np.linalg.eigvalsh(A)

#: Tridiagonalization method -> the preset spelling that runs it.
PRESET_OF = {
    "dbbr": dict(method="proposed"),
    "sbr": dict(method="magma", max_sweeps=None),
    "direct": dict(method="cusolver"),
}
METHODS = list(PRESET_OF)
#: The result's solver tag: divide and conquer on every tridiagonal plan.
SOLVERS = ["dc"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_grid_with_vectors(method, solver):
    res = repro.eigh(A, **PRESET_OF[method], bandwidth=4, second_block=8)
    assert res.solver == solver
    assert res.tridiag.method == method
    assert np.max(np.abs(res.eigenvalues - LAM_REF)) < 1e-10
    assert res.residual(A) < 1e-10
    V = res.eigenvectors
    assert np.linalg.norm(V.T @ V - np.eye(N)) < 1e-9


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_grid_eigenvalues_only(method, solver):
    res = repro.eigh(A, **PRESET_OF[method], compute_vectors=False,
                     bandwidth=4, second_block=8)
    assert res.solver == solver
    assert res.eigenvectors is None
    assert np.max(np.abs(res.eigenvalues - LAM_REF)) < 1e-10


@pytest.mark.parametrize("method", METHODS)
def test_grid_partial_spectrum(method):
    res = repro.eigh_partial(A, (10, 19), **PRESET_OF[method],
                             bandwidth=4, second_block=8)
    assert np.max(np.abs(res.eigenvalues - LAM_REF[10:20])) < 1e-9
    V = res.eigenvectors
    assert np.linalg.norm(A @ V - V * res.eigenvalues) / np.linalg.norm(A) < 1e-8
