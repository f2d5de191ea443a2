"""Measured comparison of the tridiagonal eigensolve against LAPACK.

Not a paper figure — a harness deliverable: the paper integrates MAGMA's
divide & conquer because of its BLAS3-friendly merges; this benchmark
measures D&C, the LAPACK ``dstebz`` + ``dstein`` selection behind
``eigh_partial`` and LAPACK ``eigvalsh`` on the dense tridiagonal at
laptop scale, and verifies that all three agree on the same problem.

``[measured]`` only.
"""

from __future__ import annotations

import numpy as np

from repro.band.storage import dense_from_band
from repro.bench.reporting import banner
from repro.bench.workloads import goe
from repro.core.direct_tridiag import direct_tridiagonalize
from repro.eig.dc import dc_eigh
from repro.eig.select import select_eigh

N = 300
WINDOW = 10  # eigenpairs of the partial-spectrum path


def _tridiag():
    A = goe(N, seed=22)
    res = direct_tridiagonalize(A)
    return res.d, res.e


def test_dc_measured(benchmark):
    d, e = _tridiag()
    lam, U = benchmark(lambda: dc_eigh(d, e))
    assert U is not None


def test_dc_novec_measured(benchmark):
    d, e = _tridiag()
    lam, _ = benchmark(lambda: dc_eigh(d, e, compute_vectors=False))
    assert lam.size == N


def test_select_window_measured(benchmark):
    d, e = _tridiag()
    lam, Z = benchmark(lambda: select_eigh(d, e, 0, WINDOW - 1))
    assert Z.shape == (N, WINDOW)


def test_select_novec_measured(benchmark):
    d, e = _tridiag()
    lam, _ = benchmark(lambda: select_eigh(d, e, 0, N - 1, compute_vectors=False))
    assert lam.size == N


def test_all_solvers_agree(benchmark, report):
    d, e = _tridiag()

    def run():
        lam_dc, _ = dc_eigh(d, e, compute_vectors=False)
        lam_sel, _ = select_eigh(d, e, 0, N - 1, compute_vectors=False)
        return lam_dc, lam_sel

    lam_dc, lam_sel = benchmark(run)
    lam_ref = np.linalg.eigvalsh(dense_from_band(d, e))
    scale = max(np.max(np.abs(lam_ref)), 1.0)
    d_sel = np.max(np.abs(lam_dc - lam_sel)) / scale
    d_ref = np.max(np.abs(lam_dc - lam_ref)) / scale
    report(banner(f"Tridiagonal solver agreement, n = {N}", "measured"))
    report(f"  D&C vs dstebz:       {d_sel:.2e}")
    report(f"  D&C vs eigvalsh(T):  {d_ref:.2e}")
    assert d_sel < 1e-11
    assert d_ref < 1e-11
