"""Selected eigenpairs of a symmetric tridiagonal, by LAPACK ``dstebz`` + ``dstein``.

:func:`repro.eigh_partial` needs eigenpairs ``lo..hi`` of the
tridiagonal ``T = tridiag(d, e)`` only, so it does not run the full
divide and conquer.  :func:`select_eigh` does what LAPACK's ``dstevx``
does for an index range: one ``dstebz`` call finds exactly the requested
eigenvalues by bisection on Sturm counts (``RANGE='I'``), one ``dstein``
call finds their eigenvectors by inverse iteration, reorthogonalizing
within clusters.  ``dstebz`` runs with ``ORDER='B'``, the grouping
``dstein`` expects: eigenvalues come out block by block of the split
tridiagonal, so the pairs are re-sorted ascending on return.

Both routines take ``(d, e)`` scaled by the power of two that
:func:`repro.eig.dc.scale_tridiagonal` picks for divide and conquer:
unscaled, ``dstebz`` splits the tridiagonal where ``e_i^2`` underflows
(tiny matrices) and fails on ones near the overflow threshold.  Both are
bound by :func:`repro.backend.lapack.lapack_function`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..backend.lapack import lapack_function
from ..resilience.errors import ConvergenceError
from .dc import scale_tridiagonal

__all__ = ["select_eigh"]


def select_eigh(
    d: np.ndarray,
    e: np.ndarray,
    lo: int,
    hi: int,
    compute_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenpairs ``lo..hi`` (inclusive, 0 = smallest) of ``tridiag(d, e)``.

    Returns ascending eigenvalues (``hi - lo + 1`` of them) and, with
    ``compute_vectors``, the ``n x (hi - lo + 1)`` orthonormal
    eigenvectors in columns, C-contiguous (else ``None``).

    Raises
    ------
    ConvergenceError
        ``dstebz`` reported ``INFO != 0`` (site ``"dstebz"``), or
        ``dstein`` failed to converge on some eigenvectors (site
        ``"dstein"``; ``indices`` are their eigenvalue indices).
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.size
    if e.size != max(n - 1, 0):
        raise ValueError(f"e must have length n-1={n - 1}, got {e.size}")
    if not (0 <= lo <= hi < n):
        raise ValueError(f"indices {(lo, hi)} out of range for n = {n}")
    d, e, expo = scale_tridiagonal(d, e)
    # dstebz reads e(1:n-1) only, but its array needs one entry at n = 1.
    e = np.append(e, 0.0)
    stebz, cint = lapack_function("dstebz", 20)
    ref = ctypes.byref
    zero = ctypes.c_double(0.0)  # VL, VU (unused with RANGE='I'); ABSTOL = eps |T|
    nn, il, iu, m, nsplit, info = cint(n), cint(lo + 1), cint(hi + 1), cint(0), cint(0), cint(0)
    w = np.empty(n)
    iblock = np.empty(n, dtype=cint)
    isplit = np.empty(n, dtype=cint)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=cint)
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK, IWORK, INFO, then the two hidden string lengths.
    stebz(b"I", b"B", ref(nn), ref(zero), ref(zero), ref(il), ref(iu), ref(zero),
          d.ctypes.data, e.ctypes.data, ref(m), ref(nsplit), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data,
          iwork.ctypes.data, ref(info), 1, 1)
    if info.value != 0:
        raise ConvergenceError(
            f"dstebz failed on eigenvalues {lo}..{hi} of {n} (INFO={info.value})",
            site="dstebz",
        )
    w = w[: m.value]
    order = np.argsort(w, kind="stable")
    lam = np.ldexp(w[order], expo)
    if not compute_vectors:
        return lam, None
    stein, _ = lapack_function("dstein", 13)
    Z = np.empty((n, m.value), order="F")
    work = np.empty(5 * n)
    iwork = np.empty(n, dtype=cint)
    ifail = np.zeros(m.value, dtype=cint)
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    stein(ref(nn), d.ctypes.data, e.ctypes.data, ref(m), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, Z.ctypes.data, ref(nn),
          work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, ref(info))
    if info.value != 0:
        # IFAIL names failed columns in dstebz's block order, 1-based.
        failed = lo + np.sort(np.argsort(order)[ifail[ifail > 0] - 1])
        raise ConvergenceError(
            f"dstein did not converge on {info.value} of {m.value} eigenvectors "
            f"(INFO={info.value})",
            site="dstein",
            indices=failed,
        )
    # np.take writes the sorted columns row-major, the layout the back
    # transform updates fastest.
    return lam, np.take(Z, order, axis=1)
