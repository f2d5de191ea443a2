"""The secular stage of a divide-and-conquer merge, by LAPACK ``dlaed9``.

A Cuppen merge step reduces to the symmetric rank-one eigenproblem

    D + rho z z^T,   D = diag(d_1 < d_2 < ... < d_K),  rho > 0,

whose eigenvalues are the roots of the *secular equation*

    f(lam) = 1 + rho * sum_j z_j^2 / (d_j - lam) = 0,

one root strictly inside each interval ``(d_i, d_{i+1})`` plus one beyond
``d_K`` (interlacing).  :func:`rank_one_eigh` solves it with one call of
LAPACK ``dlaed9``, as MAGMA's ``Dstedc`` merge (``magma_dlaex3``) does on
the host: ``dlaed4`` for each root, the Gu–Eisenstat recomputation of
``z`` from the computed roots (Löwner's formula, which keeps the analytic
eigenvectors orthogonal even for tightly clustered roots), then the
normalized eigenvectors ``u_i propto z_hat_j / (d_j - lam_i)``.  ``K = 1``
and ``K = 2`` are solved in closed form inside ``dlaed4``/``dlaed5``.

``dlaed9`` is bound by :func:`repro.backend.lapack.lapack_function`:
NumPy's OpenBLAS, else scipy's ``cython_lapack``.  ``rho < 0`` is handled
by the caller (:mod:`repro.eig.dc`) through the reflection
``eig(D + rho z z^T) = -rev(eig(-rev(D) + |rho| rev(z) rev(z)^T))``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..backend.lapack import lapack_function
from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise

__all__ = ["rank_one_eigh"]


def rank_one_eigh(d: np.ndarray, z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem ``(lam ascending, S)`` of ``diag(d) + rho z z^T`` for
    ``rho > 0``, ``d`` strictly ascending and ``z`` fully non-deflated.

    ``S`` is the ``K x K`` eigenvector matrix, column ``i`` for ``lam_i``.
    ``dlaed9`` gets ``z / ||z||`` and ``rho ||z||^2``: it assumes a unit
    ``z``, as ``dlaed2`` arranges.

    Raises
    ------
    ConvergenceError
        ``dlaed9`` reported ``INFO != 0`` (site ``"secular.newton"``): a
        root ran out of ``dlaed4``'s fixed iteration budget, e.g. on a
        zero ``z`` entry left undeflated.  ``dlaed9`` stops there, so the
        error names the first root it left non-finite (the last root if
        it left none).
    """
    maybe_raise("secular.newton")
    if rho <= 0:
        raise ValueError("rank_one_eigh requires rho > 0")
    # dlaed9 may overwrite its poles: hand it a copy.
    d = np.array(d, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if d.ndim != 1 or d.size == 0 or z.shape != d.shape:
        raise ValueError(
            f"d and z must be non-empty vectors of one length, got {d.shape} and {z.shape}"
        )
    K = d.size
    znorm2 = float(z @ z)
    w = z / np.sqrt(znorm2)
    lam = np.full(K, np.nan)
    work = np.empty((K, K), order="F")
    S = np.empty((K, K), order="F")
    fn, cint = lapack_function("dlaed9", 13)
    k, one, info = cint(K), cint(1), cint(0)
    ref = ctypes.byref
    # K, KSTART, KSTOP, N, D, Q, LDQ, RHO, DLAMDA, W, S, LDS, INFO
    fn(ref(k), ref(one), ref(k), ref(k), lam.ctypes.data, work.ctypes.data,
       ref(k), ref(ctypes.c_double(rho * znorm2)), d.ctypes.data,
       w.ctypes.data, S.ctypes.data, ref(k), ref(info))
    if info.value != 0:
        # The roots after the failing one stay NaN.
        bad = np.flatnonzero(~np.isfinite(lam))
        i = int(bad[0]) if bad.size else K - 1
        raise ConvergenceError(
            f"dlaed9 did not converge on secular root {i} of {K} (INFO={info.value})",
            site="secular.newton",
            indices=[i],
        )
    return lam, S
