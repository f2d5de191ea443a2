"""Implicit-shift QL/QR iteration for the symmetric tridiagonal eigenproblem.

The classic ``tqli``/``dsteqr`` algorithm: for each eigenvalue, perform
implicit QL steps with the Wilkinson shift until the corresponding
off-diagonal entry is negligible.  Cost is ``O(n^2)`` for eigenvalues and
``O(n^3)`` when rotations are accumulated into the eigenvector matrix.

Within this reproduction it serves two roles: the reference "QR
algorithm" iterative method the paper mentions alongside divide and
conquer (the ``solver="qr"`` plan), and an independent oracle for the
test suite.
"""

from __future__ import annotations

import numpy as np

from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise

__all__ = ["tridiag_qr_eigh"]

_EPS = np.finfo(np.float64).eps


def tridiag_qr_eigh(
    d: np.ndarray,
    e: np.ndarray,
    compute_vectors: bool = True,
    max_sweeps: int = 50,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of ``tridiag(d, e)`` by implicit QL iteration.

    Parameters
    ----------
    d : (n,) ndarray
        Diagonal.
    e : (n-1,) ndarray
        Subdiagonal.
    compute_vectors : bool
        Accumulate rotations into the eigenvector matrix.
    max_sweeps : int
        Maximum QL sweeps per eigenvalue before declaring failure (LAPACK
        uses 30; convergence is normally 2-3).

    Returns
    -------
    (lam, U)
        Ascending eigenvalues; ``U`` has eigenvectors in columns
        (``None`` when ``compute_vectors`` is false).

    Raises
    ------
    ConvergenceError
        An eigenvalue needed more than ``max_sweeps`` QL sweeps (site
        ``"qr.sweep"``; also a :class:`numpy.linalg.LinAlgError`, the
        type this function historically raised).
    """
    maybe_raise("qr.sweep")
    d = np.array(d, dtype=np.float64, copy=True)
    n = d.size
    e_work = np.zeros(n, dtype=np.float64)
    e_work[: n - 1] = e
    Z = np.eye(n) if compute_vectors else None

    for l in range(n):
        iters = 0
        while True:
            # Find the first negligible off-diagonal at or after l.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e_work[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            iters += 1
            if iters > max_sweeps:
                raise ConvergenceError(
                    f"QL iteration failed to converge for eigenvalue {l} "
                    f"within {max_sweeps} sweeps",
                    site="qr.sweep",
                    iterations=iters,
                    indices=[l],
                )
            # Wilkinson shift.
            g = (d[l + 1] - d[l]) / (2.0 * e_work[l])
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e_work[l] / (g + np.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e_work[i]
                bb = c * e_work[i]
                r = np.hypot(f, g)
                e_work[i + 1] = r
                if r == 0.0:
                    # Recover from underflow: split the matrix here.
                    d[i + 1] -= p
                    e_work[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * bb
                p = s * r
                d[i + 1] = g + p
                g = c * r - bb
                if Z is not None:
                    col = Z[:, i + 1].copy()
                    Z[:, i + 1] = s * Z[:, i] + c * col
                    Z[:, i] = c * Z[:, i] - s * col
            else:
                d[l] -= p
                e_work[l] = g
                e_work[m] = 0.0

    order = np.argsort(d, kind="stable")
    lam = d[order]
    U = Z[:, order] if Z is not None else None
    return lam, U
