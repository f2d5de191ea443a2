"""Reference implementations the tests hold production code to.

None of these is on a plan's path.  They are slow, simple and
independent of the production kernels, which is what makes them useful
as oracles.

Secular equation (``D + rho z z^T``, ``rho > 0``): the residual
:func:`secular_f`, the roots as anchor + offset (:class:`SecularRoots`)
with their cancellation-free differences :func:`roots_minus_d` and
:func:`roots_gaps`, the per-root guarded Newton
:func:`solve_secular_root` and the per-entry loops
:func:`solve_all_roots_scalar`, :func:`refine_z_scalar` and
:func:`secular_eigenvectors_scalar`.  :func:`rank_one_eigh_scalar`
composes the three into the signature of the production
:func:`repro.eig.secular.rank_one_eigh`, and :func:`dc_eigh_scalar` runs
:func:`repro.eig.dc_eigh` with it in place of the production secular
stage.

Tridiagonal eigenproblem: the implicit-shift QL iteration
:func:`tridiag_qr_eigh` (``tqli``/``dsteqr``), a solver independent of
divide and conquer.

Dense eigenproblem: the cyclic Jacobi method :func:`jacobi_eigh`, which
never tridiagonalizes, so it is independent of the whole pipeline.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.eig import dc as dc_module
from repro.resilience.errors import ConvergenceError
from repro.resilience.faults import maybe_raise

_EPS = np.finfo(np.float64).eps


class SecularRoots:
    """Roots stored as ``lam_i = d[anchor_i] + offset_i``.

    Keeping the anchor/offset split lets the oracles compute
    ``lam_i - d_j = (d[anchor_i] - d_j) + offset_i`` with one subtraction
    of exact inputs plus one small correction — no catastrophic
    cancellation next to a pole.
    """

    def __init__(self, d: np.ndarray, anchors: np.ndarray, offsets: np.ndarray):
        self.d = d
        self.anchors = anchors
        self.offsets = offsets

    @property
    def values(self) -> np.ndarray:
        """The eigenvalues ``lam`` (ascending)."""
        return self.d[self.anchors] + self.offsets


def secular_f(lam: float, d: np.ndarray, z2: np.ndarray, rho: float) -> float:
    """Evaluate ``f(lam) = 1 + rho * sum z_j^2 / (d_j - lam)``."""
    return 1.0 + rho * float(np.sum(z2 / (d - lam)))


def roots_minus_d(roots: SecularRoots, j: int) -> np.ndarray:
    """Vector ``lam_i - d_j`` for all roots ``i``, cancellation-free."""
    return (roots.d[roots.anchors] - roots.d[j]) + roots.offsets


def roots_gaps(roots: SecularRoots, i: int) -> np.ndarray:
    """Vector ``d_j - lam_i`` for all ``j``, cancellation-free."""
    return (roots.d - roots.d[roots.anchors[i]]) - roots.offsets[i]


def solve_secular_root(
    d: np.ndarray,
    z2: np.ndarray,
    rho: float,
    i: int,
    max_iter: int = 256,
) -> tuple[int, float]:
    """Find root ``i`` of the secular equation (``rho > 0``).

    Root ``i`` lies in ``(d_i, d_{i+1})`` for ``i < N-1`` and in
    ``(d_{N-1}, d_{N-1} + rho ||z||^2)`` for ``i == N-1``.  The root is
    anchored to whichever interval endpoint it is closer to (decided by the
    sign of ``f`` at the midpoint) and found by a guarded Newton iteration
    on the offset, with bisection fallback; convergence is to relative
    machine precision of the offset.

    Returns ``(anchor, mu)`` with ``lam = d[anchor] + mu``.

    Raises
    ------
    ConvergenceError
        The iteration hit ``max_iter`` without reaching the backward-
        error floor or a sub-ulp step (site ``"secular.newton"``).
    """
    N = d.size
    if not 0 <= i < N:
        raise IndexError(f"root index {i} out of range 0..{N - 1}")
    if rho <= 0:
        raise ValueError("solve_secular_root requires rho > 0")

    if i < N - 1:
        left, right = d[i], d[i + 1]
        mid = 0.5 * (left + right)
        f_mid = 1.0 + rho * float(np.sum(z2 / (d - mid)))
        # f increasing on the interval: root left of mid iff f(mid) > 0.
        anchor = i if f_mid > 0 else i + 1
    else:
        left = d[N - 1]
        right = d[N - 1] + rho * float(np.sum(z2))
        anchor = N - 1

    delta = d - d[anchor]
    # Bracketing interval for the offset mu.
    lo = left - d[anchor]
    hi = right - d[anchor]
    # Keep strictly inside the poles.
    span = hi - lo
    if span <= 0:
        return anchor, 0.0
    mu = 0.5 * (lo + hi)

    for _ in range(max_iter):
        diff = delta - mu
        if np.any(diff == 0.0):
            # Exactly on a pole (can only happen at bracket endpoints):
            # nudge one ulp toward the interval interior and re-evaluate.
            mu = np.nextafter(mu, 0.5 * (lo + hi))
            diff = delta - mu
            if np.any(diff == 0.0):  # pragma: no cover - degenerate poles
                mu = np.nextafter(mu, 0.5 * (lo + hi))
                diff = delta - mu
        terms = z2 / diff
        f = 1.0 / rho + float(np.sum(terms))
        fp = float(np.sum(terms / diff))  # f' / rho, always > 0
        # Backward-error floor: |f| already at the roundoff level of its
        # own evaluation — iterating further is pure noise.
        fscale = 1.0 / rho + float(np.sum(np.abs(terms)))
        if abs(f) <= 2.0 * _EPS * fscale:
            break
        if f > 0:
            hi = mu
        else:
            lo = mu
        # Newton step on the monotone function.
        step = -f / fp if fp > 0 else 0.0
        mu_new = mu + step
        if not (lo < mu_new < hi):
            mu_new = 0.5 * (lo + hi)
        if abs(mu_new - mu) <= _EPS * max(abs(mu_new), abs(mu)):
            mu = mu_new
            break
        mu = mu_new
    else:
        raise ConvergenceError(
            f"secular Newton iteration for root {i} did not converge in "
            f"{max_iter} iterations",
            site="secular.newton",
            iterations=max_iter,
            indices=[i],
        )
    return anchor, float(mu)


def solve_all_roots_scalar(
    d: np.ndarray, z: np.ndarray, rho: float, max_iter: int = 256
) -> SecularRoots:
    """All roots by :func:`solve_secular_root`, one at a time."""
    maybe_raise("secular.newton")
    if rho <= 0:
        raise ValueError("solve_all_roots_scalar requires rho > 0")
    d = np.asarray(d, dtype=np.float64)
    z2 = np.asarray(z, dtype=np.float64) ** 2
    N = d.size
    anchors = np.zeros(N, dtype=np.int64)
    offsets = np.zeros(N, dtype=np.float64)
    for i in range(N):
        anchors[i], offsets[i] = solve_secular_root(d, z2, rho, i, max_iter=max_iter)
    return SecularRoots(d, anchors, offsets)


def refine_z_scalar(roots: SecularRoots, z: np.ndarray, rho: float) -> np.ndarray:
    """Löwner's formula for ``z_hat``, one entry and one factor at a time."""
    d = roots.d
    N = d.size
    zhat = np.zeros(N, dtype=np.float64)
    for j in range(N):
        lam_minus_dj = roots_minus_d(roots, j)  # lam_i - d_j for all i
        val = lam_minus_dj[N - 1] / rho
        for i in range(j):
            val *= lam_minus_dj[i] / (d[i] - d[j])
        for i in range(j, N - 1):
            val *= lam_minus_dj[i] / (d[i + 1] - d[j])
        # Roundoff can leave a tiny negative value for hard clusters.
        zhat[j] = np.copysign(np.sqrt(abs(val)), z[j])
    return zhat


def secular_eigenvectors_scalar(roots: SecularRoots, zhat: np.ndarray) -> np.ndarray:
    """The eigenvector formula one column at a time."""
    N = zhat.size
    U = np.zeros((N, N), dtype=np.float64)
    for i in range(N):
        denom = roots_gaps(roots, i)  # d_j - lam_i, cancellation-free
        U[:, i] = zhat / denom
        U[:, i] /= np.linalg.norm(U[:, i])
    return U


def rank_one_eigh_scalar(
    d: np.ndarray, z: np.ndarray, rho: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, S)`` of ``diag(d) + rho z z^T`` from the scalar roots,
    Löwner refinement and eigenvector loops: the oracle of
    :func:`repro.eig.secular.rank_one_eigh`."""
    roots = solve_all_roots_scalar(d, z, rho)
    return roots.values, secular_eigenvectors_scalar(roots, refine_z_scalar(roots, z, rho))


def dc_eigh_scalar(d, e, **kwargs):
    """:func:`repro.eig.dc_eigh` with :func:`rank_one_eigh_scalar` in
    place of the production ``dlaed9`` secular stage."""
    with mock.patch.object(dc_module, "rank_one_eigh", rank_one_eigh_scalar):
        return dc_module.dc_eigh(d, e, **kwargs)


def tridiag_qr_eigh(
    d: np.ndarray,
    e: np.ndarray,
    compute_vectors: bool = True,
    max_sweeps: int = 50,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of ``tridiag(d, e)`` by implicit QL iteration.

    For each eigenvalue, implicit QL steps with the Wilkinson shift run
    until the corresponding off-diagonal entry is negligible: ``O(n^2)``
    for eigenvalues, ``O(n^3)`` when rotations are accumulated into the
    eigenvector matrix.  Returns ascending eigenvalues and, with
    ``compute_vectors``, the eigenvectors in columns (else ``None``).
    Raises :class:`numpy.linalg.LinAlgError` when an eigenvalue needs
    more than ``max_sweeps`` QL sweeps (LAPACK allows 30; convergence
    is normally 2-3).
    """
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
                raise np.linalg.LinAlgError(
                    f"QL iteration failed to converge for eigenvalue {l} "
                    f"within {max_sweeps} sweeps"
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


def _off_norm(A: np.ndarray) -> float:
    n = A.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(A[mask] ** 2)))


def jacobi_eigh(
    A: np.ndarray,
    compute_vectors: bool = True,
    tol: float | None = None,
    max_sweeps: int = 30,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of symmetric ``A`` by cyclic Jacobi rotations.

    Annihilates one off-diagonal entry per rotation, in cyclic sweeps
    with the small-angle-stable rotation formulas, until the
    off-diagonal Frobenius norm is below ``tol * ||A||_F`` (default
    ``n * eps``); convergence is quadratic once the off-diagonal mass is
    small.  Returns ascending eigenvalues and, with ``compute_vectors``,
    orthonormal eigenvectors in columns (else ``None``).  Raises
    :class:`numpy.linalg.LinAlgError` when the off-diagonal mass is still
    far above the threshold after ``max_sweeps`` sweeps.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    norm_a = max(np.linalg.norm(A), np.finfo(np.float64).tiny)
    threshold = (tol if tol is not None else n * _EPS) * norm_a
    V = np.eye(n) if compute_vectors else None

    for _ in range(max_sweeps):
        if _off_norm(A) <= threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= _EPS * norm_a * 1e-2:
                    continue
                # Stable rotation (Golub & Van Loan, Alg. 8.4.1):
                # theta = (a_qq - a_pp) / (2 a_pq), t = sign/(|theta|+sqrt(1+theta^2)).
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                # Apply J(p, q, theta) from both sides.
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                if V is not None:
                    vp = V[:, p].copy()
                    V[:, p] = c * vp - s * V[:, q]
                    V[:, q] = s * vp + c * V[:, q]
    else:
        if _off_norm(A) > threshold * 1e3:
            raise np.linalg.LinAlgError(
                f"Jacobi failed to converge within {max_sweeps} sweeps "
                f"(off-diagonal norm {_off_norm(A):.3e} vs threshold "
                f"{threshold:.3e})"
            )

    lam = np.diagonal(A).copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    if V is not None:
        V = V[:, order]
    return lam, V
