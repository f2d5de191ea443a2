"""Reference implementations the tests hold production code to.

None of these is on a plan's path.  They are slow, simple and
independent of the production kernels, which is what makes them useful
as oracles.

Secular equation (``D + rho z z^T``, ``rho > 0``): the per-root guarded
Newton :func:`solve_secular_root` and the per-entry loops
:func:`solve_all_roots_scalar`, :func:`refine_z_scalar` and
:func:`secular_eigenvectors_scalar`.  :func:`dc_eigh_scalar` runs
:func:`repro.eig.dc_eigh` with these in place of the production secular
stage.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro.eig import dc as dc_module
from repro.eig.secular import SecularRoots
from repro.resilience.errors import ConvergenceError
from repro.resilience.faults import maybe_raise

_EPS = np.finfo(np.float64).eps


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


def refine_z_scalar(
    roots: SecularRoots, z: np.ndarray, rho: float, workspace=None
) -> np.ndarray:
    """Löwner's formula for ``z_hat``, one entry and one factor at a time
    (``workspace`` is accepted and ignored, matching the production
    signature)."""
    d = roots.d
    N = d.size
    zhat = np.zeros(N, dtype=np.float64)
    for j in range(N):
        lam_minus_dj = roots.minus_d(j)  # lam_i - d_j for all i
        val = lam_minus_dj[N - 1] / rho
        for i in range(j):
            val *= lam_minus_dj[i] / (d[i] - d[j])
        for i in range(j, N - 1):
            val *= lam_minus_dj[i] / (d[i + 1] - d[j])
        # Roundoff can leave a tiny negative value for hard clusters.
        zhat[j] = np.copysign(np.sqrt(abs(val)), z[j])
    return zhat


def secular_eigenvectors_scalar(
    roots: SecularRoots, zhat: np.ndarray, workspace=None, basis=None
) -> np.ndarray:
    """The eigenvector formula one column at a time; ``basis @ U`` when
    ``basis`` is given (``workspace`` is accepted and ignored)."""
    N = zhat.size
    U = np.zeros((N, N), dtype=np.float64)
    for i in range(N):
        denom = roots.gaps(i)  # d_j - lam_i, cancellation-free
        U[:, i] = zhat / denom
        U[:, i] /= np.linalg.norm(U[:, i])
    return U if basis is None else basis @ U


def dc_eigh_scalar(d, e, **kwargs):
    """:func:`repro.eig.dc_eigh` with the scalar secular oracles in place
    of the production roots, refinement and eigenvector kernels."""
    with mock.patch.multiple(
        dc_module,
        solve_all_roots=solve_all_roots_scalar,
        refine_z=refine_z_scalar,
        secular_eigenvectors=secular_eigenvectors_scalar,
    ):
        return dc_module.dc_eigh(d, e, **kwargs)
