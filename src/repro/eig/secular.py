"""Secular equation machinery for the divide-and-conquer eigensolver.

A Cuppen merge step reduces to the symmetric rank-one eigenproblem

    D + rho z z^T,   D = diag(d_1 < d_2 < ... < d_N),  rho > 0,

whose eigenvalues are the roots of the *secular equation*

    f(lam) = 1 + rho * sum_j z_j^2 / (d_j - lam) = 0,

one root strictly inside each interval ``(d_i, d_{i+1})`` plus one beyond
``d_N`` (interlacing).  This module provides:

* :func:`solve_secular_root` — a guarded rational-Newton iteration for a
  single root, returning the root as ``(anchor index, offset)`` so that
  ``lam - d_j`` can later be formed without cancellation;
* :func:`solve_all_roots` — all ``N`` roots;
* :func:`refine_z` — the Gu–Eisenstat trick: recompute the rank-one vector
  ``z_hat`` from the *computed* roots (Löwner's formula), which makes the
  analytic eigenvector formula numerically orthogonal even for tightly
  clustered eigenvalues;
* :func:`secular_eigenvectors` — eigenvectors ``u_i propto z_hat_j /
  (d_j - lam_i)`` built from the refined vector.

Each of the three stages comes in two modes (``mode="batched"`` default,
``mode="scalar"``).  The scalar mode is the original one-root-at-a-time
implementation, kept bit-for-bit as a cross-check oracle for the tests;
production (:func:`repro.eig.dc_eigh` under every plan) runs batched.
The batched mode executes the same
mathematics as stacked array sweeps:

* the guarded Newton iteration runs on *all* roots simultaneously over an
  ``(N, N)`` pole-difference matrix with per-root convergence masks and
  bracket updates, compressing to the still-active rows each sweep;
* the Löwner refinement evaluates all paired ratios
  ``(lam_i - d_j) / (d_{i or i+1} - d_j)`` as one matrix (each ratio is
  O(1) by interlacing, so the column products stay bounded) and reduces
  them with a single ``prod``;
* the eigenvector formula is one broadcasted outer division plus a single
  vectorized column normalization.

Large ``(N, N)`` intermediates can be served from a caller-provided
workspace pool (``workspace=``, duck-typed to
:meth:`repro.backend.WorkspacePool.matrix`) so repeated merges inside the
divide-and-conquer tree allocate nothing in steady state.

``rho < 0`` is handled by the caller (:mod:`repro.eig.dc`) through the
reflection ``eig(D + rho z z^T) = -rev(eig(-rev(D) + |rho| rev(z) rev(z)^T))``.
"""

from __future__ import annotations

import numpy as np

from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise

__all__ = [
    "SecularRoots",
    "solve_secular_root",
    "solve_all_roots",
    "refine_z",
    "secular_eigenvectors",
    "secular_f",
]

_EPS = np.finfo(np.float64).eps

_MODES = ("batched", "scalar")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown secular mode {mode!r}; expected one of {_MODES}")


def _scratch_matrix(workspace, tag: str, shape: tuple[int, int]) -> np.ndarray:
    """An uninitialized (rows, cols) scratch matrix, pooled when possible."""
    if workspace is None:
        return np.empty(shape, dtype=np.float64)
    return workspace.matrix(tag, shape, dtype=np.float64)


def secular_f(lam: float, d: np.ndarray, z2: np.ndarray, rho: float) -> float:
    """Evaluate ``f(lam) = 1 + rho * sum z_j^2 / (d_j - lam)`` (diagnostics)."""
    return 1.0 + rho * float(np.sum(z2 / (d - lam)))


class SecularRoots:
    """Roots stored as ``lam_i = d[anchor_i] + offset_i``.

    Keeping the anchor/offset split lets downstream code compute
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

    def minus_d(self, j: int) -> np.ndarray:
        """Vector ``lam_i - d_j`` for all roots ``i``, cancellation-free."""
        return (self.d[self.anchors] - self.d[j]) + self.offsets

    def gaps(self, i: int) -> np.ndarray:
        """Vector ``d_j - lam_i`` for all ``j``, cancellation-free."""
        return (self.d - self.d[self.anchors[i]]) - self.offsets[i]

    def minus_d_matrix(self, out: np.ndarray | None = None) -> np.ndarray:
        """Matrix ``L[i, j] = lam_i - d_j`` for all roots/poles at once.

        Each entry is one exact-input subtraction plus the small offset —
        the same cancellation-free form as :meth:`minus_d`, built as a
        single broadcast."""
        d, anchors, offsets = self.d, self.anchors, self.offsets
        if out is None:
            return (d[anchors][:, None] - d[None, :]) + offsets[:, None]
        np.subtract(d[anchors][:, None], d[None, :], out=out)
        out += offsets[:, None]
        return out


def _eval_psi_phi(
    mu: float, delta: np.ndarray, z2: np.ndarray, split: int
) -> tuple[float, float, float, float]:
    """Evaluate the two halves of the secular sum at offset ``mu``.

    ``delta = d - d_anchor``; poles below/at the anchor side go to ``psi``,
    the rest to ``phi``.  Returns ``(psi, psi', phi, phi')``.
    """
    diff = delta - mu
    terms = z2 / diff
    dterms = terms / diff
    psi = float(np.sum(terms[: split + 1]))
    dpsi = float(np.sum(dterms[: split + 1]))
    phi = float(np.sum(terms[split + 1 :]))
    dphi = float(np.sum(dterms[split + 1 :]))
    return psi, dpsi, phi, dphi


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


def _solve_all_roots_scalar(
    d: np.ndarray, z2: np.ndarray, rho: float, max_iter: int = 256
) -> SecularRoots:
    N = d.size
    anchors = np.zeros(N, dtype=np.int64)
    offsets = np.zeros(N, dtype=np.float64)
    for i in range(N):
        a, mu = solve_secular_root(d, z2, rho, i, max_iter=max_iter)
        anchors[i] = a
        offsets[i] = mu
    return SecularRoots(d, anchors, offsets)


def _solve_all_roots_batched(
    d: np.ndarray,
    z2: np.ndarray,
    rho: float,
    workspace=None,
    max_iter: int = 256,
) -> SecularRoots:
    """All roots at once: the guarded Newton of :func:`solve_secular_root`
    executed as stacked sweeps over an ``(active, N)`` pole-difference
    matrix with per-root bracket and convergence state."""
    if rho <= 0:
        raise ValueError("solve_all_roots requires rho > 0")
    N = d.size
    anchors = np.arange(N, dtype=np.int64)
    offsets = np.zeros(N, dtype=np.float64)
    if N == 0:
        return SecularRoots(d, anchors, offsets)

    # Anchor choice: evaluate f at each interior midpoint in one sweep;
    # root i sits left of its midpoint iff f(mid_i) > 0 (f increasing).
    if N > 1:
        mids = 0.5 * (d[:-1] + d[1:])
        f_mid = 1.0 + rho * np.sum(z2[None, :] / (d[None, :] - mids[:, None]), axis=1)
        anchors[:-1] += f_mid <= 0.0
    d_anchor = d[anchors]

    # Offset brackets: root i in (d_i, d_{i+1}), the last in
    # (d_{N-1}, d_{N-1} + rho ||z||^2).
    hi = np.empty(N, dtype=np.float64)
    hi[: N - 1] = d[1:] - d_anchor[: N - 1]
    hi[N - 1] = rho * float(np.sum(z2))
    lo = d - d_anchor

    # delta[i, j] = d_j - d_anchor_i: the pole offsets seen by root i.
    delta = _scratch_matrix(workspace, "secular.delta", (N, N))
    np.subtract(d[None, :], d_anchor[:, None], out=delta)

    span = hi - lo
    mu = np.where(span > 0.0, 0.5 * (lo + hi), 0.0)
    idx = np.flatnonzero(span > 0.0)

    inv_rho = 1.0 / rho
    for _ in range(max_iter):
        if idx.size == 0:
            break
        delta_a = delta[idx]
        mu_a = mu[idx]
        lo_a = lo[idx]
        hi_a = hi[idx]
        diff = delta_a - mu_a[:, None]
        # Exactly on a pole (only possible at bracket endpoints): nudge
        # one ulp toward the interval interior and re-evaluate.
        for _nudge in range(2):
            hit = (diff == 0.0).any(axis=1)
            if not hit.any():
                break
            mid_now = 0.5 * (lo_a + hi_a)
            mu_a[hit] = np.nextafter(mu_a[hit], mid_now[hit])
            diff[hit] = delta_a[hit] - mu_a[hit][:, None]
        terms = z2[None, :] / diff
        f = inv_rho + terms.sum(axis=1)
        dterms = terms / diff
        fp = dterms.sum(axis=1)  # f' / rho, always > 0
        # Backward-error floor, per root: |f| at the roundoff level of
        # its own evaluation — iterating further is pure noise.
        np.abs(terms, out=terms)
        fscale = inv_rho + terms.sum(axis=1)
        at_floor = np.abs(f) <= 2.0 * _EPS * fscale
        # Bracket update on the monotone function, then a guarded Newton
        # step with bisection fallback — all rows at once.
        f_pos = f > 0.0
        hi_a = np.where(f_pos, mu_a, hi_a)
        lo_a = np.where(f_pos, lo_a, mu_a)
        step = np.zeros_like(f)
        np.divide(-f, fp, out=step, where=fp > 0.0)
        mu_new = mu_a + step
        inside = (lo_a < mu_new) & (mu_new < hi_a)
        mu_new = np.where(inside, mu_new, 0.5 * (lo_a + hi_a))
        tiny_step = np.abs(mu_new - mu_a) <= _EPS * np.maximum(
            np.abs(mu_new), np.abs(mu_a)
        )
        # Roots at the residual floor keep their current mu; roots whose
        # step collapsed accept the step and stop; the rest keep going.
        mu[idx] = np.where(at_floor, mu_a, mu_new)
        lo[idx] = lo_a
        hi[idx] = hi_a
        idx = idx[~(at_floor | tiny_step)]

    if idx.size > 0:
        # Stagnant brackets must fail loudly: exiting here with silently
        # unconverged roots poisons every eigenvector built from them.
        raise ConvergenceError(
            f"secular Newton sweep left {idx.size} of {N} roots unconverged "
            f"after {max_iter} iterations (root indices {idx[:8].tolist()}"
            f"{'...' if idx.size > 8 else ''})",
            site="secular.newton",
            iterations=max_iter,
            indices=idx,
        )

    offsets[:] = mu
    return SecularRoots(d, anchors, offsets)


def solve_all_roots(
    d: np.ndarray,
    z: np.ndarray,
    rho: float,
    mode: str = "batched",
    workspace=None,
    max_iter: int = 256,
) -> SecularRoots:
    """All ``N`` secular roots for ``D + rho z z^T`` (``rho > 0``,
    ``d`` strictly ascending, ``z`` fully non-deflated).

    ``mode="batched"`` (default) iterates every root simultaneously with
    vectorized sweeps; ``mode="scalar"`` is the original per-root loop,
    kept as a cross-check oracle.  ``workspace`` optionally pools the
    ``(N, N)`` scratch (batched mode only).

    Raises
    ------
    ConvergenceError
        Any root's bracket is still active after ``max_iter`` sweeps
        (site ``"secular.newton"``, carrying the offending root
        indices) — in either mode; stagnant roots never exit silently.
    """
    _check_mode(mode)
    maybe_raise("secular.newton")
    d = np.asarray(d, dtype=np.float64)
    z2 = np.asarray(z, dtype=np.float64) ** 2
    if mode == "scalar":
        return _solve_all_roots_scalar(d, z2, rho, max_iter=max_iter)
    return _solve_all_roots_batched(d, z2, rho, workspace=workspace, max_iter=max_iter)


def _refine_z_scalar(roots: SecularRoots, z: np.ndarray, rho: float) -> np.ndarray:
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


def _refine_z_batched(
    roots: SecularRoots, z: np.ndarray, rho: float, workspace=None
) -> np.ndarray:
    """Löwner evaluation in paired-ratio matrix form: every factor
    ``(lam_i - d_j) / (d_p - d_j)`` pairs a root with the pole on the same
    side (``p = i`` below the diagonal, ``p = i + 1`` at/above), so each
    ratio is O(1) by interlacing and the column products stay bounded —
    no logs needed, no Python loops."""
    d = roots.d
    N = d.size
    L = roots.minus_d_matrix(
        out=_scratch_matrix(workspace, "secular.loewner_num", (N, N))
    )
    if N == 1:
        val = L[0] / rho
    else:
        rows = np.arange(N - 1)[:, None]
        cols = np.arange(N)[None, :]
        pole = rows + (rows >= cols)
        R = _scratch_matrix(workspace, "secular.loewner_ratio", (N - 1, N))
        np.subtract(d[pole], d[None, :], out=R)
        np.divide(L[: N - 1], R, out=R)
        val = np.prod(R, axis=0) * (L[N - 1] / rho)
    # Roundoff can leave a tiny negative value for hard clusters.
    return np.copysign(np.sqrt(np.abs(val)), z)


def refine_z(
    roots: SecularRoots,
    z: np.ndarray,
    rho: float,
    mode: str = "batched",
    workspace=None,
) -> np.ndarray:
    """Gu–Eisenstat refinement: the rank-one vector consistent with the
    *computed* roots.

    By Löwner's formula, exact roots ``lam_i`` of ``D + rho z z^T`` satisfy

        z_j^2 = prod_i (lam_i - d_j) / (rho * prod_{i != j} (d_i - d_j)).

    Evaluating this with the computed roots yields ``z_hat`` such that the
    computed roots are *exact* for ``D + rho z_hat z_hat^T``; eigenvectors
    formed from ``z_hat`` are then orthogonal to machine precision.
    Products are accumulated as paired ratios, each O(1) by interlacing —
    as one ``(N, N)`` ratio matrix in batched mode, or the original
    per-entry double loop with ``mode="scalar"``.
    """
    _check_mode(mode)
    if mode == "scalar":
        return _refine_z_scalar(roots, z, rho)
    return _refine_z_batched(roots, z, rho, workspace=workspace)


def _secular_eigenvectors_scalar(roots: SecularRoots, zhat: np.ndarray) -> np.ndarray:
    N = zhat.size
    U = np.zeros((N, N), dtype=np.float64)
    for i in range(N):
        denom = roots.gaps(i)  # d_j - lam_i, cancellation-free
        U[:, i] = zhat / denom
        U[:, i] /= np.linalg.norm(U[:, i])
    return U


def _secular_eigenvectors_batched(
    roots: SecularRoots, zhat: np.ndarray, workspace=None
) -> np.ndarray:
    d = roots.d
    N = zhat.size
    # G[j, i] = d_j - lam_i, cancellation-free (transpose of minus_d_matrix).
    U = _scratch_matrix(workspace, "secular.U", (N, N))
    np.subtract(d[:, None], d[roots.anchors][None, :], out=U)
    U -= roots.offsets[None, :]
    np.divide(zhat[:, None], U, out=U)
    U /= np.sqrt(np.einsum("ji,ji->i", U, U))[None, :]
    return U


def secular_eigenvectors(
    roots: SecularRoots,
    zhat: np.ndarray,
    mode: str = "batched",
    workspace=None,
) -> np.ndarray:
    """Eigenvector matrix of ``D + rho z_hat z_hat^T`` from the analytic
    formula ``u_i(j) = z_hat_j / (d_j - lam_i)``, columns normalized.

    Batched mode forms the whole matrix as one broadcasted outer division
    plus a single vectorized column normalization; ``mode="scalar"`` is
    the original column-at-a-time loop.  When ``workspace`` is given the
    returned matrix is pool-backed scratch — valid until the next batched
    secular call on the same pool (the divide-and-conquer merge consumes
    it immediately in its GEMM).
    """
    _check_mode(mode)
    if mode == "scalar":
        return _secular_eigenvectors_scalar(roots, zhat)
    return _secular_eigenvectors_batched(roots, zhat, workspace=workspace)
