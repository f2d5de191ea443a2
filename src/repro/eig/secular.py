"""Secular equation machinery for the divide-and-conquer eigensolver.

A Cuppen merge step reduces to the symmetric rank-one eigenproblem

    D + rho z z^T,   D = diag(d_1 < d_2 < ... < d_N),  rho > 0,

whose eigenvalues are the roots of the *secular equation*

    f(lam) = 1 + rho * sum_j z_j^2 / (d_j - lam) = 0,

one root strictly inside each interval ``(d_i, d_{i+1})`` plus one beyond
``d_N`` (interlacing).  This module provides:

* :func:`solve_secular_root` — a guarded Newton iteration for a single
  root, returning the root as ``(anchor index, offset)`` so that
  ``lam - d_j`` can later be formed without cancellation;
* :func:`solve_all_roots` — all ``N`` roots;
* :func:`refine_z` — the Gu–Eisenstat trick: recompute the rank-one vector
  ``z_hat`` from the *computed* roots (Löwner's formula), which makes the
  analytic eigenvector formula numerically orthogonal even for tightly
  clustered eigenvalues;
* :func:`secular_eigenvectors` — eigenvectors ``u_i propto z_hat_j /
  (d_j - lam_i)`` built from the refined vector, or their product with a
  few basis rows.

Each of the three stages comes in two modes (``mode="batched"`` default,
``mode="scalar"``).  The scalar mode is the original one-root-at-a-time
guarded Newton, kept as a cross-check oracle for the tests; production
(:func:`repro.eig.dc_eigh` under every plan) runs batched.  The batched
mode walks the roots in row tiles of about 1 MiB (``_TILE_BYTES``), so a
tile's pole differences stay in L2 while it iterates:

* the roots take LAPACK ``dlaed4``'s steps: a two-pole quadratic from the
  interval midpoint as the starting guess, then the fixed-weight rational
  step (Li; Gragg) with the last root's pole split handled separately —
  guarded by the per-root bracket with bisection fallback, stopped at
  the backward-error floor, and compressed to the still-active rows of
  the tile each sweep;
* the Löwner refinement evaluates the paired ratios
  ``(lam_i - d_j) / (d_{i or i+1} - d_j)`` in column tiles (each ratio is
  O(1) by interlacing, so the column products stay bounded) and reduces
  each with a single ``prod``;
* the eigenvector formula is one broadcasted outer division plus a row
  normalization per tile of roots; given basis rows, each tile is
  multiplied in at once and the ``(N, N)`` matrix is never formed.

Every root, ratio column and eigenvector is computed independently of the
others, so results do not depend on the tile size.  Scratch can be served
from a caller-provided workspace pool (``workspace=``, duck-typed to
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

# Bytes of float64 scratch per batched tile: about half of a 2 MiB L2,
# so a tile's pole-difference rows stay cache-resident across sweeps.
_TILE_BYTES = 1 << 20


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

    def __init__(
        self,
        d: np.ndarray,
        anchors: np.ndarray,
        offsets: np.ndarray,
        sweeps: int = 0,
    ):
        self.d = d
        self.anchors = anchors
        self.offsets = offsets
        #: Most sweeps any root tile needed (0 from the scalar oracle).
        self.sweeps = sweeps

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


def _row_tiles(rows: int, cols: int):
    """Consecutive slices of ``range(rows)``, each covering at most
    ``_TILE_BYTES`` of float64 rows ``cols`` wide (at least one row)."""
    step = max(1, _TILE_BYTES // (8 * max(cols, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _initial_guess(
    d: np.ndarray,
    z2: np.ndarray,
    rho: float,
    upper: float,
    r: np.ndarray,
    i_lo: np.ndarray,
    i_hi: np.ndarray,
    W: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Anchor side and starting offset of the roots ``r``, as ``dlaed4``.

    The secular function is evaluated at each root's interval midpoint
    (``W`` is ``(len(r), N)`` scratch): its sign says whether root ``i``
    sits left of the midpoint, i.e. is anchored to its lower pole
    (``orgati``), and the sum minus its two nearest-pole terms is the
    constant of the two-pole quadratic whose root is the guess.  The last
    root is anchored to ``d_{N-1}``.  Returns ``(orgati, offset)``.
    """
    N = d.size
    last = r == N - 1
    mids = np.where(last, d[N - 1] + 0.5 * upper, 0.5 * (d[i_lo] + d[i_hi]))
    np.subtract(d[None, :], mids[:, None], out=W)
    np.divide(z2[None, :], W, out=W)
    s = W.sum(axis=1)
    orgati = ~last & (1.0 + rho * s > 0.0)

    rr = np.arange(r.size)
    c = (1.0 / rho + s) - W[rr, i_lo] - W[rr, i_hi]
    z2_lo, z2_hi = z2[i_lo], z2[i_hi]
    gap = d[i_hi] - d[i_lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Interior roots, offset from the anchor pole.
        a = np.where(orgati, c * gap + z2_lo + z2_hi, c * gap - z2_lo - z2_hi)
        b = np.where(orgati, z2_lo, z2_hi) * gap
        disc = np.sqrt(np.abs(a * a - 4.0 * np.where(orgati, b, -b) * c))
        tau = np.where(
            orgati,
            np.where(a > 0.0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c)),
            np.where(a < 0.0, 2.0 * b / (a - disc), -(a + disc) / (2.0 * c)),
        )
        # The last root, offset from d_{N-1} into (0, upper].
        a_n = z2_lo + z2_hi - c * gap
        disc_n = np.sqrt(a_n * a_n + 4.0 * b * c)
        tau_n = np.where(a_n < 0.0, 2.0 * b / (disc_n - a_n), (a_n + disc_n) / (2.0 * c))
        beyond_mid = (1.0 / rho + s <= 0.0) & (c <= z2_lo / (gap + upper) + z2_hi / upper)
        tau = np.where(last, np.where(beyond_mid | (N == 1), upper, tau_n), tau)
    return orgati, tau


def _fixed_weight_step(
    w: np.ndarray,
    dw: np.ndarray,
    p_lo: np.ndarray,
    p_hi: np.ndarray,
    z2_lo: np.ndarray,
    z2_hi: np.ndarray,
    gap: np.ndarray,
    orgati: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """``dlaed4``'s fixed-weight rational step (Li; Gragg), per row.

    ``w``/``dw`` are the secular function (over ``rho``) and its
    derivative at the current iterate; ``p_lo``/``p_hi`` are the
    distances ``d_j - lam`` to the two poles bracketing the root.  The
    secular function is interpolated by those two poles plus a constant:
    the anchor pole keeps its exact weight ``z_j^2``, and the other
    pole's weight and the constant match the value and derivative; the
    step is the interpolant's root.  The last root has no pole above, so
    its two nearest poles split the derivative as ``dlaed4`` does.  Rows
    where the model has no usable root fall back to the Newton step.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pp = p_lo * p_hi
        a = (p_lo + p_hi) * w - pp * dw
        b = pp * w
        dphi = z2_hi / (p_hi * p_hi)
        c = np.where(
            last,
            np.abs(w - p_lo * (dw - dphi) - p_hi * dphi),
            np.where(
                orgati,
                w - p_hi * dw + gap * z2_lo / (p_lo * p_lo),
                w - p_lo * dw - gap * dphi,
            ),
        )
        disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
        eta = np.where(
            last,
            np.where(a >= 0.0, (a + disc) / (2.0 * c), 2.0 * b / (a - disc)),
            np.where(a <= 0.0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc)),
        )
        # The step must move against w; otherwise take Newton's.
        bad = ~np.isfinite(eta) | (w * eta >= 0.0)
        eta[bad] = -w[bad] / dw[bad]
    return eta


def _solve_tile(
    d: np.ndarray,
    z2: np.ndarray,
    rho: float,
    upper: float,
    rows: slice,
    anchors: np.ndarray,
    offsets: np.ndarray,
    workspace,
    max_iter: int,
) -> int:
    """Iterate the roots of ``rows`` to convergence; returns the sweeps
    spent.  Every row is independent, so the results do not depend on
    how the roots are tiled."""
    N = d.size
    r = np.arange(rows.start, rows.stop)
    last = r == N - 1
    # The poles bracketing each root; the last root pairs with N-2, N-1.
    i_lo = np.maximum(np.minimum(r, N - 2), 0)
    i_hi = np.minimum(i_lo + 1, N - 1)
    # One (rows, N) scratch block serves the midpoint evaluation, then
    # the pole offsets of the sweeps.
    delta = _scratch_matrix(workspace, "secular.tile", (r.size, N))
    orgati, mu = _initial_guess(d, z2, rho, upper, r, i_lo, i_hi, delta)
    anchor = np.where(orgati | last, r, r + 1)
    anchors[rows] = anchor
    d_anchor = d[anchor]
    # Offset bracket: root i in (d_i, d_{i+1}), the last in
    # (d_{N-1}, d_{N-1} + rho ||z||^2].
    lo = np.where(last, 0.0, d[i_lo] - d_anchor)
    hi = np.where(last, upper, d[i_hi] - d_anchor)
    # Start inside the bracket; only the last root's upper end is no pole.
    inside = (lo < mu) & np.where(last, mu <= hi, mu < hi)
    mu = np.where(inside, mu, 0.5 * (lo + hi))
    # Pole offsets of the two bracketing poles; p = pole - lam = pole - mu.
    pole_lo = d[i_lo] - d_anchor
    pole_hi = d[i_hi] - d_anchor
    gap = d[i_hi] - d[i_lo]
    z2_lo, z2_hi = z2[i_lo], z2[i_hi]

    # delta[i, j] = d_j - d_anchor_i: the pole offsets seen by root i.
    np.subtract(d[None, :], d_anchor[:, None], out=delta)

    idx = np.flatnonzero(hi > lo)
    inv_rho = 1.0 / rho
    sweeps = 0
    for _ in range(max_iter):
        if idx.size == 0:
            break
        sweeps += 1
        delta_a = delta if idx.size == delta.shape[0] else delta[idx]
        mu_a = mu[idx]
        lo_a = lo[idx]
        hi_a = hi[idx]
        diff = delta_a - mu_a[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = z2[None, :] / diff
            f = inv_rho + terms.sum(axis=1)
            # A non-finite sum means the iterate sits exactly on a pole
            # (only possible at a bracket end): nudge those rows one ulp
            # toward the interval interior and re-evaluate them.
            for _nudge in range(2):
                hit = np.flatnonzero(~np.isfinite(f))
                if hit.size == 0:
                    break
                mu_a[hit] = np.nextafter(mu_a[hit], 0.5 * (lo_a[hit] + hi_a[hit]))
                diff[hit] = delta_a[hit] - mu_a[hit, None]
                terms[hit] = z2[None, :] / diff[hit]
                f[hit] = inv_rho + terms[hit].sum(axis=1)
        np.divide(terms, diff, out=diff)
        fp = diff.sum(axis=1)  # f' / rho, always > 0
        # Backward-error floor, per root: |f| at the roundoff level of
        # its own evaluation — iterating further is pure noise.
        np.abs(terms, out=terms)
        fscale = inv_rho + terms.sum(axis=1)
        at_floor = np.abs(f) <= 2.0 * _EPS * fscale
        # Bracket update on the monotone function, then the rational
        # step guarded by bisection — all rows at once.
        f_pos = f > 0.0
        hi_a = np.where(f_pos, mu_a, hi_a)
        lo_a = np.where(f_pos, lo_a, mu_a)
        eta = _fixed_weight_step(
            f,
            fp,
            pole_lo[idx] - mu_a,
            pole_hi[idx] - mu_a,
            z2_lo[idx],
            z2_hi[idx],
            gap[idx],
            orgati[idx],
            last[idx],
        )
        mu_new = mu_a + eta
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
        bad = r[idx]
        raise ConvergenceError(
            f"secular sweep left {bad.size} of {N} roots unconverged "
            f"after {max_iter} iterations (root indices {bad[:8].tolist()}"
            f"{'...' if bad.size > 8 else ''})",
            site="secular.newton",
            iterations=max_iter,
            indices=bad,
        )
    offsets[rows] = mu
    return sweeps


def _solve_all_roots_batched(
    d: np.ndarray,
    z2: np.ndarray,
    rho: float,
    workspace=None,
    max_iter: int = 256,
) -> SecularRoots:
    """All roots, one L2-sized row tile at a time: each tile picks its
    anchors, then runs stacked rational sweeps over its ``(rows, N)``
    pole-difference block with per-root bracket and convergence state."""
    if rho <= 0:
        raise ValueError("solve_all_roots requires rho > 0")
    N = d.size
    anchors = np.arange(N, dtype=np.int64)
    offsets = np.zeros(N, dtype=np.float64)
    sweeps = 0
    upper = rho * float(np.sum(z2))
    for rows in _row_tiles(N, N):
        sweeps = max(
            sweeps,
            _solve_tile(d, z2, rho, upper, rows, anchors, offsets, workspace, max_iter),
        )
    return SecularRoots(d, anchors, offsets, sweeps=sweeps)


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

    ``mode="batched"`` (default) iterates the roots tile by tile with
    vectorized rational sweeps and records the most sweeps a tile needed
    in ``.sweeps``; ``mode="scalar"`` is the original per-root guarded
    Newton, kept as a cross-check oracle.  ``workspace`` optionally pools
    the tile scratch (batched mode only).

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
    no logs needed, no Python loops per entry.  The ``(N, N)`` ratio
    matrix is walked in L2-sized column tiles (poles ``j``); each column's
    product runs over all roots in order, so the tiling changes no bit."""
    d = roots.d
    N = d.size
    lam_anchor = d[roots.anchors]
    val = np.empty(N, dtype=np.float64)
    for cols in _row_tiles(N, N):
        c0, c1 = cols.start, cols.stop
        dj = d[None, cols]
        # L[i, j] = lam_i - d_j, cancellation-free.
        L = _scratch_matrix(workspace, "secular.tile", (N, c1 - c0))
        np.subtract(lam_anchor[:, None], dj, out=L)
        L += roots.offsets[:, None]
        if N == 1:
            val[cols] = L[0] / rho
            continue
        # R[i, j] = d_p - d_j: p = i for rows i < c0 (all i < j), p = i + 1
        # for rows i >= c1 - 1 (all i >= j), mixed in the diagonal block.
        R = _scratch_matrix(workspace, "secular.loewner_ratio", (N - 1, c1 - c0))
        np.subtract(d[:c0, None], dj, out=R[:c0])
        np.subtract(d[c1:, None], dj, out=R[c1 - 1 :])
        i = np.arange(c0, c1 - 1)[:, None]
        R[c0 : c1 - 1] = d[i + (i >= np.arange(c0, c1)[None, :])] - dj
        np.divide(L[: N - 1], R, out=R)
        val[cols] = np.prod(R, axis=0) * (L[N - 1] / rho)
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
    as L2-sized column tiles of the ``(N, N)`` ratio matrix in batched
    mode, or the original per-entry double loop with ``mode="scalar"``.
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
    roots: SecularRoots, zhat: np.ndarray, workspace=None, basis=None
) -> np.ndarray:
    """Normalized ``z_hat_j / (d_j - lam_i)`` rows, one L2-sized tile of
    roots at a time.  Without ``basis`` the tiles fill a pooled ``(N, N)``
    matrix whose transpose is the eigenvector matrix; with it each tile is
    multiplied into ``basis`` at once and no ``(N, N)`` matrix is formed."""
    d = roots.d
    N = zhat.size
    lam_anchor = d[roots.anchors]
    if basis is None:
        UT = _scratch_matrix(workspace, "secular.U", (N, N))
    else:
        out = np.empty((basis.shape[0], N), dtype=np.float64)
    for rows in _row_tiles(N, N):
        if basis is None:
            T = UT[rows]
        else:
            T = _scratch_matrix(workspace, "secular.tile", (rows.stop - rows.start, N))
        # T[i, j] = d_j - lam_i, cancellation-free.
        np.subtract(d[None, :], lam_anchor[rows, None], out=T)
        T -= roots.offsets[rows, None]
        np.divide(zhat[None, :], T, out=T)
        T /= np.sqrt(np.einsum("ij,ij->i", T, T))[:, None]
        if basis is not None:
            out[:, rows] = basis @ T.T
    return UT.T if basis is None else out


def secular_eigenvectors(
    roots: SecularRoots,
    zhat: np.ndarray,
    mode: str = "batched",
    workspace=None,
    basis: np.ndarray | None = None,
) -> np.ndarray:
    """Eigenvector matrix of ``D + rho z_hat z_hat^T`` from the analytic
    formula ``u_i(j) = z_hat_j / (d_j - lam_i)``, columns normalized.

    Batched mode builds the matrix in L2-sized tiles of roots, each one
    broadcasted outer division plus a row normalization; ``mode="scalar"``
    is the original column-at-a-time loop.  When ``workspace`` is given
    the returned matrix is pool-backed scratch — valid until the next
    batched secular call on the same pool (the divide-and-conquer merge
    consumes it immediately in its GEMM).

    With ``basis`` (``k x N``) the product ``basis @ U`` is returned
    instead; batched mode then multiplies tile by tile and never forms
    the ``(N, N)`` matrix (the eigenvalues-only merge, ``k = 2``).
    """
    _check_mode(mode)
    if mode == "scalar":
        U = _secular_eigenvectors_scalar(roots, zhat)
        return U if basis is None else basis @ U
    return _secular_eigenvectors_batched(roots, zhat, workspace=workspace, basis=basis)
