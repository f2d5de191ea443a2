"""Vectorized Ogita–Aishima eigenpair refinement.

A low-precision eigendecomposition ``A ≈ Ṽ Λ̃ Ṽᵀ`` (fp32 pipeline
output, promoted) carries ``O(eps_fp32)`` residual and orthogonality
error.  One Ogita–Aishima iteration [Ogita & Aishima, *Iterative
refinement for symmetric eigenvalue decomposition*, JJIAM 2018] squares
that error using only fp64 BLAS-3:

.. math::

    G &= ṼᵀṼ, \\qquad  S = Ṽᵀ A Ṽ, \\qquad  R = I - G \\\\
    λ̃_i &= S_{ii} / G_{ii}  \\quad\\text{(Rayleigh quotients)} \\\\
    E_{ij} &= (S_{ij} + λ̃_j R_{ij}) / (λ̃_j - λ̃_i)
        \\quad (i \\ne j,\\ \\text{well separated}) \\\\
    E_{ii} &= R_{ii} / 2, \\qquad  Ṽ \\leftarrow Ṽ (I + E)

so two to three iterations take an fp32-accurate start (``~1e-6``) to
fp64 ``verify_evd`` tolerances.  The whole update is a handful of
``n×n`` GEMMs — exactly the shape the paper's pipeline is built to
feed.

**Clusters.**  The division blows up when ``λ̃_j - λ̃_i`` is of the
order of the current error, so nearly-degenerate eigenvalues are
grouped: the sorted Rayleigh quotients split into connected components
wherever two neighbours lie more than a threshold apart, and every pair
*inside* a component — its two ends too, however far the chain
stretches — skips the division.  The threshold is
``max(CLUSTER_FACTOR · err_scale, ε‖A‖_F / tol_orth)``: the first term
follows the current error, the second is an accuracy floor, since fp64
roundoff in ``S`` lets the division resolve a pair ``δ`` apart only to
about ``ε‖A‖_F / δ`` in orthogonality.  Within a component the update
falls back to the Newton–Schulz orthogonalization correction
``E_{ij} = R_{ij}/2`` — which restores orthogonality but not the
invariant subspace mixing — and each component is then resolved
exactly by a small Rayleigh–Ritz rotation: diagonalize ``V_cᵀ A V_c``
(``|c| × |c|``, fp64) and rotate its columns.

**Cost.**  A sweep first measures (``AV`` and ``G``); ``S = VᵀAV`` and
the update follow only when the tolerances are not met, so the final,
converged sweep is two GEMMs.

**Failure.**  Refinement that stops making progress (a wildly wrong
start, an injected fault at site ``"precision.refine"``) raises the
typed :class:`RefinementStalled` — a
:class:`~repro.resilience.ConvergenceError`, so the existing fallback
chain recognizes it as recoverable and escalates to full fp64.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise
from ..resilience.verify import default_tolerances

__all__ = ["RefinementReport", "RefinementStalled", "refine_eigh"]

_EPS64 = float(np.finfo(np.float64).eps)

#: Give up when an iteration improves the residual by less than this
#: factor while still above tolerance (quadratic convergence should gain
#: orders of magnitude per step; anything below 2x is a stall).
STALL_FACTOR = 2.0

#: Neighbouring eigenvalues closer than ``CLUSTER_FACTOR * err_scale``
#: (or than the accuracy floor) join one component (the division in the
#: update cannot resolve them).
CLUSTER_FACTOR = 10.0


class RefinementStalled(ConvergenceError):
    """Eigenpair refinement failed to reach fp64 tolerances.

    A :class:`~repro.resilience.ReproError` (via
    :class:`~repro.resilience.ConvergenceError`), recognized by the
    fallback chain as recoverable: the mixed-precision driver escalates
    a stalled refinement to full fp64 execution."""


@dataclass
class RefinementReport:
    """Per-iteration accounting of one :func:`refine_eigh` run.

    ``residuals`` / ``orth_errors`` hold the measured values *entering*
    each iteration (index 0 = the unrefined input), so the quadratic
    contraction is visible in the history.  ``escalated`` /
    ``escalations`` are filled by the mixed-precision driver when a
    stall forced fp64 re-execution."""

    iterations: int = 0
    converged: bool = False
    residuals: list[float] = field(default_factory=list)
    orth_errors: list[float] = field(default_factory=list)
    tol_residual: float = 0.0
    tol_orth: float = 0.0
    clusters: int = 0
    escalated: bool = False
    escalations: list[Any] = field(default_factory=list)

    @property
    def residual(self) -> float | None:
        return self.residuals[-1] if self.residuals else None

    @property
    def orth_error(self) -> float | None:
        return self.orth_errors[-1] if self.orth_errors else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "residuals": list(self.residuals),
            "orth_errors": list(self.orth_errors),
            "tol_residual": self.tol_residual,
            "tol_orth": self.tol_orth,
            "clusters": self.clusters,
            "escalated": self.escalated,
        }


def _components(lam: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the gap graph: eigenvalues closer than
    ``gap`` are joined, and so, transitively, are chains of them.

    Returns the stable ascending ``order`` of ``lam`` and one component
    id per eigenvalue (in ``lam``'s own order); ids ascend along
    ``order``, so each component is a contiguous run of the sorted
    eigenvalues."""
    order = np.argsort(lam, kind="stable")
    ids = np.empty(lam.size, dtype=np.intp)
    ids[order] = np.concatenate(([0], np.cumsum(np.diff(lam[order]) > gap)))
    return order, ids


def _groups(sorted_ids: np.ndarray) -> list[slice]:
    """The nontrivial (size >= 2) components as slices of the sorted
    eigenvalues, given their ids in ascending order."""
    starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    stops = np.append(starts[1:], sorted_ids.size)
    return [slice(a, b) for a, b in zip(starts.tolist(), stops.tolist()) if b - a >= 2]


#: Columns multiplied by ``A`` at once in the Rayleigh–Ritz step.  One
#: pass over ``A`` serves every narrow group of a batch; at this width the
#: product is already compute-bound, so wider batches would only hold
#: more memory (an ``n x width`` copy of ``V`` and its product).
_RR_BATCH = 128


def _rayleigh_ritz_clusters(
    A: np.ndarray, V: np.ndarray, lam: np.ndarray, groups: list[slice]
) -> None:
    """Resolve each nearly-degenerate group exactly: diagonalize the
    small fp64 Rayleigh quotient ``V_cᵀ A V_c`` and rotate the group's
    columns in place.  Consecutive groups are multiplied by ``A`` together,
    about ``_RR_BATCH`` columns at a time, so many narrow groups read
    ``A`` once rather than once each."""
    offsets = np.cumsum([0] + [sl.stop - sl.start for sl in groups[:-1]])
    for _, run in itertools.groupby(zip(offsets // _RR_BATCH, groups), key=lambda t: t[0]):
        batch = [sl for _, sl in run]
        AV = A @ V[:, batch[0] if len(batch) == 1 else np.r_[tuple(batch)]]
        k = 0
        for sl in batch:
            Vc = V[:, sl]
            M = Vc.T @ AV[:, k : k + Vc.shape[1]]
            k += Vc.shape[1]
            w, W = np.linalg.eigh((M + M.T) / 2.0)
            V[:, sl] = Vc @ W
            lam[sl] = w


def refine_eigh(
    A: np.ndarray,
    lam: np.ndarray,
    V: np.ndarray,
    tol_residual: float | None = None,
    tol_orth: float | None = None,
    max_iter: int = 6,
    ctx: Any | None = None,
) -> tuple[np.ndarray, np.ndarray, RefinementReport]:
    """Refine an approximate eigendecomposition to fp64 tolerances.

    Parameters
    ----------
    A : (n, n) ndarray
        The fp64 symmetric input matrix (not modified).
    lam : (n,) ndarray
        Approximate eigenvalues, ascending.
    V : (n, n) ndarray
        Approximate eigenvectors (columns); any floating dtype —
        promoted to fp64 internally.
    tol_residual, tol_orth : float, optional
        Convergence targets (default: the fp64
        :func:`~repro.resilience.default_tolerances` used by
        ``verify_evd``).
    max_iter : int
        Iteration cap before declaring a stall.
    ctx : ExecutionContext, optional
        When given, each sweep is timed as stage ``"refine_evd"``.

    Returns
    -------
    (lam, V, report)
        Refined fp64 eigenvalues (ascending) and eigenvectors, plus the
        per-iteration :class:`RefinementReport`.

    Raises
    ------
    RefinementStalled
        Tolerances were not reached within ``max_iter`` iterations, or
        an iteration stopped improving the residual.
    """
    A = np.asarray(A, dtype=np.float64)
    lam = np.array(lam, dtype=np.float64, copy=True)
    V = np.array(V, dtype=np.float64, copy=True)
    n = int(lam.size)
    tr, to = default_tolerances(n)
    tol_residual = tr if tol_residual is None else float(tol_residual)
    tol_orth = to if tol_orth is None else float(tol_orth)
    norm = max(float(np.linalg.norm(A)), float(np.finfo(np.float64).tiny))
    # The division separates a pair ``delta`` apart only to about
    # ``eps * ||A|| / delta`` in orthogonality; closer pairs go to
    # Rayleigh–Ritz whatever the current error.
    gap_floor = _EPS64 * norm / max(tol_orth, _EPS64)
    eye = np.eye(n)
    report = RefinementReport(tol_residual=tol_residual, tol_orth=tol_orth)

    def _sweep() -> bool:
        """One measurement + (if unconverged) one update; True = done."""
        maybe_raise("precision.refine")
        AV = A @ V
        G = V.T @ V
        res = float(np.linalg.norm(AV - V * lam[None, :])) / norm
        orth = float(np.linalg.norm(G - eye))
        report.residuals.append(res)
        report.orth_errors.append(orth)
        if res <= tol_residual and orth <= tol_orth:
            report.converged = True
            return True
        if len(report.residuals) >= 2:
            prev = report.residuals[-2]
            if res * STALL_FACTOR > prev and orth * STALL_FACTOR > report.orth_errors[-2]:
                raise RefinementStalled(
                    f"eigenpair refinement stalled after {report.iterations} "
                    f"iteration(s): residual {res:.3e} (tol {tol_residual:.3e}), "
                    f"orthogonality {orth:.3e} (tol {tol_orth:.3e})",
                    site="precision.refine",
                    iterations=report.iterations,
                )
        # Ogita–Aishima update (all fp64 BLAS-3); S only now that another
        # update is certain.
        S = V.T @ AV
        del AV
        diag_G = np.diagonal(G).copy()
        lam_new = np.diagonal(S) / np.where(diag_G > 0.0, diag_G, 1.0)
        R = np.subtract(eye, G, out=G)
        err_scale = max(res * norm, float(n) * _EPS64 * norm)
        gap = max(CLUSTER_FACTOR * err_scale, gap_floor)
        order, ids = _components(lam_new, gap)
        # Pairs in different components take the division; pairs in one
        # component (the diagonal included) take R/2 and are left to
        # Rayleigh–Ritz.
        same = ids[:, None] == ids[None, :]
        denom = lam_new[None, :] - lam_new[:, None]
        denom[same] = 1.0
        S += R * lam_new[None, :]
        E = np.divide(S, denom, out=S)
        E[same] = R[same] / 2.0
        np.add(V, V @ E, out=V)
        lam[...] = lam_new
        groups = _groups(ids[order])
        if groups:
            report.clusters = max(report.clusters, len(groups))
            lam[...] = lam[order]
            V[...] = V[:, order]
            _rayleigh_ritz_clusters(A, V, lam, groups)
        return False

    for _ in range(max_iter + 1):
        report.iterations += 1
        if ctx is not None:
            with ctx.stage("refine_evd", n=n):
                done = _sweep()
        else:
            done = _sweep()
        if done:
            break
    else:
        raise RefinementStalled(
            f"eigenpair refinement did not reach fp64 tolerances within "
            f"{max_iter} iteration(s): residual "
            f"{report.residual:.3e} (tol {tol_residual:.3e}), orthogonality "
            f"{report.orth_error:.3e} (tol {tol_orth:.3e})",
            site="precision.refine",
            iterations=report.iterations,
        )

    # The update and cluster rotations preserve ascending order up to
    # roundoff; restore it exactly (the API contract verify_evd checks).
    if np.any(np.diff(lam) < 0.0):
        order = np.argsort(lam, kind="stable")
        lam = lam[order]
        V = np.take(V, order, axis=1)
    return lam, V, report
