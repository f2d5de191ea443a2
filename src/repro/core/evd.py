"""End-to-end symmetric eigenvalue decomposition (Section 6.2).

:func:`eigh` composes the tridiagonalization of :mod:`repro.core.tridiag`
with a tridiagonal eigensolver and the back transformation:

    A = Q T Q^T,   T = U Lambda U^T   =>   A = (Q U) Lambda (Q U)^T.

Three presets mirror the paper's comparison:

* ``method="proposed"`` — DBBR + pipelined GPU-style bulge chasing
  (wavefront-batched engine) + divide & conquer + grouped WY back
  transformation in width-``k`` groups (Figure 13);
* ``method="magma"`` — single-blocking SBR + bulge chasing with one sweep
  in flight (``max_sweeps=1``, MAGMA's sequential order) + divide &
  conquer + back transformation in the `ormqr` order (one width-``b``
  block at a time);
* ``method="cusolver"`` — direct one-stage tridiagonalization + divide &
  conquer.

The tridiagonal solver is divide & conquer (MAGMA's ``Dstedc``);
:func:`eigh_partial` selects its eigenpairs with LAPACK ``dstebz`` +
``dstein`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..precision.refine import RefinementReport

from ..backend.base import ArrayBackend
from ..backend.context import ExecutionContext, resolve_context
from ..plan.planner import plan_evd
from ..plan.runner import execute_plan, execute_plan_partial
from .tridiag import TridiagResult
from .validation import EmptyMatrixError, NonSquareError, check_symmetric

__all__ = ["EVDResult", "eigh", "eigh_partial", "eigh_stacked"]


@dataclass
class EVDResult:
    """Eigenvalues (ascending) and, optionally, orthonormal eigenvectors
    (columns), plus the tridiagonalization artifacts for inspection.

    ``tridiag`` is ``None`` for the ``method="dense"`` tier, which never
    forms an explicit tridiagonal factorization.

    ``refinement`` is populated only by the mixed-precision execution path
    (``precision != "fp64"``): the :class:`repro.precision.RefinementReport`
    of the iterative eigenpair refinement that promoted the low-precision
    pipeline output back to fp64 accuracy.

    ``window`` is the inclusive index range ``(lo, hi)`` of a partial
    result (:func:`eigh_partial`), ``None`` for a whole spectrum;
    :func:`~repro.resilience.verify_evd` checks the eigenvalue count
    against it."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    tridiag: TridiagResult | None
    solver: str
    refinement: RefinementReport | None = None
    window: tuple[int, int] | None = None

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def residual(self, A: np.ndarray) -> float:
        """``||A V - V diag(lam)||_F / ||A||_F`` (requires eigenvectors)."""
        if self.eigenvectors is None:
            raise ValueError("eigenvectors were not computed")
        V = self.eigenvectors
        return float(
            np.linalg.norm(A @ V - V * self.eigenvalues) / max(np.linalg.norm(A), 1e-300)
        )


def eigh_stacked(
    As: np.ndarray,
    compute_vectors: bool = True,
    backend: str | ArrayBackend | ExecutionContext | None = None,
) -> list[EVDResult]:
    """Solve ``m`` independent small eigenproblems in one stacked call.

    ``As`` is an ``(m, n, n)`` stack of symmetric matrices; the whole
    stack is handed to the backend's dense ``eigh`` in a single batched
    call (LAPACK ``dsyevd`` per slice under NumPy, genuinely batched
    ``syevj``-style kernels under torch/cupy) — the serving layer's
    dense tier, aggregating many tiny solves into one fat
    launch exactly as the paper aggregates panel updates into one
    ``syr2k``.

    Each item is validated and symmetrized independently with the same
    arithmetic as a single :func:`eigh` call, and the batched kernel is
    *batch-invariant*: item ``i``'s result is bitwise independent of the
    other slices in the stack, so ``eigh_stacked(As)[i]`` is bit-identical
    to ``eigh(As[i], method="dense")`` (the determinism contract of
    :class:`repro.serve.SolverService`; property-tested).

    Returns one :class:`EVDResult` per slice (``tridiag`` is ``None`` —
    no tridiagonal factorization exists on this path).
    """
    As = np.asarray(As)
    if As.ndim != 3 or As.shape[1] != As.shape[2]:
        raise NonSquareError(
            f"expected an (m, n, n) stack of square matrices, got shape {As.shape}"
        )
    if As.shape[0] == 0:
        raise EmptyMatrixError("expected a non-empty stack, got zero matrices")
    ctx = resolve_context(backend)
    m, n = As.shape[0], As.shape[1]
    # Per-item validation/symmetrization: identical arithmetic to the
    # single-call path (stacked norms would change summation order).
    clean = np.empty((m, n, n), dtype=np.float64)
    for i in range(m):
        clean[i] = check_symmetric(As[i])
    with ctx.stage("dense_eigh", m=m, n=n):
        w, V = ctx.backend.eigh(ctx.from_numpy(clean))
        lam = ctx.to_numpy(w)
        vecs = ctx.to_numpy(V) if compute_vectors else None
    return [
        EVDResult(
            eigenvalues=np.array(lam[i], copy=True),
            eigenvectors=(
                np.array(vecs[i], dtype=np.float64, copy=True)
                if vecs is not None
                else None
            ),
            tridiag=None,
            solver="dense",
        )
        for i in range(m)
    ]


def eigh(
    A: np.ndarray,
    method: str = "proposed",
    compute_vectors: bool = True,
    backend: str | ArrayBackend | ExecutionContext | None = None,
    fallback: str = "none",
    precision: str = "fp64",
    **tridiag_kwargs,
) -> EVDResult:
    """Full symmetric EVD of ``A``.

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric input (not modified).
    method : {"proposed", "magma", "cusolver", "dense"}
        Pipeline preset (see module docstring); the raw
        tridiagonalization methods are :func:`~repro.core.tridiagonalize`'s.
        The pipeline knobs below override a preset's own values
        (``method="magma", max_sweeps=None`` is SBR with unbounded sweeps).
        ``"dense"`` bypasses the tridiagonalization pipeline entirely and
        calls the backend's batched dense solver via :func:`eigh_stacked`
        — the small-``n`` serving tier (``result.tridiag`` is ``None``).
    compute_vectors : bool
        Compute eigenvectors (the expensive back-transformation path).
    backend : str, ArrayBackend or ExecutionContext, optional
        Execution substrate for the whole pipeline (see
        :func:`repro.core.tridiag.tridiagonalize`); stage times land in
        ``result.tridiag.ctx.stage_times`` under ``"tridiagonalize"``,
        ``"tridiag_solver"`` and ``"back_transform"``, with the D&C
        sub-stages ``"dc_leaf"``, ``"dc_deflate"``, ``"dc_secular"`` and
        ``"dc_gemm"`` nested inside the solver time.
    fallback : {"none", "chain"}
        ``"chain"`` executes through
        :func:`repro.resilience.execute_plan_with_fallback`: the result
        is verified (:func:`repro.resilience.verify_evd`) and on a typed
        convergence or verification failure the dense LAPACK tier is
        tried (the ``proposed`` pipeline, when ``method="dense"``).
    precision : {"fp64", "mixed"}
        Working-precision policy (see :mod:`repro.precision`).  ``"fp64"``
        is the historical bit-identical path.  ``"mixed"`` runs the
        two-stage reduction and the D&C eigenvector GEMMs in float32,
        then promotes, iteratively refines and verifies the eigenpairs
        at fp64 tolerances (escalating to the full fp64 pipeline if the
        refinement stalls or the result fails verification).  It
        requires the NumPy backend and ``compute_vectors=True``.
    **tridiag_kwargs
        The pipeline knob surface (``bandwidth``, ``second_block``,
        ``max_sweeps``) — parsed into a typed
        :class:`repro.plan.EVDPlan` at this boundary, so an unknown or
        misspelled knob raises :class:`repro.plan.PlanError` here,
        naming the valid knobs, instead of a late ``TypeError`` deep
        inside the pipeline.

    Returns
    -------
    EVDResult
    """
    ctx = resolve_context(backend)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    plan = plan_evd(
        A.shape[0],
        method,
        compute_vectors=compute_vectors,
        backend=ctx.backend.name,
        fallback=fallback,
        precision=precision,
        **tridiag_kwargs,
    )
    if plan.fallback == "chain":
        from ..resilience.fallback import execute_plan_with_fallback

        return execute_plan_with_fallback(A, plan, ctx=ctx).result
    return execute_plan(A, plan, ctx=ctx)


def eigh_partial(
    A: np.ndarray,
    indices: tuple[int, int],
    method: str = "proposed",
    compute_vectors: bool = True,
    backend: str | ArrayBackend | ExecutionContext | None = None,
    **tridiag_kwargs,
) -> EVDResult:
    """Selected eigenpairs ``indices = (lo, hi)`` (inclusive, 0 = smallest).

    Tridiagonalizes once, then selects exactly the requested eigenpairs
    of the tridiagonal with LAPACK ``dstebz`` (bisection) and ``dstein``
    (inverse iteration) and back-transforms their eigenvectors — the back
    transform touches only ``hi - lo + 1`` columns, so a small window
    costs ``O(n^2 m)`` instead of ``O(n^3)`` (the expensive path
    Section 6.2 laments).

    Returns an :class:`EVDResult` whose arrays have ``hi - lo + 1``
    entries/columns.
    """
    lo, hi = int(indices[0]), int(indices[1])
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise EmptyMatrixError("expected a non-empty matrix, got shape (0, 0)")
    A = np.asarray(A, dtype=np.float64)
    ctx = resolve_context(backend)
    plan = plan_evd(
        A.shape[0],
        method,
        compute_vectors=compute_vectors,
        backend=ctx.backend.name,
        **tridiag_kwargs,
    )
    return execute_plan_partial(A, plan, (lo, hi), ctx=ctx)
