"""``execute_plan`` — the single stage runner behind every entry point.

One function executes a resolved :class:`~repro.plan.EVDPlan` end to
end: tridiagonalize (via the resolved-config driver in
:mod:`repro.core.tridiag`), tridiagonal eigensolve, back transformation
— or the stacked dense tier when the plan has no pipeline.  ``eigh``,
``eigh_partial`` and every :class:`repro.serve.SolverService` worker
all route through here, so adding a pipeline stage (look-ahead band
reduction, multi-device sharding) is a change to *one* dispatch site.

The runner is bit-identical to the historical per-entry-point dispatch:
stage boundaries, stage-event metadata, array copies and argument
defaulting are reproduced exactly (regression-tested over the full
preset grid in ``tests/plan/test_runner_bitexact.py``).

Imports of :mod:`repro.core` are deferred to call time: ``core``
modules import the planner while they are being imported, so a
module-level back-edge here would cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..resilience.faults import maybe_corrupt
from .config import EVDPlan, SolverConfig
from .errors import PlanError, bad_choice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.evd import EVDResult

__all__ = ["execute_plan", "execute_plan_partial", "solve_tridiagonal_planned"]


def _resolve_plan_context(
    plan: EVDPlan, ctx: ExecutionContext | Any | None
) -> ExecutionContext:
    return resolve_context(ctx if ctx is not None else plan.backend)


def _maybe_corrupt_result(result: "EVDResult") -> "EVDResult":
    """Fault-injection hook at site ``"runner.result"``: poison one entry
    of the assembled payload (eigenvectors when present, else
    eigenvalues).  A no-op returning ``result`` itself unless a ``nan``
    fault is installed — the bit-exactness contract with faults off."""
    if result.eigenvectors is not None:
        V = maybe_corrupt("runner.result", result.eigenvectors)
        if V is not result.eigenvectors:
            result.eigenvectors = V
    else:
        lam = maybe_corrupt("runner.result", result.eigenvalues)
        if lam is not result.eigenvalues:
            result.eigenvalues = lam
    return result


def _check_plan_matches(A: np.ndarray, plan: EVDPlan) -> None:
    """A plan resolved for the wrong ``n`` would silently run the wrong
    block sizes — fail loudly instead.  Non-square inputs pass through:
    the pipeline's own validation raises the typed shape errors."""
    if A.ndim == 2 and A.shape[0] == A.shape[1] and A.shape[0] != plan.n:
        raise PlanError(
            f"plan was resolved for n = {plan.n} but the matrix is "
            f"{A.shape[0]} x {A.shape[0]}; re-plan with plan_evd(n={A.shape[0]}, ...)"
        )


def solve_tridiagonal_planned(
    d: np.ndarray,
    e: np.ndarray,
    solver: SolverConfig,
    ctx: ExecutionContext | None = None,
    vector_dtype: np.dtype | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the plan's tridiagonal eigensolver, divide and conquer, on
    ``(d, e)``; called by :func:`execute_plan` and the precision driver.

    ``vector_dtype`` (mixed-precision policies only) drops the D&C
    eigenvector carrying and merge GEMMs to the given dtype; the
    eigenvalue/secular machinery always runs fp64.  ``None`` — the
    default and the only value the fp64 path ever passes — is
    bit-identical to the historical solver.
    """
    from ..eig.dc import dc_eigh

    if solver.kind != "dc":
        raise bad_choice("tridiagonal solver", solver.kind, ("dc",))
    return dc_eigh(
        d,
        e,
        compute_vectors=solver.compute_vectors,
        ctx=ctx,
        vector_dtype=vector_dtype,
    )


def execute_plan(
    A: np.ndarray,
    plan: EVDPlan,
    ctx: ExecutionContext | Any | None = None,
) -> "EVDResult":
    """Execute a resolved plan on ``A`` and return the ``EVDResult``.

    ``ctx`` overrides the execution context (a warm serving-worker
    context, a hook-carrying benchmark context); when ``None`` a fresh
    context is resolved from ``plan.backend``.  Results are bit-identical
    to ``repro.eigh(A, **the kwargs the plan was built from)``.
    """
    from ..core.evd import EVDResult, eigh_stacked
    from ..core.tridiag import tridiagonalize_planned
    from ..core.validation import NonSquareError

    if plan.precision != "fp64":
        # A mixed plan runs through the precision driver (fp32
        # pipeline, promote, refine, verify, escalate on stall).
        # Deferred import: repro.precision imports the plan layer.
        from ..precision.driver import execute_plan_precision

        return _maybe_corrupt_result(execute_plan_precision(A, plan, ctx=ctx))

    ctx = _resolve_plan_context(plan, ctx)
    if plan.is_dense:
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
        _check_plan_matches(A, plan)
        return _maybe_corrupt_result(
            eigh_stacked(
                A[None], compute_vectors=plan.solver.compute_vectors, backend=ctx
            )[0]
        )
    A = np.asarray(A)
    _check_plan_matches(A, plan)
    with ctx.stage("tridiagonalize", method=plan.method):
        tri = tridiagonalize_planned(A, plan, ctx=ctx)
    with ctx.stage("tridiag_solver", solver=plan.solver.kind):
        lam, U = solve_tridiagonal_planned(tri.d, tri.e, plan.solver, ctx=ctx)
    V: np.ndarray | None = None
    if plan.solver.compute_vectors:
        assert U is not None
        with ctx.stage("back_transform"):
            V = np.array(U, copy=True)
            tri.apply_q(V)
    return _maybe_corrupt_result(
        EVDResult(
            eigenvalues=lam, eigenvectors=V, tridiag=tri, solver=plan.solver.kind
        )
    )


def execute_plan_partial(
    A: np.ndarray,
    plan: EVDPlan,
    indices: tuple[int, int],
    ctx: ExecutionContext | Any | None = None,
) -> "EVDResult":
    """Selected eigenpairs ``indices = (lo, hi)`` through the plan's
    tridiagonalization, LAPACK ``dstebz`` + ``dstein`` for exactly the
    requested eigenpairs of ``T`` (:func:`repro.eig.select.select_eigh`)
    and the plan's back transformation of their eigenvectors (the
    :func:`repro.eigh_partial` flow)."""
    from ..core.evd import EVDResult
    from ..core.tridiag import tridiagonalize_planned
    from ..eig.select import select_eigh

    if plan.is_dense:
        raise PlanError(
            "method 'dense' has no tridiagonal factorization and cannot "
            "serve partial eigenproblems: use one of "
            "'proposed', 'magma', 'cusolver'"
        )
    ctx = _resolve_plan_context(plan, ctx)
    A = np.asarray(A)
    _check_plan_matches(A, plan)
    lo, hi = int(indices[0]), int(indices[1])
    if not (0 <= lo <= hi < plan.n):
        raise ValueError(f"indices {(lo, hi)} out of range for n = {plan.n}")
    with ctx.stage("tridiagonalize", method=plan.method):
        tri = tridiagonalize_planned(A, plan, ctx=ctx)
    lam, V = select_eigh(tri.d, tri.e, lo, hi, plan.solver.compute_vectors)
    if V is not None:
        tri.apply_q(V)
    return EVDResult(
        eigenvalues=lam, eigenvectors=V, tridiag=tri, solver="stebz", window=(lo, hi)
    )
