"""The mixed-precision execution path of the plan runner.

:func:`execute_plan_precision` runs a resolved
:class:`~repro.plan.EVDPlan` whose ``precision`` is not ``"fp64"``:

1. the two-stage reduction in the policy's tridiag dtype (fp32 panel
   QR, SYR2K trailing updates and bulge chasing);
2. the tridiagonal eigensolve with the eigenvector carrying / merge
   GEMMs in the solver dtype (the D&C secular machinery always runs
   fp64 on the fp64-promoted ``(d, e)`` — it is ``O(n^2)`` and
   scalar-sensitive, so there is nothing to win and accuracy to lose);
3. the back transformation in the back-transform dtype;
4. promotion to fp64 and Ogita–Aishima refinement
   (:func:`~repro.precision.refine_eigh`) down to fp64 ``verify_evd``
   tolerances, followed by verification.

**Escalation.**  This is the one place a low-precision plan escalates
to fp64.  A refinement stall
(:class:`~repro.precision.RefinementStalled`), a convergence failure
inside the low-precision pipeline, or a verification failure of the
refined result re-runs the plan's fp64 twin, verified, through
:func:`~repro.resilience.execute_plan_with_fallback` — recording the
failed mixed attempt as an :class:`~repro.resilience.EscalationRecord`
on the result's ``refinement`` report.  The twin runs with
``fallback="none"``: like the fp64 plan itself, it raises when it
fails, and the dense tier is reached only through the plan's fallback
chain (:func:`~repro.resilience.execute_plan_with_fallback` of a
``"chain"`` plan).  Escalation is *deterministic* (refinement has no random state), so a
result produced this way is still a pure function of
``(matrix bytes, plan)`` and remains valid under the plan's cache
token.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..resilience.errors import ConvergenceError, VerificationError
from ..resilience.fallback import EscalationRecord, execute_plan_with_fallback
from ..resilience.verify import verify_evd
from .policy import PrecisionPolicy, resolve_policy
from .refine import RefinementReport, refine_eigh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.evd import EVDResult
    from ..plan.config import EVDPlan

__all__ = ["execute_plan_precision"]


def _pipeline_result(
    A64: np.ndarray,
    plan: "EVDPlan",
    policy: PrecisionPolicy,
    ctx: ExecutionContext,
) -> "EVDResult":
    """Run the three pipeline stages in the policy's dtypes and return
    the unrefined result (fp64 eigenvalues, eigenvectors in the
    back-transform dtype)."""
    from ..core.evd import EVDResult
    from ..core.tridiag import tridiagonalize_planned
    from ..plan.runner import solve_tridiagonal_planned

    with ctx.stage("tridiagonalize", method=plan.method, precision=plan.precision):
        tri = tridiagonalize_planned(A64, plan, ctx=ctx, dtype=policy.tridiag_dtype)
    # The tridiagonal (d, e) promote to fp64 regardless of policy: the
    # secular/QL machinery is O(n^2) and scalar-sensitive — only the
    # O(n^3) vector work drops precision.
    d64 = np.asarray(tri.d, dtype=np.float64)
    e64 = np.asarray(tri.e, dtype=np.float64)
    with ctx.stage("tridiag_solver", solver=plan.solver.kind, precision=plan.precision):
        lam, U = solve_tridiagonal_planned(
            d64, e64, plan.solver, ctx=ctx, vector_dtype=policy.solver_dtype
        )
    assert U is not None  # the planner requires vectors off the fp64 path
    with ctx.stage("back_transform", precision=plan.precision):
        V = np.array(U, dtype=policy.back_transform_dtype, copy=True)
        tri.apply_q(V)
    lam = np.asarray(lam, dtype=np.float64)
    return EVDResult(
        eigenvalues=lam, eigenvectors=V, tridiag=tri, solver=plan.solver.kind
    )


def _escalate(
    A64: np.ndarray,
    plan: "EVDPlan",
    ctx: ExecutionContext,
    exc: Exception,
    iterations: int,
) -> "EVDResult":
    """Refinement stalled (or the low-precision pipeline failed): record
    the mixed attempt and re-execute the plan's fp64 twin, verified and
    without a fallback chain, so it fails exactly as the fp64 plan does."""
    record = EscalationRecord(
        step=0,
        method=f"{plan.method}[precision={plan.precision}]",
        solver=plan.solver.kind,
        error_type=type(exc).__name__,
        error=str(exc),
    )
    fp64_plan = dataclasses.replace(plan, precision="fp64", fallback="none")
    outcome = execute_plan_with_fallback(A64, fp64_plan, ctx=ctx)
    report = RefinementReport(
        iterations=iterations, converged=False, escalated=True
    )
    report.escalations = [record] + list(outcome.escalations)
    result = outcome.result
    result.refinement = report
    return result


def execute_plan_precision(
    A: np.ndarray,
    plan: "EVDPlan",
    ctx: ExecutionContext | Any | None = None,
) -> "EVDResult":
    """Execute a ``precision="mixed"`` plan.

    Called by :func:`repro.plan.execute_plan` (never directly by entry
    points); returns the same :class:`~repro.core.evd.EVDResult` shape,
    with ``result.refinement`` carrying the
    :class:`~repro.precision.RefinementReport`.
    """
    from ..core.validation import NonSquareError, check_symmetric
    from ..plan.runner import _check_plan_matches, _resolve_plan_context

    policy = resolve_policy(plan.precision)
    ctx = _resolve_plan_context(plan, ctx)
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {A.shape}")
    _check_plan_matches(A, plan)
    # The fp64 master copy: the refinement/verification reference, and
    # the input each pipeline stage casts down from.  No upcast warning —
    # a float32 input under an explicit precision policy is exactly the
    # intended use.
    A64 = check_symmetric(A, warn_on_upcast=False)

    try:
        result = _pipeline_result(A64, plan, policy, ctx)
    except (ConvergenceError, VerificationError) as exc:
        return _escalate(A64, plan, ctx, exc, iterations=0)

    assert result.eigenvectors is not None
    try:
        lam, V, report = refine_eigh(
            A64, result.eigenvalues, result.eigenvectors, ctx=ctx
        )
    except ConvergenceError as exc:  # RefinementStalled, or an injected fault
        return _escalate(A64, plan, ctx, exc, iterations=exc.iterations or 0)
    result.eigenvalues = lam
    result.eigenvectors = V
    result.refinement = report
    try:
        verify_evd(A64, result, ctx=ctx).raise_if_failed()
    except VerificationError as exc:
        return _escalate(A64, plan, ctx, exc, iterations=report.iterations)
    return result
