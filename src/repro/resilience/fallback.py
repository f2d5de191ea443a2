"""Fallback-chain execution on top of the plan layer.

A :class:`~repro.plan.EVDPlan` with ``fallback="chain"`` does not run
one pipeline — it runs an ordered *escalation*: the plan itself first,
and on a typed convergence failure or a verification failure, the dense
LAPACK tier, keeping the result that passes
:func:`~repro.resilience.verify.verify_evd`.  A dense plan escalates to
the ``proposed`` pipeline instead.  A ``precision="mixed"`` plan's
escalation to its fp64 twin happens inside the plan's own execution
(:mod:`repro.precision.driver`), so the chain never repeats it.

:func:`execute_plan_with_fallback` is the executor.  It returns a
:class:`FallbackOutcome` carrying the winning result *and* the
:class:`EscalationRecord` trail, so callers (``repro.core.eigh``, the
serving layer) can surface what happened — and, critically, so the
result cache can key an escalated result under the plan that actually
produced it rather than the plan that was asked for.

Only *recoverable* failures escalate: :class:`ConvergenceError` (an
iterative kernel gave up) and :class:`VerificationError` (the answer
came back wrong, NaN/Inf included).  Input-validation errors, plan
errors, and genuine bugs propagate immediately — retrying a malformed
input on a slower solver cannot fix it.

Plan-layer imports are deferred to call time: ``repro.plan`` imports
this package for its error types, so a module-level import here would
recurse into a partially-initialized package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConvergenceError, FallbackExhausted, VerificationError
from .verify import VerificationReport, verify_evd

__all__ = [
    "FALLBACK_MODES",
    "EscalationRecord",
    "FallbackOutcome",
    "resolve_fallback_chain",
    "execute_plan_with_fallback",
]

FALLBACK_MODES = ("none", "chain")


@dataclass(frozen=True)
class EscalationRecord:
    """One failed step of a fallback chain: which plan failed, and why."""

    step: int
    method: str
    solver: str
    error_type: str
    error: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "method": self.method,
            "solver": self.solver,
            "error_type": self.error_type,
            "error": self.error,
        }


@dataclass
class FallbackOutcome:
    """The winning result of a (possibly escalated) plan execution."""

    result: Any  # EVDResult
    plan: Any  # the EVDPlan that actually produced ``result``
    report: VerificationReport
    escalations: list[EscalationRecord] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        return bool(self.escalations)


def resolve_fallback_chain(plan) -> list:
    """The ordered escalation for ``plan``: the plan itself (with
    ``fallback`` cleared — each link is a plain, directly-executable
    plan), then the dense LAPACK tier.  A dense plan's one escalation is
    the ``proposed`` pipeline with divide and conquer.
    """
    import dataclasses

    from ..plan import plan_evd

    primary = (
        dataclasses.replace(plan, fallback="none")
        if getattr(plan, "fallback", "none") != "none"
        else plan
    )
    last = "proposed" if primary.is_dense else "dense"
    return [
        primary,
        plan_evd(
            plan.n,
            last,
            compute_vectors=plan.solver.compute_vectors,
            backend=plan.backend,
        ),
    ]


def _is_recoverable(exc: Exception) -> bool:
    # NonFiniteError (a non-finite tridiagonal) is a VerificationError.
    return isinstance(exc, (ConvergenceError, VerificationError))


def execute_plan_with_fallback(A: np.ndarray, plan, ctx=None) -> FallbackOutcome:
    """Execute ``plan``, escalating along its fallback chain on typed
    convergence/verification failures.

    With ``plan.fallback == "none"`` the chain is just the plan itself
    (so this is a verified :func:`~repro.plan.execute_plan`); with
    ``"chain"`` it is :func:`resolve_fallback_chain`.  Each step runs
    through :func:`~repro.resilience.verify.verify_evd` at its default
    tolerances; a step failing with :class:`ConvergenceError` or
    :class:`VerificationError` is recorded as an
    :class:`EscalationRecord` and the next link runs.  Raises
    :class:`FallbackExhausted` when every link fails.
    """
    from ..plan import execute_plan

    if getattr(plan, "fallback", "none") == "chain":
        chain = resolve_fallback_chain(plan)
    else:
        chain = [plan]

    escalations: list[EscalationRecord] = []
    for step, candidate in enumerate(chain):
        try:
            result = execute_plan(A, candidate, ctx=ctx)
            report = verify_evd(A, result, ctx=ctx).raise_if_failed()
        except Exception as exc:
            if not _is_recoverable(exc) or step == len(chain) - 1:
                if escalations and _is_recoverable(exc):
                    escalations.append(_record(step, candidate, exc))
                    raise FallbackExhausted(
                        f"all {len(chain)} fallback plans failed for n={plan.n}: "
                        + "; ".join(
                            f"{r.method}/{r.solver}: {r.error_type}"
                            for r in escalations
                        ),
                        attempts=escalations,
                    ) from exc
                raise
            escalations.append(_record(step, candidate, exc))
            continue
        return FallbackOutcome(
            result=result, plan=candidate, report=report, escalations=escalations
        )
    # Unreachable: the loop either returns or raises on the last step.
    raise FallbackExhausted(
        f"all {len(chain)} fallback plans failed for n={plan.n}",
        attempts=escalations,
    )


def _record(step: int, candidate, exc: Exception) -> EscalationRecord:
    return EscalationRecord(
        step=step,
        method=candidate.method,
        solver=candidate.solver.kind,
        error_type=type(exc).__name__,
        error=str(exc),
    )
