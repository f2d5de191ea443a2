"""Fallback-chain execution on top of the plan layer.

A :class:`~repro.plan.EVDPlan` with ``fallback="chain"`` does not run
one pipeline — it runs an ordered *escalation*: the proposed pipeline
first, and on a typed convergence failure or a verification failure,
progressively more conservative plans (the dense LAPACK tier, then the
tridiagonal QR iteration) until one produces a result that passes
:func:`~repro.resilience.verify.verify_evd`.

:func:`execute_plan_with_fallback` is the executor.  It returns a
:class:`FallbackOutcome` carrying the winning result *and* the
:class:`EscalationRecord` trail, so callers (``repro.core.eigh``, the
serving layer) can surface what happened — and, critically, so the
result cache can key an escalated result under the plan that actually
produced it rather than the plan that was asked for.

Only *recoverable* failures escalate: :class:`ConvergenceError` (an
iterative kernel gave up), :class:`VerificationError` (the answer came
back wrong), and NaN/Inf in the output.  Input-validation errors, plan
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
    report: VerificationReport | None
    escalations: list[EscalationRecord] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        return bool(self.escalations)


def resolve_fallback_chain(plan) -> list:
    """The ordered escalation for ``plan``: the plan itself (with
    ``fallback`` cleared — each link is a plain, directly-executable
    plan), then — for a non-fp64 precision policy — the plan's fp64
    twin, then the dense LAPACK tier, then the tridiagonal QR
    iteration; links identical to an earlier one are dropped.
    """
    import dataclasses

    from ..plan import plan_evd

    primary = (
        dataclasses.replace(plan, fallback="none")
        if getattr(plan, "fallback", "none") != "none"
        else plan
    )
    vectors = plan.solver.compute_vectors
    candidates = [primary]
    if getattr(plan, "precision", "fp64") != "fp64":
        # A low-precision plan's first escalation target is full fp64 on
        # the same pipeline (the precision driver already tries this for
        # refined policies; the explicit link covers raw-fp32 plans and
        # keeps the chain's invariant that later links are strictly more
        # conservative).
        candidates.append(
            dataclasses.replace(primary, precision="fp64")
        )
    dense = plan_evd(
        plan.n, "dense", compute_vectors=vectors, backend=plan.backend
    )
    qr = plan_evd(
        plan.n,
        "proposed",
        solver="qr",
        compute_vectors=vectors,
        backend=plan.backend,
    )
    candidates += [dense, qr]
    chain: list = []
    seen: set[str] = set()
    for candidate in candidates:
        token = candidate.cache_token()
        if token not in seen:
            seen.add(token)
            chain.append(candidate)
    return chain


def _is_recoverable(exc: Exception) -> bool:
    # NonFiniteError (a non-finite tridiagonal) is a VerificationError.
    return isinstance(exc, (ConvergenceError, VerificationError))


def execute_plan_with_fallback(
    A: np.ndarray,
    plan,
    ctx=None,
    verify: bool = True,
    tol_residual: float | None = None,
    tol_orth: float | None = None,
) -> FallbackOutcome:
    """Execute ``plan``, escalating along its fallback chain on typed
    convergence/verification failures.

    With ``plan.fallback == "none"`` the chain is just the plan itself
    (so this is a verified :func:`~repro.plan.execute_plan`); with
    ``"chain"`` it is :func:`resolve_fallback_chain`.  Each step runs
    through the verifier (unless ``verify=False``, which still rejects
    non-finite output); a step failing with :class:`ConvergenceError`
    or :class:`VerificationError` is recorded as an
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
            if verify:
                report = verify_evd(
                    A,
                    result,
                    tol_residual=tol_residual,
                    tol_orth=tol_orth,
                    ctx=ctx,
                ).raise_if_failed()
            else:
                report = None
                lam = np.asarray(result.eigenvalues)
                bad = not bool(np.all(np.isfinite(lam)))
                if result.eigenvectors is not None:
                    bad = bad or not bool(
                        np.all(np.isfinite(result.eigenvectors))
                    )
                if bad:
                    raise VerificationError(
                        "plan produced non-finite output "
                        f"(method={candidate.method!r})"
                    )
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
