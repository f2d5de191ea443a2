"""Numerical-health verification, fallback chains, and fault injection.

The resilience layer is what makes the fast-but-fragile pipeline
(DBBR → wavefront bulge chasing → D&C secular solves) shippable as a
service:

* :mod:`~repro.resilience.errors` — the typed :class:`ReproError`
  hierarchy every deliberate failure derives from;
* :mod:`~repro.resilience.verify` — residual / orthogonality / spectral
  verification of EVD and tridiagonalization results;
* :mod:`~repro.resilience.fallback` — ordered plan escalation
  (``plan_evd(..., fallback="chain")``) retried on convergence or
  verification failure;
* :mod:`~repro.resilience.breaker` — per-backend circuit breaker for
  the serving layer;
* :mod:`~repro.resilience.faults` — deterministic, seeded fault
  injection at named sites (``REPRO_FAULTS``), powering the chaos suite.
"""

from .breaker import BreakerRegistry, CircuitBreaker
from .errors import (
    BackendFault,
    ConvergenceError,
    DeadlineExceeded,
    FallbackExhausted,
    FaultInjectionError,
    InjectedWorkerCrash,
    NonFiniteError,
    ReproError,
    VerificationError,
    WorkerCrashError,
)
from .fallback import (
    FALLBACK_MODES,
    EscalationRecord,
    FallbackOutcome,
    execute_plan_with_fallback,
    resolve_fallback_chain,
)
from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_faults,
    faults_from_env,
    injected_faults,
    install_faults,
    maybe_corrupt,
    maybe_raise,
    parse_fault_specs,
)
from .verify import (
    DEFAULT_ORTH_FACTOR,
    DEFAULT_RESIDUAL_FACTOR,
    VerificationReport,
    default_tolerances,
    verify_evd,
    verify_tridiag,
)

__all__ = [
    # errors
    "ReproError",
    "ConvergenceError",
    "VerificationError",
    "NonFiniteError",
    "WorkerCrashError",
    "DeadlineExceeded",
    "BackendFault",
    "FallbackExhausted",
    "FaultInjectionError",
    "InjectedWorkerCrash",
    # verify
    "VerificationReport",
    "verify_evd",
    "verify_tridiag",
    "default_tolerances",
    "DEFAULT_RESIDUAL_FACTOR",
    "DEFAULT_ORTH_FACTOR",
    # fallback
    "FALLBACK_MODES",
    "EscalationRecord",
    "FallbackOutcome",
    "resolve_fallback_chain",
    "execute_plan_with_fallback",
    # breaker
    "CircuitBreaker",
    "BreakerRegistry",
    # faults
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "install_faults",
    "clear_faults",
    "injected_faults",
    "active_plan",
    "faults_from_env",
    "parse_fault_specs",
    "maybe_raise",
    "maybe_corrupt",
]
