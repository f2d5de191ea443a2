"""The typed error hierarchy of the resilience layer.

Every failure the stack can produce on purpose derives from
:class:`ReproError`, so a caller (and the serving layer, which must map
any failure to a failed future without string-matching messages) can
write one ``except ReproError`` and know it has covered every
deliberate rejection: input validation (:mod:`repro.core.validation`),
plan validation (:mod:`repro.plan.errors`), convergence guards
(:class:`ConvergenceError`), result verification
(:class:`VerificationError`, :class:`NonFiniteError`), and the
service-level fault-tolerance machinery (:class:`WorkerCrashError`,
:class:`DeadlineExceeded`, :class:`BackendFault`,
:class:`FallbackExhausted`).

The pre-existing error types keep their historical base classes
(``ValueError`` for validation/plan errors, ``numpy.linalg.LinAlgError``
for convergence failures) through multiple inheritance, so every
``except ValueError`` / ``except LinAlgError`` written against earlier
versions keeps catching exactly what it used to.

:class:`InjectedWorkerCrash` is deliberately a ``BaseException``: it
simulates a worker thread *dying* (not a request failing), so it must
escape the per-request ``except Exception`` handlers exactly as a real
thread-killing condition would, and be handled only by the worker
supervisor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
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
]


class ReproError(Exception):
    """Base class of every typed, deliberate failure in the repro stack."""


class ConvergenceError(ReproError, np.linalg.LinAlgError):
    """An iterative kernel hit its iteration cap without converging.

    Carries enough context to diagnose (and for the fallback chain to
    decide): the named ``site`` that stalled, the ``iterations`` spent,
    and the ``indices`` of the offending roots/eigenvalues (when the
    kernel tracks per-root state).

    Subclasses :class:`numpy.linalg.LinAlgError` so callers that catch
    the ``LinAlgError`` NumPy's own LAPACK kernels raise also catch the
    failures of the LAPACK routines the solve path binds itself.
    """

    def __init__(
        self,
        message: str,
        site: str | None = None,
        iterations: int | None = None,
        indices: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        super().__init__(message)
        self.site = site
        self.iterations = iterations
        self.indices: list[int] | None = (
            [int(i) for i in np.asarray(indices).ravel()]
            if indices is not None
            else None
        )


class VerificationError(ReproError):
    """A computed result failed numerical-health verification.

    ``report`` is the :class:`~repro.resilience.verify.VerificationReport`
    whose checks failed (residual / orthogonality / finiteness / order).
    """

    def __init__(self, message: str, report=None) -> None:
        super().__init__(message)
        self.report = report


class NonFiniteError(VerificationError):
    """A stage turned finite input into non-finite output.

    :func:`repro.core.tridiag.tridiagonalize` raises it when ``d`` or
    ``e`` is not finite — an input whose max|A| nears the overflow
    threshold squares past it in the reflector norms.  It is a
    :class:`VerificationError`, so fallback chains and the
    mixed-precision driver escalate on it; ``site`` names the stage.
    """

    def __init__(self, message: str, site: str | None = None) -> None:
        super().__init__(message)
        self.site = site


class WorkerCrashError(ReproError):
    """A service worker thread died while executing this request and the
    request exhausted its crash-retry budget.  The future fails with
    this instead of hanging forever — no future is ever lost."""


class DeadlineExceeded(ReproError):
    """The request's deadline expired before a worker could execute it
    (deadlines are enforced cooperatively at execution boundaries)."""


class BackendFault(ReproError, RuntimeError):
    """An array backend failed while executing a solve — the failure
    class the per-backend circuit breaker counts."""

    def __init__(self, message: str, backend: str | None = None) -> None:
        super().__init__(message)
        self.backend = backend


class FallbackExhausted(ReproError):
    """Every plan in a fallback chain failed.  ``attempts`` records the
    per-step :class:`~repro.resilience.fallback.EscalationRecord` list."""

    def __init__(self, message: str, attempts=None) -> None:
        super().__init__(message)
        self.attempts = list(attempts or [])


class FaultInjectionError(ReproError):
    """A fault-injection spec is malformed (unknown site/kind, bad
    count) — raised at install time, never from an injection site."""


class InjectedWorkerCrash(BaseException):
    """Simulated worker-thread death (fault kind ``"crash"``).

    Deliberately *not* an ``Exception``: it must sail past the
    per-request ``except Exception`` handlers, exactly like a genuine
    thread-killing failure, and reach the worker supervisor.
    """

    def __init__(self, site: str = "serve.worker") -> None:
        super().__init__(f"injected worker crash at fault site {site!r}")
        self.site = site
