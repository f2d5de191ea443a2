"""Numerical-health verification of EVD and tridiagonalization results.

A divide-and-conquer eigensolver trades internal state for accuracy
risk: a pathological deflation cluster or a stalled secular sweep can
produce a *plausible-looking* wrong answer, which is only shippable
behind a residual check and an escalation path.  This module is the
check:

* :func:`verify_evd` — relative residual ``||A V - V Λ||_F / ||A||_F``
  and orthogonality loss ``||VᵀV - I||_F`` against configurable
  tolerances, plus the cheap structural invariants (finite entries,
  ascending eigenvalues, trace consistency) that also cover
  eigenvalues-only results;
* :func:`verify_tridiag` — reconstruction ``||A - Q T Qᵀ||_F / ||A||_F``
  and ``||QᵀQ - I||_F`` for a tridiagonal factorization.

Both return a :class:`VerificationReport` (never raise on a bad
result — call :meth:`VerificationReport.raise_if_failed` for the typed
:class:`~repro.resilience.errors.VerificationError`), and both emit a
``verify_evd`` / ``verify_tridiag`` stage event through the execution
context when one is supplied, so verification time and count surface in
``SolverService.stats()`` next to the pipeline stages.

Default tolerances scale with problem size as ``factor * n * eps``
(`DEFAULT_RESIDUAL_FACTOR` / ``DEFAULT_ORTH_FACTOR``): loose enough for
every healthy path in the repo (which lands near ``n * eps``), tight
enough that a poisoned payload or a silently-unconverged root fails.

The norms square the entries, so outside ``dsyevd``'s scaling range
``[rmin, rmax]`` they under- or overflow and every relative measure
reads 0.  There both checks first scale ``A`` and the result's spectrum
by one power of two (exact) that brings ``max|A|`` near 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VerificationError

__all__ = [
    "VerificationReport",
    "verify_evd",
    "verify_tridiag",
    "default_tolerances",
    "DEFAULT_RESIDUAL_FACTOR",
    "DEFAULT_ORTH_FACTOR",
]

_EPS = float(np.finfo(np.float64).eps)

#: ``tol = FACTOR * n * eps`` — healthy results sit 1-2 orders below.
DEFAULT_RESIDUAL_FACTOR = 200.0
DEFAULT_ORTH_FACTOR = 200.0


def default_tolerances(n: int) -> tuple[float, float]:
    """``(tol_residual, tol_orth)`` for an ``n x n`` problem."""
    n = max(int(n), 1)
    return DEFAULT_RESIDUAL_FACTOR * n * _EPS, DEFAULT_ORTH_FACTOR * n * _EPS


@dataclass
class VerificationReport:
    """Outcome of one verification: per-check booleans + the measured
    quantities (``None`` where a check did not apply, e.g. residual for
    an eigenvalues-only result)."""

    kind: str  # "evd" | "tridiag"
    n: int
    ok: bool = True
    residual: float | None = None
    orth_error: float | None = None
    trace_error: float | None = None
    tol_residual: float = 0.0
    tol_orth: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def failures(self) -> list[str]:
        return sorted(name for name, passed in self.checks.items() if not passed)

    def _record(self, name: str, passed: bool) -> bool:
        self.checks[name] = bool(passed)
        if not passed:
            self.ok = False
        return self.checks[name]

    def raise_if_failed(self) -> "VerificationReport":
        """Return ``self`` when healthy, raise :class:`VerificationError`
        (carrying this report) otherwise."""
        if not self.ok:
            detail = ", ".join(self.failures)
            raise VerificationError(
                f"{self.kind} result failed verification ({detail}): "
                f"residual={self.residual!r} (tol {self.tol_residual:.3e}), "
                f"orth={self.orth_error!r} (tol {self.tol_orth:.3e})",
                report=self,
            )
        return self

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "ok": self.ok,
            "residual": self.residual,
            "orth_error": self.orth_error,
            "trace_error": self.trace_error,
            "tol_residual": self.tol_residual,
            "tol_orth": self.tol_orth,
            "checks": dict(self.checks),
        }


def _norm_floor(A: np.ndarray) -> float:
    return max(float(np.linalg.norm(A)), float(np.finfo(np.float64).tiny))


#: ``dsyevd``'s thresholds ``sqrt(smlnum)`` and ``sqrt(1 / smlnum)``, with
#: ``smlnum = safmin / eps``: inside them squares neither under- nor overflow.
_RMIN = float(np.sqrt(np.finfo(np.float64).tiny / _EPS))
_RMAX = 1.0 / _RMIN


def _scale_exponent(A: np.ndarray) -> int:
    """``k`` such that ``2**k * max|A|`` lies in ``[0.5, 1)`` when
    ``max|A|`` is outside ``[_RMIN, _RMAX]``; 0 otherwise (also for a zero
    or non-finite ``A``)."""
    amax = float(np.max(np.abs(A), initial=0.0))
    if amax == 0.0 or not np.isfinite(amax) or _RMIN <= amax <= _RMAX:
        return 0
    return -int(np.frexp(amax)[1])


def verify_evd(
    A: np.ndarray,
    result,
    tol_residual: float | None = None,
    tol_orth: float | None = None,
    ctx=None,
) -> VerificationReport:
    """Verify an :class:`~repro.core.evd.EVDResult` against its input.

    Checks, in order of cost:

    * ``count`` — ``n`` eigenvalues (``hi - lo + 1`` for a result that
      records a ``window``), and eigenvectors, when present, of matching
      shape; the remaining checks are skipped when it fails;
    * ``finite`` — no NaN/Inf in eigenvalues (or eigenvectors);
    * ``ordered`` — eigenvalues ascending (the API contract);
    * ``trace`` — ``|Σλ - tr(A)| / ||A||_F`` within the residual
      tolerance (the one spectral invariant an eigenvalues-only result
      can still be checked against);
    * with eigenvectors: ``residual`` — ``||A V - V Λ||_F / ||A||_F``
      and ``orthogonality`` — ``||VᵀV - I||_F``.

    A partial result (one whose ``window``, as
    :func:`~repro.core.eigh_partial` records it, leaves out part of the
    spectrum) skips the trace check, which only a whole spectrum
    satisfies; its tolerances are still those of the ``n x n`` problem.

    ``ctx`` (an :class:`~repro.backend.ExecutionContext`) is optional;
    when given, the verification is timed as stage ``"verify_evd"``.
    """
    A = np.asarray(A, dtype=np.float64)
    lam = np.asarray(result.eigenvalues)
    k = _scale_exponent(A)
    if k:
        A, lam = np.ldexp(A, k), np.ldexp(lam, k)
    n = int(A.shape[0])
    window = getattr(result, "window", None)
    expected = n if window is None else int(window[1]) - int(window[0]) + 1
    partial = expected < n
    tr, to = default_tolerances(n)
    tol_residual = tr if tol_residual is None else float(tol_residual)
    tol_orth = to if tol_orth is None else float(tol_orth)
    report = VerificationReport(
        kind="evd", n=n, tol_residual=tol_residual, tol_orth=tol_orth
    )
    V = result.eigenvectors

    def _run() -> None:
        if not report._record(
            "count",
            lam.shape == (expected,) and (V is None or np.shape(V) == (n, expected)),
        ):
            return
        finite = bool(np.all(np.isfinite(lam)))
        if V is not None:
            finite = finite and bool(np.all(np.isfinite(V)))
        report._record("finite", finite)
        if not finite:
            # Residual/orthogonality on NaN payloads would just propagate
            # NaN; the remaining checks are meaningless.
            return
        report._record("ordered", bool(np.all(np.diff(lam) >= 0.0)))
        norm = _norm_floor(A)
        if not partial:
            report.trace_error = float(abs(np.sum(lam) - np.trace(A))) / norm
            report._record("trace", report.trace_error <= tol_residual)
        if V is None:
            return
        report.residual = float(np.linalg.norm(A @ V - V * lam[None, :])) / norm
        report._record("residual", report.residual <= tol_residual)
        gram = np.asarray(V).T @ np.asarray(V)
        report.orth_error = float(
            np.linalg.norm(gram - np.eye(gram.shape[0]))
        )
        report._record("orthogonality", report.orth_error <= tol_orth)

    if ctx is not None:
        with ctx.stage("verify_evd", n=n):
            _run()
    else:
        _run()
    return report


def verify_tridiag(
    A: np.ndarray,
    tri,
    tol_residual: float | None = None,
    tol_orth: float | None = None,
    ctx=None,
) -> VerificationReport:
    """Verify a :class:`~repro.core.tridiag.TridiagResult`: reconstruct
    ``Q`` (via ``tri.q()``) and check ``||A - Q T Qᵀ||_F / ||A||_F``,
    ``||QᵀQ - I||_F``, and finiteness of ``(d, e)``.

    Forming ``Q`` is an ``O(n^3)`` diagnostic — intended for offline
    checks (the ``repro verify`` CLI, the chaos suite), not the serving
    hot path, where :func:`verify_evd` is the per-request check.
    """
    A = np.asarray(A, dtype=np.float64)
    d = np.asarray(tri.d, dtype=np.float64)
    e = np.asarray(tri.e, dtype=np.float64)
    k = _scale_exponent(A)
    if k:
        A, d, e = np.ldexp(A, k), np.ldexp(d, k), np.ldexp(e, k)
    n = int(d.size)
    tr, to = default_tolerances(n)
    tol_residual = tr if tol_residual is None else float(tol_residual)
    tol_orth = to if tol_orth is None else float(tol_orth)
    report = VerificationReport(
        kind="tridiag", n=n, tol_residual=tol_residual, tol_orth=tol_orth
    )

    def _run() -> None:
        finite = bool(np.all(np.isfinite(d)) and np.all(np.isfinite(e)))
        report._record("finite", finite)
        if not finite:
            return
        Q = tri.q()
        T = np.diag(d)
        if n > 1:
            T += np.diag(e, -1) + np.diag(e, 1)
        norm = _norm_floor(A)
        report.residual = float(np.linalg.norm(A - Q @ T @ Q.T)) / norm
        report._record("residual", report.residual <= tol_residual)
        report.orth_error = float(np.linalg.norm(Q.T @ Q - np.eye(n)))
        report._record("orthogonality", report.orth_error <= tol_orth)

    if ctx is not None:
        with ctx.stage("verify_tridiag", n=n):
            _run()
    else:
        _run()
    return report
