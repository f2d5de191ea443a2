"""``plan_evd`` — the one place pipeline configuration is resolved.

Every entry point (``eigh``, ``eigh_partial``, ``tridiagonalize`` and
the serving layer) hands its knobs to the planner: presets
are expanded, ``auto_params`` runs, every knob is validated with a typed
:class:`~repro.plan.PlanError` naming the knob and the valid choices,
knobs that cannot affect the requested computation are normalized away,
and the result is a frozen :class:`~repro.plan.EVDPlan` that
:func:`repro.plan.execute_plan` runs verbatim.
"""

from __future__ import annotations

import numbers
from typing import Any

from .config import (
    BulgeChaseConfig,
    EVDPlan,
    SolverConfig,
    TridiagConfig,
)
from .errors import PlanError, bad_choice

__all__ = ["plan_evd", "plan_tridiag", "auto_params", "make_solver_config"]

#: Preset name -> expanded pipeline knobs (the paper's three comparisons).
PRESETS: dict[str, dict[str, Any]] = {
    "proposed": dict(method="dbbr"),
    "magma": dict(method="sbr", max_sweeps=1),
    "cusolver": dict(method="direct"),
}

TRIDIAG_METHODS = ("dbbr", "sbr", "direct")
EVD_METHODS = tuple(PRESETS) + ("dense",)
FALLBACKS = ("none", "chain")
PRECISIONS = ("fp64", "mixed")

#: Every pipeline knob ``plan_evd``/``eigh`` accept beyond the named
#: parameters (the historical ``**tridiag_kwargs`` surface).
PIPELINE_KNOBS = (
    "bandwidth",
    "second_block",
    "max_sweeps",
)


def auto_params(n: int, *, vectors: bool = True) -> tuple[int, int]:
    """Reasonable ``(bandwidth, second_block)`` for an ``n x n`` problem.

    The paper uses ``b = 32, k = 1024`` at H100 scale; at test scale we
    shrink both while preserving ``b | k``, ``k <= n`` and ``b << n``.
    ``vectors=False`` caps ``b`` at 16 instead of 32: bulge-chasing work
    grows as ``n^2 b`` while only the back transform ``Q1`` gains from a
    wider band, so a solve that never applies ``Q1`` chases a narrower
    one (DBBR keeps ``k`` independent of ``b``).
    """
    b = max(2, min(32 if vectors else 16, n // 8))
    groups = max(1, min(32, n // (4 * b)))
    k = b * groups
    if k > n:
        # Tiny problems: keep k a multiple of b that fits in the matrix
        # (k > n would make DBBR defer updates past the trailing edge).
        k = max(b, (n // b) * b)
    return b, k


def _as_int(knob: str, value: Any, minimum: int = 1) -> int:
    """An integer knob: Python/NumPy integers (and integral floats) pass;
    ``bool``, fractional numbers and anything non-numeric are rejected
    instead of being silently truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise PlanError(f"{knob} must be an integer, got {value!r}")
    out = int(value)
    if out < minimum:
        raise PlanError(f"{knob} must be >= {minimum}, got {out}")
    return out


def _check_unknown(knobs: dict[str, Any]) -> None:
    unknown = sorted(set(knobs) - set(PIPELINE_KNOBS))
    if unknown:
        raise PlanError(
            f"unknown pipeline knob(s) {', '.join(repr(k) for k in unknown)}: "
            f"valid knobs are {', '.join(PIPELINE_KNOBS)}"
        )


def make_solver_config(compute_vectors: bool) -> SolverConfig:
    """The :class:`SolverConfig` of a tridiagonal plan: divide and conquer."""
    return SolverConfig(kind="dc", compute_vectors=bool(compute_vectors))


def _resolve_pipeline(
    n: int,
    method: str,
    knobs: dict[str, Any],
    values_only: bool = False,
) -> tuple[TridiagConfig, BulgeChaseConfig | None]:
    """Resolve + validate the tridiag/bulge branch for a raw method name,
    reproducing ``tridiagonalize``'s historical clamps bit-for-bit
    (``auto_params``, ``b | k``).

    ``values_only`` marks an eigenvalues-only solve: when DBBR runs it
    with a heuristic bandwidth, the bandwidth comes from
    ``auto_params(n, vectors=False)``.
    """
    if method == "direct":
        # One-stage path: every band/bulge knob is inert (tridiagonalize
        # has always ignored them here) — normalize away.  The panel
        # width is sytrd's 32.
        return TridiagConfig(method="direct"), None

    bandwidth = knobs.get("bandwidth")
    second_block = knobs.get("second_block")
    narrow = values_only and method == "dbbr" and bandwidth is None
    b_auto, k_auto = auto_params(n, vectors=not narrow)
    b = _as_int("bandwidth", bandwidth) if bandwidth is not None else b_auto
    b = max(1, min(b, max(n - 2, 1)))

    k: int | None = None
    if method == "sbr":
        # SBR is DBBR with k = b; a user second_block stays inert.
        k = b
    elif method == "dbbr":
        k = (
            _as_int("second_block", second_block)
            if second_block is not None
            else max(k_auto, b)
        )
        k = max(b, (k // b) * b)
    tridiag = TridiagConfig(method=method, bandwidth=b, second_block=k)

    raw_sweeps = knobs.get("max_sweeps")
    max_sweeps = _as_int("max_sweeps", raw_sweeps) if raw_sweeps is not None else None
    return tridiag, BulgeChaseConfig(max_sweeps=max_sweeps)


def plan_tridiag(
    n: int,
    method: str = "dbbr",
    **knobs: Any,
) -> tuple[TridiagConfig, BulgeChaseConfig | None]:
    """Resolve the tridiagonalization branch for ``tridiagonalize``.

    Accepts the raw method names (``"dbbr"``/``"sbr"``/``"direct"``)
    plus the historical knob surface; raises
    :class:`PlanError` on anything unknown.
    """
    if method not in TRIDIAG_METHODS:
        raise bad_choice("tridiagonalization method", method, TRIDIAG_METHODS)
    _check_unknown(knobs)
    return _resolve_pipeline(n, method, knobs)


def plan_evd(
    n: int,
    method: str = "proposed",
    *,
    compute_vectors: bool = True,
    backend: str = "numpy",
    fallback: str = "none",
    precision: str = "fp64",
    **knobs: Any,
) -> EVDPlan:
    """Resolve a full EVD execution plan for an ``n x n`` problem.

    Parameters mirror :func:`repro.eigh`: ``method`` is a preset
    (``"proposed"``/``"magma"``/``"cusolver"``/``"dense"``; the raw
    tridiagonalization methods are :func:`plan_tridiag`'s), ``**knobs``
    is the historical ``**tridiag_kwargs`` surface (``bandwidth``,
    ``second_block``, ``max_sweeps``) and overrides the preset's own
    values — an unbounded SBR plan is
    ``plan_evd(n, "magma", max_sweeps=None)``.
    ``fallback="chain"`` marks the plan for escalated execution
    (:func:`repro.resilience.execute_plan_with_fallback`): on a typed
    convergence or verification failure the dense LAPACK tier is tried
    (the ``proposed`` pipeline, for a dense plan).
    ``precision`` selects the per-stage dtype policy
    (:mod:`repro.precision`): ``"fp64"`` (default, the historical
    bit-exact path) or ``"mixed"`` (fp32 pipeline + Ogita–Aishima
    refinement back to fp64 tolerances).  ``"mixed"`` requires the
    NumPy backend (the accelerator backends coerce to float64 at their
    boundary) and eigenvectors (``compute_vectors=True``), since
    refinement operates on eigenpairs.

    Raises
    ------
    PlanError
        Unknown method/knob name, or an invalid knob value — at
        planning time, naming the valid choices, instead of a
        ``TypeError`` deep inside the pipeline.
    """
    try:
        n = int(n)
    except (TypeError, ValueError) as exc:
        raise PlanError(f"n must be an integer, got {n!r}") from exc
    if n < 0:
        raise PlanError(f"n must be >= 0, got {n}")
    if not isinstance(backend, str):
        raise PlanError(
            f"plan backend must be a backend name string, got {type(backend).__name__}"
        )
    if fallback not in FALLBACKS:
        raise bad_choice("fallback", fallback, FALLBACKS)
    if precision not in PRECISIONS:
        raise bad_choice("precision", precision, PRECISIONS)
    if method not in EVD_METHODS:
        raise bad_choice("method", method, EVD_METHODS)
    if precision != "fp64":
        if method == "dense":
            raise PlanError(
                f"precision={precision!r} applies to the tridiagonalization "
                "pipeline; the dense LAPACK tier has no low-precision path — "
                "use one of 'proposed', 'magma', 'cusolver'"
            )
        if backend != "numpy":
            raise PlanError(
                f"precision={precision!r} requires backend 'numpy' (the "
                f"accelerator backends coerce to float64 at their boundary), "
                f"got backend {backend!r}"
            )
        if not compute_vectors:
            raise PlanError(
                f"precision={precision!r} refines eigen*pairs* and therefore "
                "needs compute_vectors=True"
            )
    _check_unknown(knobs)

    if method == "dense":
        # The dense tier bypasses the pipeline entirely: every pipeline
        # knob is inert (eigh has always ignored them here) — normalize
        # so equivalent requests coalesce.
        return EVDPlan(
            n=n,
            method="dense",
            backend=backend,
            solver=SolverConfig(kind="dense", compute_vectors=bool(compute_vectors)),
            fallback=fallback,
            precision=precision,
        )

    merged = {**PRESETS[method], **knobs}
    raw_method = str(merged.pop("method"))
    tridiag, bulge = _resolve_pipeline(
        n, raw_method, merged, values_only=not compute_vectors
    )
    return EVDPlan(
        n=n,
        method=method,
        backend=backend,
        solver=make_solver_config(compute_vectors),
        tridiag=tridiag,
        bulge_chase=bulge,
        fallback=fallback,
        precision=precision,
    )
