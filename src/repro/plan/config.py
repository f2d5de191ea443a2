"""The frozen, validated EVD plan tree.

An :class:`EVDPlan` is the single source of truth for *how* a symmetric
eigenproblem will be executed: which tridiagonalization method with
which resolved block sizes (:class:`TridiagConfig`), how the band is
chased to tridiagonal (:class:`BulgeChaseConfig`), which tridiagonal
eigensolver runs (:class:`SolverConfig`), and on which array backend.
The SBR back transform has no branch of its own: its group width follows
from the resolved ``TridiagConfig`` (see
:func:`repro.core.tridiag.tridiagonalize_planned`).  Plans are produced
by :func:`repro.plan.plan_evd` — never hand-assembled — so every field
is already validated and every ``None`` default already resolved to a
concrete integer for the plan's ``n``.

Because the tree is frozen and *normalized* (knobs that cannot affect
the computation are cleared — e.g. the whole band/bulge branch for the
dense tier or the one-stage direct method), two
requests that would execute identically serialize to the
same :meth:`EVDPlan.cache_token`, which is what lets the serving layer
coalesce ``method="proposed"`` with its fully-expanded kwarg spelling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, TypeVar

from .errors import PlanError, bad_choice

__all__ = [
    "TridiagConfig",
    "BulgeChaseConfig",
    "SolverConfig",
    "EVDPlan",
]


@dataclass(frozen=True)
class TridiagConfig:
    """Stage 1: how ``A`` is reduced to (band, then) tridiagonal form.

    ``bandwidth``/``second_block`` hold the *resolved* ``b``/``k`` (the
    planner has already run ``auto_params`` and the ``b | k`` clamping),
    so reading a plan tells you exactly what will execute.  Fields that
    do not apply to the method are ``None`` (every size for the
    one-stage direct path, whose panel width is sytrd's fixed 32).  SBR
    is DBBR with ``k = b``, so its ``second_block`` equals its
    ``bandwidth``.
    """

    method: str  # "dbbr" | "sbr" | "direct"
    bandwidth: int | None = None
    second_block: int | None = None


@dataclass(frozen=True)
class BulgeChaseConfig:
    """Stage 2: band -> tridiagonal chase (two-stage methods only).

    The chase always runs the wavefront engine; ``max_sweeps`` caps the
    sweeps in flight (``None`` = unbounded, ``1`` = MAGMA's sequential
    chase).
    """

    max_sweeps: int | None = None


@dataclass(frozen=True)
class SolverConfig:
    """Stage 3: the tridiagonal eigensolver (or the dense tier)."""

    kind: str  # "dc" | "dense"
    compute_vectors: bool = True


_Branch = TypeVar("_Branch", TridiagConfig, BulgeChaseConfig, SolverConfig)


def _branch(cls: type[_Branch], name: str, data: dict[str, Any]) -> _Branch:
    """Build one config branch of :meth:`EVDPlan.from_dict`, rejecting
    unknown fields with a typed error instead of a ``TypeError``."""
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise PlanError(
            f"unknown {name} field(s) {', '.join(repr(k) for k in unknown)}: "
            f"valid fields are {', '.join(valid)}"
        )
    return cls(**data)


def _check_choices(plan: "EVDPlan") -> None:
    """Reject a loaded plan whose choice fields hold a value the planner
    would refuse, with the planner's typed error."""
    # The planner imports this module, so its choice lists load here.
    from .planner import EVD_METHODS, FALLBACKS, PRECISIONS, TRIDIAG_METHODS

    checks: list[tuple[str, str, tuple[str, ...]]] = [
        ("method", plan.method, EVD_METHODS),
        ("tridiagonal solver", plan.solver.kind, ("dc", "dense")),
        ("precision", plan.precision, PRECISIONS),
        ("fallback", plan.fallback, FALLBACKS),
    ]
    if plan.tridiag is not None:
        checks.append(
            ("tridiagonalization method", plan.tridiag.method, TRIDIAG_METHODS)
        )
    for knob, value, choices in checks:
        if value not in choices:
            raise bad_choice(knob, value, choices)


@dataclass(frozen=True)
class EVDPlan:
    """A fully-resolved, validated execution plan for one eigenproblem.

    ``method`` keeps the user-facing preset name (``"proposed"``,
    ``"magma"``, ``"cusolver"`` or ``"dense"``) for display; the
    semantics live entirely in the three config branches, which is why
    :meth:`cache_token` ignores ``method`` — equivalent spellings
    produce equal tokens.  ``tridiag``/``bulge_chase`` are ``None`` where
    the pipeline has no such stage (both for the dense tier;
    ``bulge_chase`` for the one-stage direct method).

    ``fallback="chain"`` marks the plan for escalated execution through
    :func:`repro.resilience.execute_plan_with_fallback` (the plan, then
    the dense tier, on convergence/verification failure).  The
    field is *not* part of :meth:`cache_token`: a chain that succeeds on
    its first link is bit-identical to running the plain plan, so the
    two must share cache entries — escalated results are instead keyed
    under the plan that actually produced them (see
    :mod:`repro.serve.cache`).

    ``precision`` names the :class:`~repro.precision.PrecisionPolicy`
    the plan executes under (``"fp64"`` — the historical path — or
    ``"mixed"``).  Unlike ``fallback`` it *is* part of
    :meth:`cache_token` whenever it differs from ``"fp64"``: the policy
    changes the arithmetic, so mixed- and fp64-produced results must
    never alias in the serving cache.
    """

    n: int
    method: str
    backend: str
    solver: SolverConfig
    tridiag: TridiagConfig | None = None
    bulge_chase: BulgeChaseConfig | None = None
    fallback: str = "none"  # "none" | "chain"
    precision: str = "fp64"  # "fp64" | "mixed"

    @property
    def is_dense(self) -> bool:
        """True for the dense LAPACK tier (no tridiagonal pipeline)."""
        return self.tridiag is None

    # -- canonical serialization --------------------------------------
    def cache_token(self) -> str:
        """Canonical string identity of the *computation* this plan runs.

        Two plans share a token iff they execute identically: the token
        is built from the resolved config branches (and ``n``/backend),
        not from the preset spelling that produced them.  The serving
        layer keys its result cache and single-flight coalescing on
        ``matrix_fingerprint(A) + cache_token()``.
        """
        parts = [f"n={self.n}", f"backend={self.backend}"]
        t = self.tridiag
        if t is None:
            parts.append("tridiag=dense")
        else:
            parts.append(
                "tridiag="
                f"{t.method},b={t.bandwidth},k={t.second_block}"
            )
        bc = self.bulge_chase
        if bc is not None:
            parts.append(f"bc=max_sweeps={bc.max_sweeps}")
        s = self.solver
        parts.append(f"solver={s.kind},vectors={s.compute_vectors}")
        if self.precision != "fp64":
            # The default is omitted so every pre-precision token (and
            # cache entry) stays stable; any other policy changes the
            # arithmetic and must key separately.
            parts.append(f"precision={self.precision}")
        return ";".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-stable nested dict (golden-snapshot format)."""
        return {
            "n": self.n,
            "method": self.method,
            "backend": self.backend,
            "fallback": self.fallback,
            "precision": self.precision,
            "tridiag": None if self.tridiag is None else asdict(self.tridiag),
            "bulge_chase": (
                None if self.bulge_chase is None else asdict(self.bulge_chase)
            ),
            "solver": asdict(self.solver),
            "cache_token": self.cache_token(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EVDPlan":
        """Inverse of :meth:`to_dict` (``cache_token`` is recomputed).

        Raises :class:`PlanError` naming the unknown and the valid keys
        when the document or one of its config branches carries a key
        this version does not know (e.g. a plan document that still holds
        a removed knob or branch), and naming the valid choices when a
        ``method``, ``tridiag.method``, ``solver.kind``, ``precision`` or
        ``fallback`` value is one this version cannot execute (e.g. a
        retired method, or a raw tridiagonalization method where the
        top-level ``method`` takes a preset).
        """
        valid = [f.name for f in fields(cls)] + ["cache_token"]
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise PlanError(
                f"unknown plan key(s) {', '.join(repr(k) for k in unknown)}: "
                f"valid keys are {', '.join(valid)}"
            )
        plan = cls(
            n=int(data["n"]),
            method=str(data["method"]),
            backend=str(data["backend"]),
            fallback=str(data.get("fallback", "none")),
            precision=str(data.get("precision", "fp64")),
            tridiag=(
                None
                if data["tridiag"] is None
                else _branch(TridiagConfig, "tridiag", data["tridiag"])
            ),
            bulge_chase=(
                None
                if data["bulge_chase"] is None
                else _branch(BulgeChaseConfig, "bulge_chase", data["bulge_chase"])
            ),
            solver=_branch(SolverConfig, "solver", data["solver"]),
        )
        _check_choices(plan)
        return plan

    # -- display -------------------------------------------------------
    def describe(self) -> str:
        """Human-readable resolved-plan tree (``repro plan`` output)."""
        fb = f"  fallback={self.fallback}" if self.fallback != "none" else ""
        pr = f"  precision={self.precision}" if self.precision != "fp64" else ""
        lines = [
            f"EVDPlan  n={self.n}  method={self.method!r}  "
            f"backend={self.backend}{fb}{pr}"
        ]
        t = self.tridiag
        if t is None:
            lines.append("  tridiag:        none (dense LAPACK tier)")
        elif t.method == "direct":
            lines.append("  tridiag:        direct one-stage (block=32)")
        else:
            extra = ""
            if t.method == "dbbr":
                extra = f", k={t.second_block}"
            lines.append(f"  tridiag:        {t.method} (b={t.bandwidth}{extra})")
        bc = self.bulge_chase
        if bc is not None:
            cap = "unbounded" if bc.max_sweeps is None else str(bc.max_sweeps)
            lines.append(f"  bulge chase:    wavefront (max_sweeps={cap})")
        s = self.solver
        lines.append(f"  solver:         {s.kind} (vectors={s.compute_vectors})")
        if bc is not None and s.compute_vectors:
            lines.append("  back transform: Q1, then the band-reduction factor")
        lines.append(f"  cache token:    {self.cache_token()}")
        return "\n".join(lines)
