"""Typed EVD plan layer: one planner + one stage runner.

``plan_evd(n, method=..., **knobs)`` resolves presets, block sizes and
every pipeline knob into a frozen, validated :class:`EVDPlan`;
``execute_plan(A, plan, ctx)`` runs it.  ``eigh``, ``eigh_partial``,
``svd`` and the serving workers all parse their kwargs into a plan at
the boundary and execute through this one runner, and the serving layer
keys its result cache on :meth:`EVDPlan.cache_token` so equivalent
request spellings coalesce.  See ``docs/api.md`` ("Planning layer").
"""

from .config import (
    BulgeChaseConfig,
    EVDPlan,
    SolverConfig,
    TridiagConfig,
)
from .errors import PlanError
from .explain import explain_plan, predicted_stage_times
from .planner import (
    PIPELINE_KNOBS,
    PRESETS,
    auto_params,
    make_solver_config,
    plan_evd,
    plan_tridiag,
)
from .runner import execute_plan, execute_plan_partial, solve_tridiagonal_planned

__all__ = [
    "BulgeChaseConfig",
    "EVDPlan",
    "PIPELINE_KNOBS",
    "PRESETS",
    "PlanError",
    "SolverConfig",
    "TridiagConfig",
    "auto_params",
    "make_solver_config",
    "execute_plan",
    "execute_plan_partial",
    "explain_plan",
    "plan_evd",
    "plan_tridiag",
    "predicted_stage_times",
    "solve_tridiagonal_planned",
]
