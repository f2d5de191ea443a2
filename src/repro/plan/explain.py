"""``explain_plan`` — a resolved plan plus its model-predicted cost.

Maps each plan to the calibrated analytical model that covers it
(:mod:`repro.models`) and renders the predicted per-stage wall time at
device scale — the ``repro plan --explain`` output.  The prediction is
the *model's* time on the named device preset (H100 by default), not a
measurement of the local NumPy execution; it is the same machinery that
regenerates the paper's figures.
"""

from __future__ import annotations

from .config import EVDPlan

__all__ = ["explain_plan", "predicted_stage_times"]


def predicted_stage_times(plan: EVDPlan, device: str = "h100") -> dict[str, float]:
    """Model-predicted seconds per pipeline stage on ``device``.

    Empty for the dense tier (the models cover the tridiagonalization
    pipelines, not the vendor dense kernel).  The PLASMA tile path is
    approximated by the MAGMA two-stage model (same band-reduction /
    chase structure; the models do not calibrate tile kernels
    separately).
    """
    from ..gpusim.device import device_by_name
    from ..models.baselines import cusolver_syevd_times, magma_evd_times
    from ..models.proposed import proposed_evd_times

    if plan.tridiag is None:
        return {}
    dev = device_by_name(device)
    vectors = plan.solver.compute_vectors
    t = plan.tridiag
    if t.method == "dbbr":
        assert t.bandwidth is not None and t.second_block is not None
        st = proposed_evd_times(
            dev,
            plan.n,
            vectors,
            b=t.bandwidth,
            k=t.second_block,
            back_k=t.second_block,
        )
    elif t.method in ("sbr", "tile"):
        assert t.bandwidth is not None
        st = magma_evd_times(dev, plan.n, vectors, b=t.bandwidth)
    else:  # direct: sytrd's 32-wide panels, the model's default nb
        st = cusolver_syevd_times(dev, plan.n, vectors)
    return dict(st.stages)


def explain_plan(plan: EVDPlan, device: str = "h100") -> str:
    """The resolved plan tree plus the predicted stage breakdown."""
    lines = [plan.describe()]
    stages = predicted_stage_times(plan, device=device)
    if not stages:
        lines.append(
            f"\npredicted stages ({device}): none — the dense tier runs a "
            "single vendor kernel the stage models do not decompose"
        )
        return "\n".join(lines)
    total = sum(stages.values())
    lines.append(f"\npredicted stage breakdown on {device} (model time):")
    for name, secs in stages.items():
        frac = secs / total if total > 0 else 0.0
        lines.append(f"  {name:<12} {secs * 1e3:12.3f} ms  {frac:6.1%}")
    lines.append(f"  {'total':<12} {total * 1e3:12.3f} ms")
    if plan.tridiag is not None and plan.tridiag.method == "tile":
        lines.append(
            "  (PLASMA tile path approximated by the MAGMA two-stage model)"
        )
    return "\n".join(lines)
