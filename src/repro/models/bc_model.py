"""The Section 3.3 analytical performance model of GPU bulge chasing.

The paper counts time in *bulge cycles* (the time to chase one bulge) and
derives, from three laws —

  1. sweep ``i+1`` starts after sweep ``i`` has chased 3 bulges,
  2. the number of bulges per sweep shrinks by one every ``b`` sweeps,
  3. at most ``S`` sweeps fit in the hardware pipeline —

a total cycle count of

    3n - 2  +  sum_{i=1}^{(n+3b)/S - 3b} ( (n+S)/b - 3S + 3 - (S/b) i ),

the first term being the fully-pipelined bound ("successive bulges") and
the sum the stalls that law 3 forces when ``S`` is finite (Figure 5).

This module implements that closed form (with the obvious clamping of
negative stall terms the paper's prose implies), converts it to seconds
via a per-bulge time, and provides the comparison against the
pipeline executor — the tests require the closed form to track the
executor within a modest factor across the whole ``S`` range,
which is precisely the claim Figure 5 rests on.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.executor import simulate_bc_pipeline
from ..gpusim.kernels import bc_task_time_gpu

__all__ = [
    "successive_bulge_cycles",
    "stall_cycles",
    "total_cycles",
    "bc_time_model",
    "figure5_series",
]


def successive_bulge_cycles(n: int) -> float:
    """Fully pipelined lower bound: ``3n - 2`` cycles (laws 1 and 2)."""
    return 3.0 * n - 2.0


def stall_cycles(n: int, b: int, S: int) -> float:
    """Total stall cycles for a pipeline capped at ``S`` sweeps (law 3).

    Implements the paper's sum with each term clamped at zero (a stall
    cannot be negative) and the stall count capped at the sweep count.
    """
    if S <= 0:
        raise ValueError("S must be positive")
    limit = (n + 3.0 * b) / S - 3.0 * b
    if limit <= 0:
        return 0.0
    i = np.arange(1, int(np.floor(limit)) + 1, dtype=np.float64)
    terms = (n + S) / b - 3.0 * S + 3.0 - (S / b) * i
    return float(np.sum(np.maximum(terms, 0.0)))


def total_cycles(n: int, b: int, S: int) -> float:
    """Successive bulges plus stalls — the paper's total cycle count."""
    return successive_bulge_cycles(n) + stall_cycles(n, b, S)


def bc_time_model(n: int, b: int, S: int, t_bulge_s: float = 10e-6) -> float:
    """Seconds = cycles x per-bulge time.

    The paper quotes "around 10ms" per bulge on H100; dimensional analysis
    against its own Figure 5 (and against MAGMA's measured sb2st times)
    shows the intended unit is **microseconds** — we default to 10 us and
    record the discrepancy in EXPERIMENTS.md.
    """
    return total_cycles(n, b, S) * t_bulge_s


def figure5_series(
    n: int = 65536,
    b: int = 32,
    s_values: list[int] | None = None,
    t_bulge_s: float = 10e-6,
) -> list[tuple[int, float]]:
    """The Figure 5 sweep: estimated BC seconds for each pipeline cap S."""
    svals = s_values if s_values is not None else [1, 2, 4, 8, 16, 32, 64, 128]
    return [(S, bc_time_model(n, b, S, t_bulge_s)) for S in svals]


def model_vs_executor(
    device: DeviceSpec,
    n: int,
    b: int,
    S: int,
    optimized: bool = False,
) -> tuple[float, float]:
    """(closed-form seconds, event-simulated seconds) for the same config.

    Uses the device's per-task time for both, so the comparison isolates
    the *pipeline* model (cycle counting) from the kernel cost model.
    """
    dt, s_hw = bc_task_time_gpu(device, n, b, optimized=optimized)
    s_eff = min(S, s_hw)
    sim = simulate_bc_pipeline(n, b, s_eff, dt)
    return total_cycles(n, b, s_eff) * dt, sim.total_time_s
