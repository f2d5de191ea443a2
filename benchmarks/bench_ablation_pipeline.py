"""Ablation — the bulge-chasing pipeline protocol knobs.

DESIGN.md §6: (a) the safety distance between consecutive sweeps (the
paper's ``gCom + 2b`` rule = 3 bulge-tasks) — smaller is unsafe, larger
wastes parallelism; (b) warp-grouping factor (sweeps per SM) in the
optimized BC.

``[simulated]`` — makespan vs safety distance and vs sweeps-per-SM.
``[measured]`` — the lockstep round count of the real schedule
(:func:`repro.core.bc_pipeline.sweep_starts`, the recurrence the
wavefront chase executes and the simulator prices) grows with
artificially larger distances.  That the 3-task distance is exactly safe
(the schedule reproduces the sequential chase bit for bit) is asserted
by the test suite's ``chase_in_schedule`` oracle.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import banner
from repro.core.bc_pipeline import sweep_starts
from repro.gpusim import H100, bc_task_time_gpu, simulate_bc_pipeline

N, B = 49152, 32


def test_ablation_safety_distance_simulated(benchmark, report):
    dt, S = bc_task_time_gpu(H100, N, B, optimized=True)

    def series():
        return [
            (s, simulate_bc_pipeline(N, B, S, dt, safety_tasks=s).total_time_s)
            for s in (3, 4, 6, 10, 20)
        ]

    rows = benchmark(series)
    report(banner("Ablation: pipeline safety distance (in bulge tasks)",
                  "simulated"))
    for s, t in rows:
        note = "  <- paper's 2b rule" if s == 3 else ""
        report(f"  distance {s:3d}: {t:7.2f} s{note}")
    times = [t for _, t in rows]
    assert times == sorted(times), "larger distance only slows the pipeline"


def test_ablation_sweeps_per_sm_simulated(benchmark, report):
    def series():
        rows = []
        for w in (1, 2, 4, 8):
            dt, S = bc_task_time_gpu(H100, N, B, optimized=True, sweeps_per_sm=w)
            t = simulate_bc_pipeline(N, B, S, dt).total_time_s
            rows.append((w, S, dt, t))
        return rows

    rows = benchmark(series)
    report(banner("Ablation: warp grouping (sweeps per SM)", "simulated"))
    for w, S, dt, t in rows:
        report(f"  {w} sweeps/SM: S={S:4d}, task {dt * 1e6:5.1f} us, "
               f"makespan {t:6.2f} s")
    # Per-task time grows with sharing, but the critical path (3n * dt)
    # means there is a sweet spot rather than monotone improvement.
    times = {w: t for w, _, _, t in rows}
    assert min(times.values()) < times[8] or min(times.values()) < times[1]


def test_ablation_safety_distance_measured(benchmark, report):
    """Cost of larger safety distances in lockstep rounds of the real
    schedule."""
    n, b = 120, 4

    def run():
        rounds = {}
        for dist in (3, 5, 8):
            starts, ntasks = sweep_starts(n, b, safety=dist)
            rounds[dist] = int(np.max(starts + ntasks))
        return rounds

    rounds = benchmark(run)
    report(banner("Ablation (measured): safety distance vs rounds", "measured"))
    for dist, r in rounds.items():
        report(f"  distance {dist}: rounds={r:5d}")
    assert rounds[3] <= rounds[5] <= rounds[8]
