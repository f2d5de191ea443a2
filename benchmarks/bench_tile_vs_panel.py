"""Band-reduction lineage comparison: tile (PLASMA) vs panel (MAGMA) vs
double-blocking (proposed).

Not a single paper figure — the context for Figure 9: the paper's DBBR
competes against the *panel*-based MAGMA sy2sb, which itself displaced the
*tile*-based PLASMA reduction.  This bench measures all three real
implementations at laptop scale (identical spectra asserted; panel SBR is
DBBR with ``k = b``) and reports
the tile task DAG's parallelism — the property that made tiles win on
multicore and that the GPU panel algorithms trade away for bigger GEMMs.

``[measured]`` only.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import banner
from repro.bench.workloads import goe
from repro.core.dbbr import dbbr
from repro.core.tile_sbr import tile_sbr, tile_task_dag

N, B = 192, 8


def test_tile_sbr_measured(benchmark):
    A = goe(N, seed=24)
    res = benchmark(lambda: tile_sbr(A, B))
    assert res.bandwidth == B


def test_panel_sbr_measured(benchmark):
    A = goe(N, seed=24)
    res = benchmark(lambda: dbbr(A, B, B))
    assert res.bandwidth == B


def test_dbbr_measured(benchmark):
    A = goe(N, seed=24)
    res = benchmark(lambda: dbbr(A, B, 32))
    assert res.bandwidth == B


def test_all_reductions_same_spectrum(benchmark, report):
    A = goe(128, seed=25)

    def run():
        return (
            np.linalg.eigvalsh(tile_sbr(A, 8).band),
            np.linalg.eigvalsh(dbbr(A, 8, 8).band),
            np.linalg.eigvalsh(dbbr(A, 8, 32).band),
        )

    lam_tile, lam_sbr, lam_dbbr = benchmark(run)
    report(banner("Band reductions: spectrum agreement", "measured"))
    report(f"  tile vs panel SBR: {np.max(np.abs(lam_tile - lam_sbr)):.2e}")
    report(f"  DBBR vs panel SBR: {np.max(np.abs(lam_dbbr - lam_sbr)):.2e}")
    assert np.max(np.abs(lam_tile - lam_sbr)) < 1e-10
    assert np.max(np.abs(lam_dbbr - lam_sbr)) < 1e-10


def test_tile_dag_parallelism(benchmark, report):
    """The tile schedule's width: tasks per tile-column step whose row
    sets are pairwise disjoint (PLASMA's multicore parallelism source)."""

    def analyze(n=1024, b=32):
        tasks = tile_task_dag(n, b)
        nt = n // b
        # Within one k, all tsqrt tasks share tile row k+1 -> serialized;
        # across k's, steps (k, i) and (k', i') with disjoint {k+1, i} and
        # {k'+1, i'} can overlap.  Count a simple greedy wave schedule.
        waves = 0
        remaining = list(tasks)
        while remaining:
            busy: set[int] = set()
            rest = []
            for kind, k, i in remaining:
                rows = {k + 1, i}
                if rows & busy:
                    rest.append((kind, k, i))
                else:
                    busy.update(rows)
            remaining = rest
            waves += 1
        return len(tasks), waves

    ntasks, waves = benchmark(analyze)
    report(banner("PLASMA tile task DAG (n=1024, b=32)", "measured"))
    report(f"  tasks: {ntasks}, greedy waves: {waves}, "
           f"mean parallelism {ntasks / waves:.1f}")
    assert ntasks / waves > 2.0  # the DAG exposes real concurrency
