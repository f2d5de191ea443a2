"""Figure 11 — bulge chasing: MAGMA sb2st vs naive GPU vs optimized GPU.

Paper: on H100 with b = 32, the naive one-block-per-sweep GPU version is up
to 5.9x faster than MAGMA's CPU sb2st; the optimized version (packed band
in L2, warp-per-sweep, prefetch) reaches 12.5x at large n.

``[simulated]`` — all three implementations priced at device scale.
``[measured]`` — the real pipelined bulge chasing (the wavefront engine)
at laptop scale: the lockstep round count shrinks with allowed
parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.band.ops import random_symmetric_band
from repro.bench.reporting import banner
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.gpusim import CPU_8_CORE, H100
from repro.models.baselines import magma_sb2st_time
from repro.models.proposed import gpu_bc_time

NS = [8192, 16384, 24576, 32768, 40960, 49152]
B = 32


def test_fig11_simulated(benchmark, report):
    def series():
        return [
            (
                n,
                magma_sb2st_time(CPU_8_CORE, n, B),
                gpu_bc_time(H100, n, B, optimized=False),
                gpu_bc_time(H100, n, B, optimized=True),
            )
            for n in NS
        ]

    rows = benchmark(series)
    report(banner(f"Figure 11: bulge chasing time, b = {B}", "simulated"))
    report(f"  {'n':>8} | {'MAGMA':>9} | {'naive GPU':>10} | {'opt GPU':>9} | speedups")
    for n, magma, naive, opt in rows:
        report(
            f"  {n:>8} | {magma:8.2f}s | {naive:9.2f}s | {opt:8.2f}s | "
            f"{magma / naive:4.1f}x / {magma / opt:4.1f}x"
        )
    report("paper: up to 5.9x (naive) and 12.5x (optimized)")
    n, magma, naive, opt = rows[-1]
    assert 3.5 < magma / naive < 8.0
    assert 9.0 < magma / opt < 16.0
    for _, magma, naive, opt in rows:
        assert opt < naive < magma


def test_fig11_pipelined_bc_measured(benchmark, report):
    """Real numerics: pipelined BC with unbounded S vs serial rounds."""
    n, b = 160, 4
    Bm = random_symmetric_band(n, b, np.random.default_rng(11))

    def run():
        res, stats = bulge_chase_wavefront(Bm, b, max_sweeps=None)
        return res, stats

    res, stats = benchmark(run)
    _, serial_stats = bulge_chase_wavefront(Bm, b, max_sweeps=1)
    report(banner(f"Figure 11 analogue: pipeline rounds, n = {n}, b = {b}", "measured"))
    report(f"  serial rounds:    {serial_stats.rounds}")
    report(f"  pipelined rounds: {stats.rounds}  "
           f"(mean parallel sweeps {stats.mean_parallel:.1f})")
    assert stats.rounds < serial_stats.rounds / 2
    assert res.d.size == n


def test_fig11_serial_bc_measured(benchmark):
    n, b = 160, 4
    Bm = random_symmetric_band(n, b, np.random.default_rng(11))
    res, _ = benchmark(lambda: bulge_chase_wavefront(Bm, b, max_sweeps=1))
    assert res.d.size == n
