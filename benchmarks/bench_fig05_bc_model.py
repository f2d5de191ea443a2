"""Figure 5 — estimated GPU bulge-chasing time vs max parallel sweeps S.

Paper: n = 65536, b = 32, S ∈ 1 … 128, per-bulge time "around 10 ms"
(dimensional analysis against the figure shows microseconds; see
EXPERIMENTS.md).  Serial (S = 1) is far slower than MAGMA's CPU sb2st;
S >= 32 beats it — so the >100 SMs of an H100 suffice.

``[simulated]`` — the paper's closed-form pipeline model next to the
pipeline executor, with the MAGMA reference line.
"""

from __future__ import annotations

from repro.bench.reporting import banner
from repro.gpusim import CPU_8_CORE, H100
from repro.gpusim.executor import simulate_bc_pipeline
from repro.models.baselines import magma_sb2st_time
from repro.models.bc_model import bc_time_model, total_cycles

N, B = 65536, 32
S_VALUES = [1, 2, 4, 8, 16, 32, 64, 128]
T_BULGE = 10e-6


def test_fig05_model_simulated(benchmark, report):
    magma = magma_sb2st_time(CPU_8_CORE, N, B)
    series = benchmark(
        lambda: [(S, bc_time_model(N, B, S, T_BULGE)) for S in S_VALUES]
    )
    report(banner(f"Figure 5: estimated BC time vs S (n={N}, b={B})", "simulated"))
    report(f"  MAGMA sb2st reference line: {magma:8.1f} s")
    for S, t in series:
        beats = "beats MAGMA" if t < magma else ""
        report(f"  S={S:4d}: {t:10.1f} s   ({total_cycles(N, B, S):12.0f} cycles) {beats}")
    times = dict(series)
    assert times[1] > magma, "serial GPU BC must lose to MAGMA"
    assert times[32] < magma, "paper: S >= 32 outperforms MAGMA"
    vals = [t for _, t in series]
    assert vals == sorted(vals, reverse=True)


def test_fig05_model_vs_executor(benchmark, report):
    """The closed form against the event-driven executor at the same
    per-task cost — the model's validity check."""

    def run():
        rows = []
        for S in S_VALUES:
            closed = bc_time_model(N, B, S, T_BULGE)
            sim = simulate_bc_pipeline(N, B, S, T_BULGE).total_time_s
            rows.append((S, closed, sim))
        return rows

    rows = benchmark(run)
    report(banner("Figure 5 validation: closed form vs pipeline executor", "simulated"))
    for S, closed, sim in rows:
        report(f"  S={S:4d}: model {closed:10.1f} s   executor {sim:10.1f} s  "
               f"ratio {closed / sim:5.2f}")
    for S, closed, sim in rows:
        assert 0.25 < closed / sim < 4.0, (S, closed, sim)
