"""Figure 15 — tridiagonalization: cuSOLVER vs MAGMA vs proposed, on H100
(15a) and RTX 4090 (15b).

Paper (H100, b = 32 / k = 1024 for ours; b = 64 for MAGMA): ours wins at
every size, up to 19.6 TFLOPs vs 3.4 (MAGMA) and 2.1 (cuSOLVER) — 9.3x and
5.2x.  MAGMA beats cuSOLVER only at large n.  On the RTX 4090 ours peaks at
~1.4 TFLOPs (above the 1.29 FP64 peak, via INT8-assisted GEMM) and the BC
stage is 213/209 ms (n = 4096) and 14327/1839 ms (n = 32768) for
MAGMA/ours.

``[simulated]`` — full device-scale bar series for both GPUs.
``[measured]`` — the three real pipelines timed at laptop scale.
"""

from __future__ import annotations

from repro.bench.reporting import banner
from repro.bench.workloads import goe
from repro.core.tridiag import tridiagonalize
from repro.gpusim import H100, RTX4090
from repro.models import flops as F
from repro.models.baselines import cusolver_sytrd_time, magma_tridiag_times
from repro.models.proposed import proposed_tridiag_times

NS = [4096, 8192, 16384, 32768, 49152]


def _series(device):
    rows = []
    for n in NS:
        cu = cusolver_sytrd_time(device, n)
        ma = magma_tridiag_times(device, n, 64).total
        ours = proposed_tridiag_times(device, n, 32, 1024).total
        rows.append((n, cu, ma, ours))
    return rows


def test_fig15a_h100_simulated(benchmark, report):
    rows = benchmark(lambda: _series(H100))
    report(banner("Figure 15a: tridiagonalization on H100", "simulated"))
    report(f"  {'n':>8} | {'cuSOLVER':>9} | {'MAGMA':>9} | {'ours':>9} | "
           f"{'ours TFLOPs':>11} | speedups")
    for n, cu, ma, ours in rows:
        tf = F.tridiag_flops(n) / ours / 1e12
        report(
            f"  {n:>8} | {cu:8.2f}s | {ma:8.2f}s | {ours:8.2f}s | {tf:11.2f} | "
            f"{cu / ours:4.1f}x / {ma / ours:4.1f}x"
        )
    report("paper: ours up to 19.6 TFLOPs; speedups up to 9.3x / 5.2x;"
           " MAGMA beats cuSOLVER only at large n")
    for n, cu, ma, ours in rows:
        assert ours < cu and ours < ma
    # MAGMA loses to cuSOLVER at the smallest size, wins at the largest.
    assert rows[0][2] > rows[0][1]
    assert rows[-1][2] < rows[-1][1]
    n, cu, ma, ours = rows[-1]
    assert cu / ours > 6.0 and ma / ours > 3.5


def test_fig15b_rtx4090_simulated(benchmark, report):
    rows = benchmark(lambda: _series(RTX4090))
    report(banner("Figure 15b: tridiagonalization on RTX 4090", "simulated"))
    report(f"  {'n':>8} | {'cuSOLVER':>9} | {'MAGMA':>9} | {'ours':>9} | ours TFLOPs")
    for n, cu, ma, ours in rows:
        tf = F.tridiag_flops(n) / ours / 1e12
        report(f"  {n:>8} | {cu:8.2f}s | {ma:8.2f}s | {ours:8.2f}s | {tf:6.2f}")
    st = proposed_tridiag_times(RTX4090, 32768, 32, 1024)
    ma_bc = magma_tridiag_times(RTX4090, 32768, 64).stages["sb2st"]
    report(f"  BC @32768: MAGMA {ma_bc * 1e3:6.0f} ms (paper 14327)  "
           f"ours {st.stages['gpu_bc'] * 1e3:6.0f} ms (paper 1839)")
    n, cu, ma, ours = rows[-2]  # 32768
    tf = F.tridiag_flops(n) / ours / 1e12
    assert tf > 0.9 * RTX4090.fp64_tflops  # ~peak, via INT8 assist
    assert st.stages["gpu_bc"] < ma_bc / 3


def test_fig15_proposed_measured(benchmark):
    A = goe(256, seed=15)
    res = benchmark(
        lambda: tridiagonalize(A, method="dbbr", bandwidth=8, second_block=32)
    )
    assert res.d.size == 256


def test_fig15_magma_like_measured(benchmark):
    A = goe(256, seed=15)
    res = benchmark(
        lambda: tridiagonalize(A, method="sbr", bandwidth=8, max_sweeps=1)
    )
    assert res.d.size == 256


def test_fig15_cusolver_like_measured(benchmark):
    A = goe(256, seed=15)
    res = benchmark(lambda: tridiagonalize(A, method="direct"))
    assert res.d.size == 256
