"""Figure 14 — SBR back transformation: MAGMA ormqr vs the proposed
batched W-merge scheme (k = 2048) at b = 64 on H100.

Paper: despite the extra flops of forming wider W blocks, the enlarged GEMM
inner dimension wins ~1.6x across sizes.

``[simulated]`` — both schemes priced at device scale.
``[measured]`` — the three numerically equivalent schedules as group widths
of the one grouped WY apply (1 = MAGMA ormqr, k = Figure 13, the total
width = Algorithm 3) on the real pipeline; wall-clock at laptop scale plus
an exactness check.

Run with ``PYTHONPATH=src pytest -q benchmarks/bench_fig14_back_transform.py``
(add ``--benchmark-disable`` for a quick correctness pass).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import banner
from repro.bench.workloads import goe
from repro.core.back_transform import apply_sbr_q, q_from_blocks
from repro.core.dbbr import dbbr
from repro.gpusim import H100
from repro.models.baselines import magma_ormqr_sbr_time
from repro.models.proposed import proposed_back_transform_time

NS = [8192, 16384, 24576, 32768, 40960, 49152]
B, K = 64, 2048


def test_fig14_simulated(benchmark, report):
    def series():
        return [
            (
                n,
                magma_ormqr_sbr_time(H100, n, B),
                proposed_back_transform_time(H100, n, B, K),
            )
            for n in NS
        ]

    rows = benchmark(series)
    report(banner(f"Figure 14: SBR back transformation, b = {B}, k = {K}",
                  "simulated"))
    report(f"  {'n':>8} | {'MAGMA ormqr':>12} | {'proposed':>10} | speedup")
    for n, magma, ours in rows:
        report(f"  {n:>8} | {magma:11.2f}s | {ours:9.2f}s | {magma / ours:5.2f}x")
    report("paper: ~1.6x across sizes")
    for n, magma, ours in rows:
        assert ours < magma, n
    n, magma, ours = rows[-1]
    assert 1.1 < magma / ours < 3.0


def _reduction(n=160):
    A = goe(n, seed=14)
    return n, dbbr(A, 8, 32)


#: The paper's three schedules as group widths of the one grouped WY apply:
#: MAGMA's ormqr order (1: no merging), Figure 13 (k) and Algorithm 3 (the
#: total width: one W for the whole of Q_sbr).
SCHEDULES = {
    "ormqr": lambda blocks: 1,
    "fig13": lambda blocks: 32,
    "alg3": lambda blocks: sum(blk.width for blk in blocks),
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_fig14_measured(benchmark, schedule):
    n, res = _reduction()
    X = np.eye(n)
    gw = SCHEDULES[schedule](res.blocks)
    benchmark(lambda: apply_sbr_q(res.blocks, X.copy(), group_width=gw))


def test_fig14_equivalence(benchmark):
    """All three schedules produce the same Q (within roundoff)."""
    n, res = _reduction(96)

    def run():
        return tuple(
            q_from_blocks(res.blocks, n, SCHEDULES[s](res.blocks))
            for s in ("ormqr", "alg3", "fig13")
        )

    q_b, q_r, q_i = benchmark(run)
    assert np.allclose(q_b, q_r, atol=1e-11)
    assert np.allclose(q_b, q_i, atol=1e-11)
