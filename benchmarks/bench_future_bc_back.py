"""Future work (Section 8) — blocked bulge-chasing back transformation.

The paper leaves the BC back transformation (61% of the eigenvector path)
as future work.  This repo blocks the reflectors by diamonds — the
step-``t`` reflectors of ``g`` consecutive sweeps form one compact-WY
block of ``b+g-1`` rows and inner width ``g`` — and applies ``Q1`` as
two GEMMs per block, ``X -= W (V^T X)`` with ``W = V T``
(``BulgeChasingResult.apply_q1``).

``[simulated]`` — cost vs group width at device scale, against the
rank-1 replay and the paper's calibrated baseline.
``[measured]`` — the production blocked ``apply_q1`` against the
rank-1 oracle ``apply_q1_reference``: exactness and wall time; and the
host seconds of ``Q1`` (per diamond width ``g``) and ``Q_sbr`` on a
row-major and a column-major copy of the D&C eigenvector matrix.  The
pytest run is a smoke size; ``python benchmarks/bench_future_bc_back.py``
prints the table at n = 1024 and 2048.
"""

from __future__ import annotations

import time

import numpy as np

from repro.band.ops import random_symmetric_band
from repro.bench.reporting import banner
from repro.core import tridiagonalize
from repro.core.back_transform import apply_sbr_q
from repro.core.bc_back_transform import (
    Q1_GROUP,
    apply_q1_blocks,
    blocked_bc_back_time,
    q1_blocks,
)
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import apply_q1_reference
from repro.eig import dc_eigh
from repro.gpusim import H100
from repro.gpusim.roofline import sustained_gemm_tflops
from repro.models.baselines import bc_back_transform_time

N, B = 49152, 32
GROUPS = [8, 16, 32, 64, 128, 256]


def test_future_blocked_bcback_simulated(benchmark, report):
    baseline = bc_back_transform_time(H100, N, B)
    rank1 = 2.0 * N**3 / (sustained_gemm_tflops(H100, B, N, 1) * 1e12)
    rows = benchmark(
        lambda: [(g, blocked_bc_back_time(H100, N, B, g)) for g in GROUPS]
    )
    report(banner("Future work: diamond-blocked BC back transformation (H100)",
                  "simulated"))
    report(f"  rank-1 reflector replay:          {rank1:7.1f} s")
    report(f"  paper's calibrated bc_back stage: {baseline:7.1f} s")
    for g, t in rows:
        report(f"  diamond group {g:4d}: {t:7.1f} s")
    best = min(t for _, t in rows)
    assert best < rank1 / 2


def _wavefront_case(n: int = 200, b: int = 4):
    A = random_symmetric_band(n, b, np.random.default_rng(60))
    return bulge_chase_wavefront(A, b)[0]


def test_future_blocked_bcback_measured(benchmark, report):
    """Real numerics: the production blocked ``apply_q1`` (blocks built
    inside every call) matches the rank-1 oracle."""
    wf = _wavefront_case()
    X = np.eye(wf.n)

    def run():
        Y = X.copy()
        wf.apply_q1(Y)
        return Y

    Y_blocked = benchmark(run)
    Y_scalar = X.copy()
    apply_q1_reference(wf, Y_scalar)
    err = np.max(np.abs(Y_blocked - Y_scalar))
    report(banner("Future work (measured): blocked vs scalar Q1", "measured"))
    report(f"  n={wf.n}, reflectors={wf.num_reflectors}, "
           f"blocks={wf.q1_blocks().count}")
    report(f"  max deviation blocked vs scalar: {err:.2e}")
    assert err < 1e-12


def test_future_scalar_bcback_measured(benchmark):
    """Scalar reference application for the pytest-benchmark comparison."""
    wf = _wavefront_case()
    X = np.eye(wf.n)

    def run():
        Y = X.copy()
        apply_q1_reference(wf, Y)
        return Y

    benchmark(run)


HOST_GROUPS = sorted({8, 12, 16, 24, 32, Q1_GROUP})
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray}


def _host_case(n: int):
    """The production factors of a GOE matrix (``b = 32``) and its D&C
    eigenvector matrix ``U``, the operand of the back transform."""
    g = np.random.default_rng(0).standard_normal((n, n))
    tri = tridiagonalize((g + g.T) / 2, bandwidth=32)
    return tri, dc_eigh(tri.d, tri.e)[1]


def _best_seconds(fn, operand, repeats):
    fn(operand())  # untimed: the first call pays one-off BLAS set-up
    best = float("inf")
    for _ in range(repeats):
        X = operand()
        t0 = time.perf_counter()
        fn(X)
        best = min(best, time.perf_counter() - t0)
    return best


def host_back_transform_rows(tri, U, repeats=3):
    """``(layout, g, q1_s, sbr_s)``: best-of-``repeats`` host seconds of
    ``Q1`` (blocks built inside the timing, as ``apply_q1`` does) per
    diamond width and of ``Q_sbr``, on each layout of ``U``."""
    bc = tri.bc_result
    rows = []
    for layout, order in LAYOUTS.items():
        sbr = _best_seconds(
            lambda X: apply_sbr_q(tri.band_result.blocks, X, tri.back_transform_group),
            lambda: order(U),
            repeats,
        )
        for g in HOST_GROUPS:
            q1 = _best_seconds(
                lambda X: apply_q1_blocks(
                    q1_blocks(bc.sweeps, bc.steps, bc.V, bc.tau, group=g), X
                ),
                lambda: order(U),
                repeats,
            )
            rows.append((layout, g, q1, sbr))
    return rows


def _report_host_rows(report, n, rows):
    report(f"  n={n}, b=32, Q1_GROUP={Q1_GROUP}")
    for layout, g, q1, sbr in rows:
        report(f"  {layout}-ordered operand  g={g:3d}  Q1 {q1:7.3f} s   Q_sbr {sbr:7.3f} s")


def test_future_bcback_host_layouts(report):
    """At a smoke size the blocked ``Q1`` matches the rank-1 oracle on a
    row-major and a column-major operand for every reported ``g``."""
    n = 256
    tri, U = _host_case(n)
    bc = tri.bc_result
    for order in LAYOUTS.values():
        ref = order(U)
        apply_q1_reference(bc, ref)
        for g in HOST_GROUPS:
            X = order(U)
            apply_q1_blocks(q1_blocks(bc.sweeps, bc.steps, bc.V, bc.tau, group=g), X)
            assert np.max(np.abs(X - ref)) <= 1e-12
    report(banner("Future work (measured): Q1 and Q_sbr per operand layout", "measured"))
    _report_host_rows(report, n, host_back_transform_rows(tri, U))


if __name__ == "__main__":
    for n in (1024, 2048):
        _report_host_rows(print, n, host_back_transform_rows(*_host_case(n)))
