"""Future work (Section 8) — blocked bulge-chasing back transformation.

The paper leaves the BC back transformation (61% of the eigenvector path)
as future work.  This repo blocks the reflectors by diamonds — the
step-``t`` reflectors of ``g`` consecutive sweeps form one compact-WY
block of ``b+g-1`` rows and inner width ``g`` — and applies ``Q1`` as
three GEMMs per block (``BulgeChasingResult.apply_q1``).

``[simulated]`` — cost vs group width at device scale, against the
rank-1 replay and the paper's calibrated baseline.
``[measured]`` — the production blocked ``apply_q1`` against the
rank-1 oracle ``apply_q1_reference``: exactness and wall time.
"""

from __future__ import annotations

import numpy as np

from repro.band.ops import random_symmetric_band
from repro.bench.reporting import banner
from repro.core.bc_back_transform import blocked_bc_back_time
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import apply_q1_reference
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
