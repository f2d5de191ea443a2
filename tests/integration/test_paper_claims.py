"""Integration tests asserting the paper's qualitative claims end to end
(numerics where possible, calibrated models for device-scale claims)."""

from __future__ import annotations

import numpy as np

import repro
from repro.bench.workloads import goe
from repro.gpusim import CPU_8_CORE, H100, RTX4090
from repro.gpusim.kernels import bc_task_time_gpu
from repro.gpusim.executor import simulate_bc_pipeline
from repro.models import (
    bc_time_model,
    cusolver_syevd_times,
    cusolver_sytrd_time,
    magma_evd_times,
    magma_sb2st_time,
    magma_tridiag_times,
    proposed_evd_times,
    proposed_tridiag_times,
)
from repro.models import flops as F


class TestAbstractClaims:
    """The abstract's headline numbers, reproduced from the models."""

    def test_9_3x_vs_cusolver(self):
        n = 49152
        speedup = cusolver_sytrd_time(H100, n) / proposed_tridiag_times(
            H100, n, 32, 1024
        ).total
        assert speedup > 6.0  # paper: up to 9.3x

    def test_5_2x_vs_magma(self):
        n = 49152
        speedup = (
            magma_tridiag_times(H100, n, 64).total
            / proposed_tridiag_times(H100, n, 32, 1024).total
        )
        assert speedup > 3.5  # paper: up to 5.2x

    def test_19_6_tflops(self):
        n = 49152
        tf = F.tridiag_flops(n) / proposed_tridiag_times(H100, n, 32, 1024).total / 1e12
        assert 14.0 < tf < 26.0


class TestSection31Claims:
    def test_tridiag_dominates_cusolver_evd(self):
        st = cusolver_syevd_times(H100, 49152, compute_vectors=False)
        assert st.fraction("sytrd") > 0.9  # paper: 97.7%

    def test_magma_beats_cusolver_overall_despite_slower_dc(self):
        n = 49152
        assert (
            magma_evd_times(H100, n, False).total
            < cusolver_syevd_times(H100, n, False).total
        )

    def test_bc_half_of_magma_tridiag(self):
        st = magma_tridiag_times(H100, 49152, 64)
        assert 0.35 < st.fraction("sb2st") < 0.65  # paper: 48%


class TestSection33PipelineClaims:
    def test_serial_gpu_bc_slower_than_magma(self):
        n, b = 65536, 32
        magma = magma_sb2st_time(CPU_8_CORE, n, b)
        assert bc_time_model(n, b, 1) > magma

    def test_32_sweeps_beat_magma(self):
        n, b = 65536, 32
        magma = magma_sb2st_time(CPU_8_CORE, n, b)
        assert bc_time_model(n, b, 32) < magma

    def test_sm_count_supports_enough_sweeps(self):
        # "even if each SM processes only one sweep" the GPU wins.
        assert H100.sm_count > 32


class TestSection62Claims:
    def test_eigvec_back_transform_dominates(self):
        st = proposed_evd_times(H100, 49152, True)
        total_back = st.stages["bc_back"] + st.stages["sbr_back"]
        assert total_back / st.total > 0.5

    def test_4090_bc_parallelism_beats_compute(self):
        # "BC performance is more dependent on parallelism than on
        # computing capacity": the 4090 (tiny FP64) still crushes the CPU.
        dt, S = bc_task_time_gpu(RTX4090, 32768, 32, optimized=True)
        gpu = simulate_bc_pipeline(32768, 32, S, dt).total_time_s
        cpu = magma_sb2st_time(CPU_8_CORE, 32768, 64)
        assert gpu < cpu / 3


class TestNumericalEquivalenceOfProposedPipeline:
    """The proposed pipeline's *numerics* are exact — GPU scheduling is a
    pure reordering (the property the spin-lock protocol guarantees)."""

    def test_pipelined_equals_sequential_at_scale(self):
        from repro.core.bulge_chasing import bulge_chase
        from tests.conftest import chase_in_schedule

        A = goe(150, seed=9)
        kw = dict(method="dbbr", bandwidth=6, second_block=24)
        r = repro.tridiagonalize(A, **kw)
        r_seq = bulge_chase(r.band_result.band, 6)
        # The pipelined schedule is a pure reordering of the sequential
        # chase, hence bit-identical for every in-flight cap.
        for cap in (None, 1, 2, 5):
            r_par, _ = chase_in_schedule(r.band_result.band, 6, max_sweeps=cap)
            assert np.array_equal(r_par.d, r_seq.d), cap
            assert np.array_equal(r_par.e, r_seq.e), cap
        # The wavefront-batched engine changes the summation order inside
        # each round; forward error grows mildly with n, so compare to
        # roundoff scaled a couple of orders above machine epsilon.  One
        # sweep in flight (the magma/plasma schedule) meets the same bound.
        scale = np.linalg.norm(A)
        for cap in (None, 1):
            r_wf = repro.tridiagonalize(A, max_sweeps=cap, **kw)
            assert np.max(np.abs(r_wf.d - r_seq.d)) < 1e-10 * scale, cap
            assert np.max(np.abs(r_wf.e - r_seq.e)) < 1e-10 * scale, cap

    def test_full_proposed_evd_machine_precision(self):
        A = goe(120, seed=10)
        res = repro.eigh(A, method="proposed", bandwidth=6, second_block=12)
        assert res.residual(A) < 5e-13
        V = res.eigenvectors
        assert np.linalg.norm(V.T @ V - np.eye(120)) < 1e-11
