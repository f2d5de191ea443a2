"""Unit tests for the wavefront-batched bulge chasing engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ExecutionContext, get_backend
from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage, PackedBandStorage, dense_from_band
from repro.core.bc_pipeline import pipeline_schedule
from repro.core.bc_wavefront import (
    WavefrontBCResult,
    bulge_chase_wavefront,
)
from repro.core.bulge_chasing import BulgeChasingResult, bulge_chase
from tests.conftest import chase_in_schedule

# Small enough that forward-error amplification between the two (equally
# valid) roundoff trajectories stays well under the strict 1e-12 gate;
# larger sizes are covered by the residual/back-transform tests below.
GRID = [(12, 2), (20, 3), (33, 4), (40, 5), (50, 7), (64, 8), (40, 16)]

# Execution substrates the oracle grid runs on.  numpy must be
# *bit*-identical to the sequential chase's trajectory handling; torch
# (CPU) is importorskip-gated and held to the same 1e-12 gate (select
# with `pytest -k backend`).
BACKEND_NAMES = ["numpy", "torch"]


@pytest.fixture(params=BACKEND_NAMES, ids=[f"backend-{b}" for b in BACKEND_NAMES])
def backend_ctx(request) -> ExecutionContext:
    if request.param != "numpy":
        pytest.importorskip(request.param)
    return ExecutionContext(backend=get_backend(request.param))


class TestMatchesOracle:
    @pytest.mark.parametrize("n,b", GRID)
    def test_d_e_match_sequential(self, rng, backend_ctx, n, b):
        A = random_symmetric_band(n, b, rng)
        seq = bulge_chase(A, b)
        wf, _ = bulge_chase_wavefront(
            LowerBandStorage.from_dense(A, b), ctx=backend_ctx
        )
        tol = 1e-12 if backend_ctx.is_numpy else 1e-10
        assert np.max(np.abs(wf.d - seq.d)) < tol
        assert np.max(np.abs(wf.e - seq.e)) < tol

    def test_numpy_backend_bit_identical(self, rng):
        # backend="numpy" is not merely close — it executes the same
        # instruction stream as the default path, bit for bit.
        n, b = 50, 7
        A = random_symmetric_band(n, b, rng)
        plain, _ = bulge_chase_wavefront(LowerBandStorage.from_dense(A, b))
        ctx = ExecutionContext(backend=get_backend("numpy"))
        viactx, _ = bulge_chase_wavefront(LowerBandStorage.from_dense(A, b), ctx=ctx)
        assert np.array_equal(plain.d, viactx.d)
        assert np.array_equal(plain.e, viactx.e)

    def test_backend_reconstruction(self, rng, backend_ctx):
        n, b = 40, 5
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b, ctx=backend_ctx)
        Q1 = np.eye(n)
        wf.apply_q1(Q1)
        T = dense_from_band(wf.d, wf.e)
        assert np.linalg.norm(Q1 @ T @ Q1.T - A) / np.linalg.norm(A) < 1e-12

    def test_accepts_packed_and_dense(self, rng):
        A = random_symmetric_band(24, 3, rng)
        r1, _ = bulge_chase_wavefront(LowerBandStorage.from_dense(A, 3))
        r2, _ = bulge_chase_wavefront(PackedBandStorage.from_dense(A, 3))
        r3, _ = bulge_chase_wavefront(A, 3)
        assert np.array_equal(r1.d, r2.d) and np.array_equal(r1.d, r3.d)
        assert np.array_equal(r1.e, r2.e) and np.array_equal(r1.e, r3.e)

    def test_dense_without_bandwidth_rejected(self, rng):
        with pytest.raises(ValueError):
            bulge_chase_wavefront(random_symmetric_band(10, 2, rng))

    def test_residual_at_scale(self, rng):
        # At n = 150 entrywise d/e divergence can exceed 1e-12 (forward
        # error of two different summation orders); the factorization
        # itself must still be machine-precision exact.
        n, b = 150, 6
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b)
        Q1 = np.eye(n)
        wf.apply_q1(Q1)
        T = dense_from_band(wf.d, wf.e)
        assert np.linalg.norm(Q1 @ T @ Q1.T - A) / np.linalg.norm(A) < 1e-13
        assert np.linalg.norm(Q1.T @ Q1 - np.eye(n)) < 1e-12


class TestReflectorLog:
    def test_log_matches_pipelined_driver(self, rng):
        # Same schedule, same commit order: the materialized scalar log
        # must line up reflector-for-reflector with the sequential task
        # kernel run in the same round order.
        n, b = 40, 4
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(LowerBandStorage.from_dense(A, b))
        ref, _ = chase_in_schedule(A, b)
        log = wf.reflectors
        assert len(log) == len(ref.reflectors) == wf.num_reflectors
        for rw, rp in zip(log, ref.reflectors):
            assert (rw.sweep, rw.step, rw.offset) == (rp.sweep, rp.step, rp.offset)
            assert rw.seq == rp.seq
            # Wavefront reflectors are padded to length b then trimmed at
            # the matrix edge; the overlap must agree, the tail be zero.
            m = min(rw.v.size, rp.v.size)
            assert np.allclose(rw.v[:m], rp.v[:m], atol=1e-12)
            assert np.all(rw.v[m:] == 0.0) and np.all(rp.v[m:] == 0.0)
            assert abs(rw.tau - rp.tau) < 1e-12

    def test_log_is_seq_ordered(self, rng):
        A = random_symmetric_band(30, 3, rng)
        wf, _ = bulge_chase_wavefront(A, 3)
        seqs = [r.seq for r in wf.reflectors]
        assert seqs == list(range(len(seqs)))

    def test_tiny_matrix_no_reflectors(self, rng):
        wf, stats = bulge_chase_wavefront(random_symmetric_band(2, 1, rng), 1)
        assert wf.num_reflectors == 0 and wf.reflectors == []
        assert stats.rounds == 0


class TestSchedule:
    @pytest.mark.parametrize("n,b", [(20, 2), (30, 3), (41, 4), (25, 8)])
    def test_closed_form_equals_generic_scheduler(self, rng, n, b):
        A = random_symmetric_band(n, b, rng)
        _, stats = bulge_chase_wavefront(A, b)
        _, ref = pipeline_schedule(n, b, None)
        assert stats.rounds == ref.rounds
        assert stats.occupancy == ref.occupancy
        assert stats.max_parallel == ref.max_parallel
        assert stats.total_tasks == ref.total_tasks
        assert stats.task_rounds == ref.task_rounds

    def test_capped_matches_oracle(self, rng):
        n, b = 36, 4
        A = random_symmetric_band(n, b, rng)
        seq = bulge_chase(A, b)
        wf, stats = bulge_chase_wavefront(A, b, max_sweeps=2)
        assert np.max(np.abs(wf.d - seq.d)) < 1e-12
        assert np.max(np.abs(wf.e - seq.e)) < 1e-12
        assert stats.max_parallel <= 2

    def test_serial_cap_one_task_per_round(self, rng):
        A = random_symmetric_band(25, 3, rng)
        _, stats = bulge_chase_wavefront(A, 3, max_sweeps=1)
        assert all(occ == 1 for occ in stats.occupancy)


class TestFlops:
    @pytest.mark.parametrize("n,b", [(20, 2), (30, 3), (41, 4), (25, 8), (16, 15)])
    def test_identical_across_all_drivers(self, rng, n, b):
        # One flop model (bc_task_flops), both engines, exact agreement:
        # the terms are small integers, so the float64 sums are exact.
        A = random_symmetric_band(n, b, rng)
        seq = bulge_chase(A, b)
        wf, _ = bulge_chase_wavefront(A, b)
        assert seq.flops == wf.flops


class TestApplyQ1:
    def test_batched_apply_matches_scalar_log(self, rng):
        # Replaying the stacked groups must agree with walking the
        # materialized scalar log through the base-class kernels.
        n, b = 48, 5
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b)
        scalar = BulgeChasingResult(
            d=wf.d, e=wf.e, reflectors=wf.reflectors, flops=wf.flops
        )
        X = rng.standard_normal((n, 4))
        Y1, Y2 = X.copy(), X.copy()
        wf.apply_q1(Y1)
        scalar.apply_q1(Y2)
        assert np.allclose(Y1, Y2, atol=1e-12)
        Y1, Y2 = X.copy(), X.copy()
        wf.apply_q1_transpose(Y1)
        scalar.apply_q1_transpose(Y2)
        assert np.allclose(Y1, Y2, atol=1e-12)

    def test_transpose_inverts(self, rng):
        n, b = 33, 4
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b)
        X = rng.standard_normal((n, 3))
        Y = X.copy()
        wf.apply_q1(Y)
        wf.apply_q1_transpose(Y)
        assert np.allclose(X, Y, atol=1e-12)

    @pytest.mark.parametrize("n,b", [(20, 3), (40, 5), (26, 8)])
    def test_reconstruction(self, rng, n, b):
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b)
        Q1 = np.eye(n)
        wf.apply_q1(Q1)
        T = dense_from_band(wf.d, wf.e)
        assert np.linalg.norm(Q1 @ T @ Q1.T - A) / np.linalg.norm(A) < 1e-12

    def test_result_type_is_drop_in(self, rng):
        wf, _ = bulge_chase_wavefront(random_symmetric_band(20, 3, rng), 3)
        assert isinstance(wf, WavefrontBCResult)
        assert isinstance(wf, BulgeChasingResult)
