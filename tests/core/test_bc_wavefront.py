"""Unit tests for the wavefront-batched bulge chasing engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ExecutionContext, get_backend
from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage, PackedBandStorage, dense_from_band
from repro.core import bc_wavefront
from repro.core.bc_pipeline import pipeline_schedule
from repro.core.bc_wavefront import (
    ChaseIndexError,
    WavefrontBCResult,
    bulge_chase_wavefront,
)
from repro.core.bulge_chasing import BulgeChasingResult, bulge_chase
from tests.conftest import (
    SCHEDULE_GRID,
    chase_in_schedule,
    round_by_round_schedule,
    schedule_fields,
)

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
        # The engine executes exactly the rounds the independent
        # round-by-round oracle produces, capped or not.
        A = random_symmetric_band(n, b, rng)
        for S in (None, 1, 2, 3, 5, 8):
            wf, stats = bulge_chase_wavefront(A, b, max_sweeps=S)
            rounds, ref = round_by_round_schedule(n, b, S)
            assert schedule_fields(stats) == schedule_fields(ref)
            assert [
                list(zip(g.sweeps.tolist(), g.steps.tolist()))
                for g in wf.round_groups
            ] == [[(t.sweep, t.step) for t in tasks] for tasks in rounds]

    def test_task_rounds_built_on_demand(self, rng):
        _, stats = bulge_chase_wavefront(random_symmetric_band(30, 3, rng), 3)
        assert stats._task_rounds is None
        assert stats.task_rounds[(0, 0)] == 0
        assert len(stats.task_rounds) == stats.total_tasks

    def test_capped_matches_oracle(self, rng):
        for n, b, S in SCHEDULE_GRID:
            sweeps, steps, stats = pipeline_schedule(n, b, S)
            rounds, ref = round_by_round_schedule(n, b, S)
            case = (n, b, S)
            assert sweeps.tolist() == [t.sweep for r in rounds for t in r], case
            assert steps.tolist() == [t.step for r in rounds for t in r], case
            assert schedule_fields(stats) == schedule_fields(ref), case
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


def _chase_arrays(A, b, max_sweeps):
    wf, _ = bulge_chase_wavefront(A, b, max_sweeps=max_sweeps)
    gs = wf.round_groups
    V = np.concatenate([g.V for g in gs]) if gs else np.zeros((0, b))
    tau = np.concatenate([g.tau for g in gs]) if gs else np.zeros(0)
    return wf.d, wf.e, V, tau


class TestRegularRounds:
    @pytest.mark.parametrize("max_sweeps", [None, 1, 2, 5])
    @pytest.mark.parametrize("b", [2, 3, 8, 16, 32])
    @pytest.mark.parametrize("n", [3, 4, 5, 20, 64, 150, 300])
    def test_bit_identical_to_per_round_indices(self, monkeypatch, n, b, max_sweeps):
        b = min(b, n - 1)
        A = random_symmetric_band(n, b, np.random.default_rng(n * 64 + b))
        regular = _chase_arrays(A, b, max_sweeps)
        monkeypatch.setattr(
            bc_wavefront,
            "_regular_rounds",
            lambda cols, bounds, b: np.zeros(len(bounds) - 1, dtype=bool),
        )
        generic = _chase_arrays(A, b, max_sweeps)
        for x, y in zip(regular, generic):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("n,b", [(20, 2), (64, 3), (150, 8), (300, 16), (300, 32)])
    def test_every_multi_task_unbounded_round_is_regular(self, n, b):
        sweeps, steps, stats = pipeline_schedule(n, b)
        bounds = np.concatenate([[0], np.cumsum(stats.occupancy)])
        regular = bc_wavefront._regular_rounds(sweeps + 1 + (steps - 1) * b, bounds, b)
        assert np.array_equal(regular, np.asarray(stats.occupancy) > 1)

    def test_capped_rounds_mix_regular_and_irregular(self):
        n, b = 150, 8
        sweeps, steps, stats = pipeline_schedule(n, b, 5)
        bounds = np.concatenate([[0], np.cumsum(stats.occupancy)])
        regular = bc_wavefront._regular_rounds(sweeps + 1 + (steps - 1) * b, bounds, b)
        multi = np.asarray(stats.occupancy) > 1
        assert regular.any() and (multi & ~regular).any()

    def test_oversize_template_raises(self, monkeypatch):
        # A template reaching one band row past the working array: the
        # regular gather wraps (mode="wrap"), so only the explicit extent
        # check stands between it and silently wrong indices.
        n, b = 40, 4
        npad = n + 3 * b
        template = bc_wavefront._RoundKernel._template

        def oversize(self, npad_, sl, wn):
            return template(self, npad_, sl, wn) + npad_ * (2 * b + 1)

        monkeypatch.setattr(bc_wavefront._RoundKernel, "_template", oversize)
        kernel = bc_wavefront._RoundKernel(b, npad, ExecutionContext(), cap=4)
        flat = np.zeros((2 * b + 1) * npad)
        chase = np.array([1 + 2 * (3 * b - 1), 1 + (3 * b - 1), 1], dtype=np.int64)
        with pytest.raises(ChaseIndexError):
            kernel.run(flat, chase, None, regular=True)
        with pytest.raises(ChaseIndexError):
            kernel.run(flat, np.array([5 * b - 1, 2 * b]), 0, regular=True)
