"""Unit tests for the wavefront-batched bulge chasing engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import ExecutionContext, get_backend
from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage, PackedBandStorage, dense_from_band
from repro.core import bc_wavefront
from repro.core.bc_pipeline import pipeline_schedule
from repro.core.bc_wavefront import ChaseIndexError, bulge_chase_wavefront
from repro.core.bulge_chasing import (
    BCTask,
    BulgeChasingResult,
    apply_bc_task,
    apply_q1_reference,
    bulge_chase,
)
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

    @pytest.mark.parametrize("scale", [1e-163, 1e-300])
    @pytest.mark.parametrize("max_sweeps", [None, 1])
    def test_tiny_scale_chases_like_unit_scale(self, rng, scale, max_sweeps):
        # Bulge tails whose squares underflow are still annihilated: the
        # tridiagonal keeps the spectrum of the scaled band.
        n, b = 64, 8
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A * scale, b, max_sweeps=max_sweeps)
        lam = np.linalg.eigvalsh(A)
        got = np.linalg.eigvalsh(dense_from_band(wf.d / scale, wf.e / scale))
        assert np.max(np.abs(got - lam)) <= 200 * n * np.finfo(float).eps * np.abs(lam).max()


def _stack(res, by_sweep_step=False):
    """The reflector stack, optionally sorted by ``(sweep, step)``."""
    order = np.lexsort((res.steps, res.sweeps)) if by_sweep_step else slice(None)
    return res.sweeps[order], res.steps[order], res.V[order], res.tau[order]


class TestReflectorLog:
    def test_log_matches_pipelined_driver(self, rng):
        # Same schedule, same commit order: the stack must line up
        # reflector-for-reflector with the sequential task kernel run in
        # the same round order, and after sorting by (sweep, step) with
        # the sequential chase.
        n, b = 40, 4
        A = random_symmetric_band(n, b, rng)
        seq = bulge_chase(A, b)
        for max_sweeps in (None, 1, 3):
            wf, _ = bulge_chase_wavefront(A, b, max_sweeps=max_sweeps)
            ref, _ = chase_in_schedule(A, b, max_sweeps)
            for x, y in (
                (_stack(wf), _stack(ref)),
                (_stack(wf, True), _stack(seq, True)),
            ):
                assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
                # Clipped tails are zero in both stacks.
                assert np.allclose(x[2], y[2], rtol=0.0, atol=1e-12)
                assert np.allclose(x[3], y[3], rtol=0.0, atol=1e-12)

    def test_log_is_seq_ordered(self, rng):
        # The stack is in a commit order: every sweep's steps appear in
        # chase order, each behind its predecessor sweep's step + 2.
        A = random_symmetric_band(30, 3, rng)
        wf, _ = bulge_chase_wavefront(A, 3)
        pos = {(i, t): p for p, (i, t) in enumerate(zip(wf.sweeps.tolist(), wf.steps.tolist()))}
        for (i, t), p in pos.items():
            assert t == 0 or pos[(i, t - 1)] < p
            assert (i - 1, t + 2) not in pos or pos[(i - 1, t + 2)] < p

    def test_tiny_matrix_no_reflectors(self, rng):
        wf, stats = bulge_chase_wavefront(random_symmetric_band(2, 1, rng), 1)
        assert wf.num_reflectors == 0 and wf.V.shape == (0, 1)
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
            # Round r of the stack is the next stats.occupancy[r] rows.
            cuts = np.cumsum(stats.occupancy)[:-1]
            assert [
                list(zip(i.tolist(), t.tolist()))
                for i, t in zip(np.split(wf.sweeps, cuts), np.split(wf.steps, cuts))
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
        # The diamond-blocked apply must agree with walking the stack one
        # rank-1 update at a time.
        n, b = 48, 5
        A = random_symmetric_band(n, b, rng)
        wf, _ = bulge_chase_wavefront(A, b)
        X = rng.standard_normal((n, 4))
        Y1, Y2 = X.copy(), X.copy()
        wf.apply_q1(Y1)
        apply_q1_reference(wf, Y2)
        assert np.allclose(Y1, Y2, atol=1e-12)
        Y1, Y2 = X.copy(), X.copy()
        wf.apply_q1_transpose(Y1)
        apply_q1_reference(wf, Y2, transpose=True)
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
        # Both chases return the one result type, so either feeds the
        # same back transform.
        A = random_symmetric_band(20, 3, rng)
        wf, _ = bulge_chase_wavefront(A, 3)
        assert type(wf) is type(bulge_chase(A, 3)) is BulgeChasingResult


def _chase_arrays(A, b, max_sweeps):
    wf, _ = bulge_chase_wavefront(A, b, max_sweeps=max_sweeps)
    return wf.d, wf.e, wf.V, wf.tau


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
        V, tau = np.empty((3, b)), np.empty(3)
        with pytest.raises(ChaseIndexError):
            kernel.run(flat, chase, None, True, V, tau)
        with pytest.raises(ChaseIndexError):
            kernel.run(flat, np.array([5 * b - 1, 2 * b]), 0, True, V, tau)


def _to_work(M, b, npad):
    """Dense symmetric ``M`` (lower bandwidth < 2b) as the kernel's
    ``(2b+1) x npad`` working band: ``work[d, j] = M[j + d, j]``."""
    n = M.shape[0]
    work = np.zeros((2 * b + 1, npad), dtype=M.dtype)
    for d in range(2 * b):
        work[d, : n - d] = np.diagonal(M, -d)
    return work


def _from_work(work, n, b):
    M = np.zeros((n, n))
    for d in range(2 * b):
        j = np.arange(n - d)
        M[j + d, j] = M[j, j + d] = work[d, : n - d]
    return M


class TestRoundKernel:
    """``_RoundKernel.run`` task by task against the dense task kernel
    :func:`repro.core.bulge_chasing.apply_bc_task` on random windows."""

    b = 4

    def _round(self, n, chase_cols, start, dtype, seed=0, tweak=None):
        """Run one round both ways; return the kernel's and the oracle's
        ``(M, V, tau)`` (oracle in float64 from the same rounded input)."""
        b = self.b
        npad = n + 3 * b
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n))
        M = np.tril(np.triu(G + G.T, -(2 * b - 1)), 2 * b - 1)
        if tweak is not None:
            tweak(M)
        M = M.astype(dtype)
        tasks = [
            BCTask(sweep=c - 1, step=1, col=c, row0=c + b, row1=min(c + 2 * b, n))
            for c in chase_cols
        ]
        if start is not None:
            tasks.append(
                BCTask(sweep=start, step=0, col=start, row0=start + 1,
                       row1=min(start + 1 + b, n))
            )
        ref = M.astype(np.float64)
        ref_V = np.zeros((len(tasks), b))
        ref_tau = np.zeros(len(tasks))
        for q, task in enumerate(tasks):
            _, v, tau = apply_bc_task(ref, b, task)
            ref_V[q, : v.size], ref_tau[q] = v, tau

        work = _to_work(M, b, npad)
        kernel = bc_wavefront._RoundKernel(
            b, npad, ExecutionContext(), cap=len(tasks), dtype=dtype
        )
        V = np.empty((len(tasks), b), dtype=dtype)
        tau = np.empty(len(tasks), dtype=dtype)
        regular = len(tasks) > 1 and all(
            x - y == 3 * b - 1 for x, y in zip(chase_cols, chase_cols[1:])
        ) and (start is None or chase_cols[-1] - start == 2 * b)
        kernel.run(
            work.reshape(-1), np.asarray(chase_cols, dtype=np.int64), start,
            regular, V, tau,
        )
        # The dump row and the slots past the matrix stay zero.
        assert not work[2 * b].any()
        for d in range(1, 2 * b):
            assert not work[d, n - d :].any()
        return (_from_work(work, n, b), V, tau), (ref, ref_V, ref_tau)

    def _check(self, got, want, dtype):
        (M, V, tau), (ref, ref_V, ref_tau) = got, want
        # Forward error of one two-sided update of a b x 3b window.
        tol = 4 * self.b * np.finfo(dtype).eps * max(1.0, np.abs(ref).max())
        n = ref.shape[0]
        band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) < 2 * self.b
        assert np.max(np.abs(M - np.where(band, ref, 0.0))) < tol
        assert not np.where(band, 0.0, ref).any()
        assert np.max(np.abs(V - ref_V)) < tol
        assert np.max(np.abs(tau - ref_tau)) < tol

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "chase_cols,start",
        [
            ([31, 20, 9], 1),  # regular round: three chase tasks + start task
            ([31, 20, 9], None),  # regular round without a start task
            ([30, 17, 5], None),  # irregular spacing
            ([26, 13], 2),  # irregular, start task with dump columns
            ([9], None),  # one task: the scalar path
            (None, 1),  # one start task
        ],
    )
    def test_matches_task_kernel(self, dtype, chase_cols, start):
        # n = 37 clips the oldest task (col 31) to reflector rows [35, 37):
        # its window runs into the zero padding.
        got, want = self._round(37, chase_cols or [], start, dtype)
        self._check(got, want, dtype)

    def test_edge_clipped_start_task(self):
        # The start task's reflector rows [n-2, n) hold two rows only (no
        # chase task fits to its right, so it runs alone).
        n = 20
        got, want = self._round(n, [], n - 3, np.float64)
        self._check(got, want, np.float64)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tail", [0.0, 1e-170])
    def test_guarded_householder_row(self, dtype, tail):
        # One task's annihilated column is already zero (tau = 0) or so
        # tiny its squares underflow: the round takes the guarded
        # batched_make_householder path, the other tasks ride along.
        if dtype == np.float32 and tail:
            tail = 1e-25

        def tweak(M):
            M[20 + self.b + 1 : 20 + 2 * self.b, 20] = tail
            M[20, 20 + self.b + 1 : 20 + 2 * self.b] = tail

        got, want = self._round(37, [31, 20, 9], 1, dtype, tweak=tweak)
        self._check(got, want, dtype)
        assert (got[2][1] == 0.0) == (tail == 0.0)
