"""Unit tests for sequential bulge chasing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.band.storage import dense_from_band
from repro.core.bulge_chasing import (
    apply_bc_task,
    apply_q1_reference,
    bulge_chase,
    num_tasks_in_sweep,
    sweep_tasks,
    task_window,
)


class TestSweepGeometry:
    def test_first_task_row_window(self):
        tasks = sweep_tasks(20, 4, 0)
        assert tasks[0].col == 0
        assert tasks[0].row0 == 1 and tasks[0].row1 == 5

    def test_chase_advances_by_bandwidth(self):
        tasks = sweep_tasks(40, 5, 2)
        cols = [t.col for t in tasks]
        assert cols[0] == 2
        diffs = np.diff(cols[1:])
        assert np.all(diffs == 5)

    def test_task_count_matches_generator(self):
        for n, b, i in [(20, 3, 0), (33, 4, 7), (50, 8, 30), (10, 2, 7)]:
            assert num_tasks_in_sweep(n, b, i) == len(sweep_tasks(n, b, i))

    def test_later_sweeps_have_fewer_tasks(self):
        counts = [num_tasks_in_sweep(60, 4, i) for i in range(58)]
        assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))

    def test_bandwidth_one_has_no_tasks(self):
        assert num_tasks_in_sweep(20, 1, 0) == 0

    def test_last_sweep_single_task(self):
        tasks = sweep_tasks(20, 4, 17)  # i = n-3
        assert len(tasks) == 1
        assert tasks[0].length == 2

    def test_window_covers_task(self):
        for t in sweep_tasks(30, 4, 3):
            lo, hi = task_window(t, 30, 4)
            assert lo <= t.col and hi >= t.row1


class TestApplyTask:
    def test_annihilates_column(self, rng):
        n, b = 16, 4
        A = random_symmetric_band(n, b, rng)
        task = sweep_tasks(n, b, 0)[0]
        apply_bc_task(A, b, task)
        assert np.max(np.abs(A[2 : 1 + b, 0])) < 1e-13
        assert np.max(np.abs(A[0, 2 : 1 + b])) < 1e-13

    def test_preserves_symmetry(self, rng):
        n, b = 18, 3
        A = random_symmetric_band(n, b, rng)
        for task in sweep_tasks(n, b, 0):
            apply_bc_task(A, b, task)
            assert np.linalg.norm(A - A.T) < 1e-12

    def test_preserves_spectrum(self, rng):
        n, b = 14, 3
        A = random_symmetric_band(n, b, rng)
        lam0 = np.linalg.eigvalsh(A)
        for task in sweep_tasks(n, b, 0):
            apply_bc_task(A, b, task)
        assert np.max(np.abs(np.linalg.eigvalsh(A) - lam0)) < 1e-12

    def test_one_sweep_restores_band_beyond_column(self, rng):
        n, b = 20, 4
        A = random_symmetric_band(n, b, rng)
        for task in sweep_tasks(n, b, 0):
            apply_bc_task(A, b, task)
        # Column 0 is tridiagonal.  A sweep annihilates only each bulge's
        # *first* column; the remnant columns stay for the next sweeps, but
        # fill never reaches deeper than 2b below the diagonal.
        assert np.max(np.abs(A[2:, 0])) < 1e-13
        for q in range(1, n):
            assert np.max(np.abs(A[min(q + 2 * b, n) :, q]), initial=0.0) < 1e-12

    def test_fill_never_exceeds_2b(self, rng):
        """The band-storage depth contract: a chase in progress never
        creates fill deeper than sub-diagonal ``2b``, after any task of
        any sweep, so a ``(2b+1) x n`` working band holds it all."""
        n, b = 24, 3
        A = random_symmetric_band(n, b, rng)
        for i in range(n - 2):
            for task in sweep_tasks(n, b, i):
                apply_bc_task(A, b, task)
                assert np.max(np.abs(np.tril(A, -(2 * b + 1))), initial=0.0) <= 1e-14


class TestBulgeChase:
    @pytest.mark.parametrize("n,b", [(12, 3), (25, 2), (30, 5), (17, 8), (40, 6)])
    def test_reconstruction(self, rng, n, b):
        B = random_symmetric_band(n, b, rng)
        res = bulge_chase(B, b)
        T = dense_from_band(res.d, res.e)
        Q1 = res.q1()
        assert np.linalg.norm(Q1 @ T @ Q1.T - B) / np.linalg.norm(B) < 1e-12

    def test_q1_orthogonal(self, rng):
        B = random_symmetric_band(24, 4, rng)
        res = bulge_chase(B, 4)
        Q1 = res.q1()
        assert np.linalg.norm(Q1.T @ Q1 - np.eye(24)) < 1e-12

    def test_spectrum_preserved(self, rng):
        B = random_symmetric_band(30, 5, rng)
        res = bulge_chase(B, 5)
        T = dense_from_band(res.d, res.e)
        assert np.max(np.abs(np.linalg.eigvalsh(T) - np.linalg.eigvalsh(B))) < 1e-11

    def test_already_tridiagonal_passthrough(self, rng):
        B = random_symmetric_band(15, 1, rng)
        res = bulge_chase(B, 1)
        assert res.num_reflectors == 0
        assert np.allclose(res.d, np.diagonal(B))
        assert np.allclose(res.e, np.diagonal(B, -1))

    def test_apply_q1_transpose_inverts(self, rng):
        B = random_symmetric_band(20, 3, rng)
        res = bulge_chase(B, 3)
        X = rng.standard_normal((20, 4))
        Y = X.copy()
        res.apply_q1(Y)
        res.apply_q1_transpose(Y)
        assert np.allclose(X, Y, atol=1e-12)
        Z = X.copy()
        apply_q1_reference(res, Z)
        apply_q1_reference(res, Z, transpose=True)
        assert np.allclose(X, Z, atol=1e-12)

    def test_reflector_log_seq_is_contiguous(self, rng):
        # The sequential chase commits sweep by sweep, each in chase order.
        n, b = 18, 4
        res = bulge_chase(random_symmetric_band(n, b, rng), b)
        expected = [(i, t) for i in range(n - 2) for t in range(num_tasks_in_sweep(n, b, i))]
        assert list(zip(res.sweeps.tolist(), res.steps.tolist())) == expected

    def test_input_not_modified(self, rng):
        B = random_symmetric_band(16, 3, rng)
        B0 = B.copy()
        bulge_chase(B, 3)
        assert np.array_equal(B, B0)

    def test_invalid_bandwidth(self, rng):
        with pytest.raises(ValueError):
            bulge_chase(random_symmetric_band(10, 2, rng), 0)

    def test_flops_scale(self, rng):
        B = random_symmetric_band(40, 4, rng)
        res = bulge_chase(B, 4)
        # ~12 n^2 b within a small factor.
        assert 0.2 * 12 * 40**2 * 4 < res.flops < 3 * 12 * 40**2 * 4
