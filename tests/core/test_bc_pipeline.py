"""Unit tests for the pipelined (GPU-style) bulge chasing schedule.

The numeric checks run the schedule through the test-only
``chase_in_schedule`` oracle (``tests/conftest.py``), which executes
the sequential chase's task kernel in round order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.core.bc_pipeline import SAFETY_TASKS, pipeline_schedule, sweep_starts
from repro.core.bulge_chasing import bulge_chase, num_tasks_in_sweep
from tests.conftest import chase_in_schedule


def _task_rounds(n, b, max_sweeps=None):
    """``{(sweep, step): round}`` read off the round-major arrays."""
    sweeps, steps, stats = pipeline_schedule(n, b, max_sweeps)
    rounds = np.repeat(np.arange(stats.rounds), stats.occupancy)
    return dict(zip(zip(sweeps.tolist(), steps.tolist()), rounds.tolist()))


class TestSchedule:
    def test_all_tasks_scheduled_once(self):
        n, b = 30, 3
        sweeps, steps, stats = pipeline_schedule(n, b)
        total = sum(num_tasks_in_sweep(n, b, i) for i in range(n - 2))
        assert sum(stats.occupancy) == sweeps.size == total == stats.total_tasks
        assert len(set(zip(sweeps.tolist(), steps.tolist()))) == total

    def test_gcom_rule_never_violated(self):
        # Sweep i's task t must come after sweep i-1's task t + SAFETY - 1.
        finished = _task_rounds(40, 4)
        for (sweep, step), r in finished.items():
            dep = (sweep - 1, step + SAFETY_TASKS - 1)
            if dep in finished:
                assert finished[dep] < r, f"dependency violated at {(sweep, step)}"

    def test_same_sweep_tasks_in_order(self):
        pos = _task_rounds(30, 3)
        for (sweep, step), r in pos.items():
            if (sweep, step + 1) in pos:
                assert pos[(sweep, step + 1)] > r

    def test_max_sweeps_respected(self):
        sweeps, _, stats = pipeline_schedule(40, 3, max_sweeps=2)
        bounds = np.cumsum(stats.occupancy)[:-1]
        for tasks in np.split(sweeps, bounds):
            assert np.unique(tasks).size <= 2
        assert stats.max_parallel <= 2

    def test_serial_mode_one_task_per_round(self):
        _, _, stats = pipeline_schedule(25, 3, max_sweeps=1)
        assert all(occ == 1 for occ in stats.occupancy)
        assert stats.mean_parallel == 1.0

    def test_more_sweeps_fewer_rounds(self):
        s1 = pipeline_schedule(50, 4, max_sweeps=1)[2]
        s4 = pipeline_schedule(50, 4, max_sweeps=4)[2]
        sinf = pipeline_schedule(50, 4)[2]
        assert s1.rounds > s4.rounds >= sinf.rounds

    def test_stalls_appear_when_capped(self):
        s_capped = pipeline_schedule(60, 3, max_sweeps=2)[2]
        s_free = pipeline_schedule(60, 3)[2]
        assert s_capped.stall_rounds > 0
        assert s_free.stall_rounds == 0
        assert s_free.rounds <= s_capped.rounds

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            pipeline_schedule(20, 3, max_sweeps=0)
        with pytest.raises(ValueError):
            sweep_starts(20, 3, safety=0)

    def test_unbounded_rounds_near_3n(self):
        # Law 1+2 bound: fully pipelined completion in ~3n rounds.
        n = 60
        _, _, stats = pipeline_schedule(n, 4)
        assert stats.rounds <= 3 * n
        assert stats.rounds >= n  # it cannot beat one sweep's own depth

    def test_starts_are_the_recurrence(self):
        n, b, S = 64, 4, 3
        starts, ntasks = sweep_starts(n, b, S)
        assert ntasks.tolist() == [num_tasks_in_sweep(n, b, i) for i in range(n - 2)]
        for i in range(1, starts.size):
            expect = starts[i - 1] + min(SAFETY_TASKS, ntasks[i - 1])
            if i >= S:
                expect = max(expect, starts[i - S] + ntasks[i - S])
            assert starts[i] == expect

    def test_trivial_schedule_is_empty(self):
        for n, b in [(2, 4), (30, 1)]:
            sweeps, steps, stats = pipeline_schedule(n, b)
            assert sweeps.size == steps.size == stats.rounds == 0


class TestPipelinedNumerics:
    @pytest.mark.parametrize("S", [None, 1, 2, 7, 100])
    def test_matches_sequential(self, rng, S):
        B = random_symmetric_band(32, 4, rng)
        seq = bulge_chase(B, 4)
        pip, _ = chase_in_schedule(B, 4, max_sweeps=S)
        assert np.array_equal(seq.d, pip.d)
        assert np.array_equal(seq.e, pip.e)
        assert len(seq.reflectors) == len(pip.reflectors)

    def test_q1_valid_in_pipeline_order(self, rng):
        from repro.band.storage import dense_from_band

        B = random_symmetric_band(28, 3, rng)
        pip, _ = chase_in_schedule(B, 3, max_sweeps=4)
        T = dense_from_band(pip.d, pip.e)
        Q1 = pip.q1()
        assert np.linalg.norm(Q1 @ T @ Q1.T - B) / np.linalg.norm(B) < 1e-12

    def test_stats_returned_for_trivial_input(self, rng):
        B = random_symmetric_band(10, 1, rng)
        res, stats = chase_in_schedule(B, 1)
        assert stats.total_tasks == 0
        assert res.d.size == 10
