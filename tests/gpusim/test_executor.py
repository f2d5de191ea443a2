"""Unit tests for the bulge-chasing pipeline executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bulge_chasing import num_tasks_in_sweep
from repro.gpusim.executor import simulate_bc_pipeline, tasks_per_sweep
from tests.conftest import SCHEDULE_GRID, round_by_round_schedule


class TestTasksPerSweep:
    def test_matches_task_generator(self):
        for n, b in [(30, 3), (50, 4), (20, 8), (100, 16)]:
            counts = tasks_per_sweep(n, b)
            expect = [num_tasks_in_sweep(n, b, i) for i in range(n - 2)]
            expect = [c for c in expect if c > 0]
            assert counts.tolist() == expect

    def test_trivial_cases(self):
        assert tasks_per_sweep(2, 4).size == 0
        assert tasks_per_sweep(100, 1).size == 0


class TestSimulation:
    def test_serial_time_is_total_tasks(self):
        res = simulate_bc_pipeline(50, 4, 1, task_time_s=1.0)
        assert res.total_time_s == pytest.approx(res.total_tasks)

    def test_unbounded_faster_than_serial(self):
        serial = simulate_bc_pipeline(200, 4, 1, 1.0)
        free = simulate_bc_pipeline(200, 4, None, 1.0)
        assert free.total_time_s < serial.total_time_s / 3

    def test_monotone_in_s(self):
        times = [
            simulate_bc_pipeline(80, 4, S, 1.0).total_time_s
            for S in [1, 2, 4, 8, 16, 1000]
        ]
        assert all(t1 >= t2 for t1, t2 in zip(times, times[1:]))

    def test_critical_path_bound(self):
        # Fully pipelined completion is bounded below by ~3n cycles (the
        # paper's "3n - 2 successive bulges") and by the longest sweep.
        n, b = 100, 4
        res = simulate_bc_pipeline(n, b, None, 1.0)
        longest = int(tasks_per_sweep(n, b)[0])
        assert res.total_time_s >= longest
        assert res.total_time_s <= 3.0 * n

    def test_matches_lockstep_scheduler(self):
        # At dt = 1 the simulated times are the lockstep rounds of the
        # independent round-by-round oracle, for every safety distance.
        for n, b, S in SCHEDULE_GRID:
            for safety in range(1, 6):
                rounds, stats = round_by_round_schedule(n, b, S, safety)
                sim = simulate_bc_pipeline(n, b, S, 1.0, safety_tasks=safety)
                case = (n, b, S, safety)
                assert sim.total_time_s == stats.rounds, case
                first, last = {}, {}
                for r, tasks in enumerate(rounds):
                    for t in tasks:
                        first.setdefault(t.sweep, r)
                        last[t.sweep] = r + 1
                assert sim.sweep_start.tolist() == list(first.values()), case
                assert sim.sweep_end.tolist() == list(last.values()), case

    def test_sweep_spans_ordered(self):
        res = simulate_bc_pipeline(60, 4, 8, 1.0)
        assert np.all(np.diff(res.sweep_start) >= 0)
        assert np.all(res.sweep_end > res.sweep_start)

    def test_throughput_accounting(self):
        res = simulate_bc_pipeline(60, 4, 8, 1e-6, bytes_per_task=1000.0)
        assert res.total_bytes == res.total_tasks * 1000.0
        assert res.throughput_gbs == pytest.approx(
            res.total_bytes / res.total_time_s / 1e9
        )

    def test_throughput_grows_with_parallelism(self):
        # The Figure 12 claim.
        th = [
            simulate_bc_pipeline(200, 4, S, 1e-6, bytes_per_task=1.0).throughput_gbs
            for S in [1, 4, 16, 64]
        ]
        assert th == sorted(th)

    def test_concurrency_profile(self):
        res = simulate_bc_pipeline(80, 4, 8, 1.0)
        ts, active = res.concurrency_profile(samples=64)
        assert active.max() <= 8 + 1  # sampling slack at boundaries
        assert active.max() >= 2

    def test_mean_parallel_bounded_by_s(self):
        res = simulate_bc_pipeline(100, 4, 6, 1.0)
        assert res.mean_parallel_sweeps <= 6.0 + 1e-9

    def test_empty_problem(self):
        res = simulate_bc_pipeline(2, 4, 4, 1.0)
        assert res.total_tasks == 0 and res.total_time_s == 0.0

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            simulate_bc_pipeline(20, 3, 0, 1.0)

    def test_paper_scale_runs_fast(self):
        # n = 65536, b = 32: hundreds of millions of tasks, vectorized.
        import time

        t0 = time.perf_counter()
        res = simulate_bc_pipeline(65536, 32, 128, 10e-6)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert res.total_tasks > 6e7
