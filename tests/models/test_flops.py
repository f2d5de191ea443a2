"""Unit tests: analytical flop counts vs the exact counters the numeric
kernels accumulate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bulge_chasing import bulge_chase
from repro.core.dbbr import dbbr
from repro.band.ops import random_symmetric_band
from repro.models import flops as F
from tests.conftest import make_symmetric


class TestFormulas:
    def test_tridiag_convention(self):
        assert F.tridiag_flops(300) == pytest.approx(4 / 3 * 300**3)

    def test_syr2k(self):
        assert F.syr2k_flops(64, 16) == 2 * 64 * 64 * 16

    def test_dbbr_exceeds_sbr(self):
        assert F.dbbr_flops(1000, 32, 512) > F.sbr_flops(1000, 32)

    def test_bc_task_count_quadratic(self):
        c1 = F.bc_task_count(1000, 8)
        c2 = F.bc_task_count(2000, 8)
        assert 3.5 < c2 / c1 < 4.5

    def test_bc_task_count_trivial(self):
        assert F.bc_task_count(100, 1) == 0.0
        assert F.bc_task_count(2, 4) == 0.0

    def test_stedc_vector_vs_novec(self):
        # Vector path is O(n^3) vs O(n^2 log n): ratio ~ n / (22 log n).
        assert F.stedc_flops(4096, True) > 10 * F.stedc_flops(4096, False)
        assert F.stedc_flops(49152, True) > 100 * F.stedc_flops(49152, False)

    def test_evd_budget_includes_back_transforms(self):
        with_v = F.evd_flops(2048, 32, True)
        without = F.evd_flops(2048, 32, False)
        assert with_v > without + 2 * 2048**3  # two ~2n^3 back transforms


class TestAgainstImplementationCounters:
    def test_sbr_counter_close_to_formula(self):
        n, b = 96, 8
        res = dbbr(make_symmetric(n, seed=1), b, b)
        assert res.flops == pytest.approx(F.sbr_flops(n, b), rel=0.6)

    def test_dbbr_counter_close_to_formula(self):
        n, b, k = 96, 8, 32
        res = dbbr(make_symmetric(n, seed=2), b, k)
        assert res.flops == pytest.approx(F.dbbr_flops(n, b, k), rel=0.7)

    def test_bc_counter_close_to_formula(self, rng):
        n, b = 80, 6
        res = bulge_chase(random_symmetric_band(n, b, rng), b)
        assert res.flops == pytest.approx(F.bulge_chasing_flops(n, b), rel=0.7)

    def test_bc_task_count_exact(self, rng):
        from repro.core.bulge_chasing import num_tasks_in_sweep

        for n, b in [(50, 4), (33, 7)]:
            expect = sum(num_tasks_in_sweep(n, b, i) for i in range(n - 2))
            assert F.bc_task_count(n, b) == expect
