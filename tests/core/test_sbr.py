"""Single-blocking successive band reduction: SBR is DBBR with ``k = b``.

These are the ``k = b`` cases of :func:`repro.core.dbbr.dbbr`, the
configuration the ``sbr`` method and the ``magma`` preset run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.band.ops import bandwidth_of, off_band_norm, symmetric_error
from repro.core.dbbr import dbbr
from tests.conftest import make_symmetric


class TestSBRStructure:
    @pytest.mark.parametrize("n,b", [(20, 2), (32, 4), (45, 5), (64, 8), (30, 1)])
    def test_band_structure(self, n, b):
        A = make_symmetric(n, seed=n * 7 + b)
        res = dbbr(A, b, b)
        assert bandwidth_of(res.band, tol=1e-10) <= b
        assert off_band_norm(res.band, b) == 0.0  # scrubbed exactly

    def test_band_is_symmetric(self):
        A = make_symmetric(40, seed=3)
        res = dbbr(A, 4, 4)
        assert symmetric_error(res.band) < 1e-12

    def test_bandwidth_one_is_tridiagonal(self):
        A = make_symmetric(25, seed=9)
        res = dbbr(A, 1, 1)
        assert bandwidth_of(res.band, tol=1e-10) <= 1

    def test_small_matrix_noop(self):
        A = make_symmetric(3, seed=1)
        res = dbbr(A, 4, 4)
        # n <= b+1: already "band", no blocks recorded.
        assert len(res.blocks) == 0
        assert np.allclose(res.band, A)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            dbbr(make_symmetric(10), 0, 0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            dbbr(np.zeros((4, 5)), 2, 2)

    def test_input_not_modified(self):
        A = make_symmetric(20, seed=5)
        A0 = A.copy()
        dbbr(A, 3, 3)
        assert np.array_equal(A, A0)


class TestSBRCorrectness:
    @pytest.mark.parametrize("n,b", [(24, 3), (40, 4), (33, 5), (50, 7)])
    def test_similarity_transform(self, n, b):
        A = make_symmetric(n, seed=n + b)
        res = dbbr(A, b, b)
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err < 1e-13

    def test_q_orthogonal(self):
        A = make_symmetric(36, seed=11)
        res = dbbr(A, 4, 4)
        Q = res.q()
        assert np.linalg.norm(Q.T @ Q - np.eye(36)) < 1e-13

    def test_spectrum_preserved(self):
        A = make_symmetric(30, seed=13)
        res = dbbr(A, 3, 3)
        lam_a = np.linalg.eigvalsh(A)
        lam_b = np.linalg.eigvalsh(res.band)
        assert np.max(np.abs(lam_a - lam_b)) < 1e-11

    def test_short_final_panel(self):
        # n - b - 1 not divisible by b: the strip left-update path.
        A = make_symmetric(23, seed=17)
        res = dbbr(A, 3, 3)  # nelim = 19, panels 3+3+...+1
        err = np.linalg.norm(res.reconstruct() - A) / np.linalg.norm(A)
        assert err < 1e-13

    def test_blocks_have_increasing_offsets(self):
        A = make_symmetric(40, seed=19)
        res = dbbr(A, 4, 4)
        offsets = [blk.offset for blk in res.blocks]
        assert offsets == sorted(offsets)
        assert all(o >= 4 for o in offsets)

    def test_flops_accumulated(self):
        A = make_symmetric(32, seed=21)
        res = dbbr(A, 4, 4)
        # Dominated by 4/3 n^3; must be within a small factor.
        assert 0.3 * (4 / 3) * 32**3 < res.flops < 5 * (4 / 3) * 32**3

    def test_band_matrix_input_stays_band(self):
        from repro.band.ops import random_symmetric_band

        A = random_symmetric_band(30, 2)
        res = dbbr(A, 4, 4)  # already narrower than target
        assert np.allclose(res.band, A, atol=1e-12)


class TestSBRMethod:
    def test_sbr_method_and_magma_plan_run_dbbr_with_k_equal_b(self):
        import repro
        from repro.core.tridiag import tridiagonalize_planned

        A = make_symmetric(70, seed=23)
        plan = repro.plan_evd(70, "magma")
        b = plan.tridiag.bandwidth
        assert plan.tridiag.method == "sbr"
        assert plan.tridiag.second_block == b
        expect = dbbr(A, b, b).band
        tri = repro.tridiagonalize(A, method="sbr", bandwidth=b)
        assert np.array_equal(tri.band_result.band, expect)
        assert tri.back_transform_group == b
        planned = tridiagonalize_planned(A, plan)
        assert np.array_equal(planned.band_result.band, expect)
        # A user second_block is inert for SBR.
        plan = repro.plan_evd(64, "sbr", bandwidth=4, second_block=16)
        assert plan.tridiag.second_block == plan.tridiag.bandwidth == 4
