"""Unit tests for the end-to-end EVD driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evd import eigh
from repro.plan import PlanError
from repro.bench.workloads import (
    clustered_spectrum,
    geometric_spectrum,
    goe,
    symmetric_with_spectrum,
    uniform_spectrum,
)
from tests.conftest import make_symmetric


class TestEVDPresets:
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_eigenpairs(self, method):
        A = make_symmetric(60, seed=7)
        lam_ref = np.linalg.eigvalsh(A)
        res = eigh(A, method=method, bandwidth=4, second_block=8)
        assert np.max(np.abs(res.eigenvalues - lam_ref)) < 1e-11
        assert res.residual(A) < 1e-12
        V = res.eigenvectors
        assert np.linalg.norm(V.T @ V - np.eye(60)) < 1e-11

    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_eigenvalues_only(self, method):
        A = make_symmetric(50, seed=8)
        res = eigh(A, method=method, compute_vectors=False, bandwidth=3, second_block=6)
        assert res.eigenvectors is None
        assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(A))) < 1e-11
        with pytest.raises(ValueError):
            res.residual(A)

    @pytest.mark.parametrize("solver", ["dc"])
    def test_all_solvers(self, solver):
        A = make_symmetric(40, seed=9)
        res = eigh(A, bandwidth=3, second_block=6)
        assert res.residual(A) < 1e-10
        assert res.solver == solver

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            eigh(make_symmetric(10), solver="jacobi")

    def test_known_spectrum_recovered(self):
        lam = uniform_spectrum(48, -3.0, 5.0)
        A = symmetric_with_spectrum(lam, seed=10)
        res = eigh(A, bandwidth=4, second_block=8)
        assert np.max(np.abs(res.eigenvalues - lam)) < 1e-11

    def test_eigenvalues_ascending(self):
        A = make_symmetric(30, seed=11)
        res = eigh(A)
        assert np.all(np.diff(res.eigenvalues) >= -1e-14)

    @pytest.mark.parametrize("method", ["dbbr", "sbr", "direct"])
    def test_raw_method_rejected(self, method):
        # The raw tridiagonalization methods are tridiagonalize()'s; eigh
        # takes the four presets.
        with pytest.raises(PlanError, match="proposed"):
            eigh(make_symmetric(30, seed=12), method=method)

    def test_unbounded_sbr_is_magma_without_its_sweep_cap(self):
        A = make_symmetric(30, seed=12)
        res = eigh(A, method="magma", bandwidth=3, max_sweeps=None)
        assert res.tridiag.method == "sbr"
        assert res.tridiag.pipeline_stats.max_parallel > 1

    def test_identity_matrix(self):
        A = np.eye(20)
        res = eigh(A)
        assert np.allclose(res.eigenvalues, 1.0)
        assert res.residual(A) < 1e-13

    def test_rank_one_matrix(self):
        v = np.arange(1.0, 13.0)
        A = np.outer(v, v)
        res = eigh(A, bandwidth=2, second_block=4)
        lam = res.eigenvalues
        assert abs(lam[-1] - float(v @ v)) < 1e-9
        assert np.max(np.abs(lam[:-1])) < 1e-9


class TestValuesOnlyNarrowBand:
    """fp64 eigenvalues-only ``proposed`` solves chase a b=16 band; their
    eigenvalues stay within the 200·n·eps·‖A‖ verification tolerance."""

    @pytest.mark.parametrize("n", [304, 512])
    @pytest.mark.parametrize("kind", ["goe", "clustered", "graded"])
    def test_eigenvalues_match_lapack(self, kind, n):
        if kind == "goe":
            A = goe(n, seed=n)
        elif kind == "clustered":
            A = symmetric_with_spectrum(
                clustered_spectrum(n, clusters=8, spread=1e-9, seed=n), seed=n
            )
        else:
            A = symmetric_with_spectrum(geometric_spectrum(n, cond=1e8), seed=n)
        res = eigh(A, compute_vectors=False)
        assert res.tridiag.bandwidth == 16
        lam_ref = np.linalg.eigvalsh(A)
        tol = 200 * n * np.finfo(np.float64).eps * np.max(np.abs(lam_ref))
        assert np.max(np.abs(res.eigenvalues - lam_ref)) <= tol


class TestPresetsRunTheOneEngine:
    """``magma`` chases on the wavefront engine with one sweep in flight,
    and stays within the 200·n·eps·‖A‖ tolerance."""

    B = 8

    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B + 1, 64, 200])
    @pytest.mark.parametrize("method", ["magma"])
    @pytest.mark.parametrize(
        "precision,vectors",
        [("fp64", True), ("fp64", False), ("mixed", True)],
    )
    def test_one_sweep_in_flight(self, method, n, precision, vectors):
        from repro.core.bulge_chasing import BulgeChasingResult
        from repro.resilience import verify_evd

        A = goe(n, seed=n)
        res = eigh(
            A, method=method, bandwidth=self.B, compute_vectors=vectors,
            precision=precision,
        )
        assert isinstance(res.tridiag.bc_result, BulgeChasingResult)
        stats = res.tridiag.pipeline_stats
        # n <= 3 clamps the band to b=1: already tridiagonal, no tasks.
        assert stats is not None and stats.max_parallel == min(1, stats.total_tasks)
        assert (stats.total_tasks > 0) == (n > 3)
        assert (res.eigenvectors is not None) == vectors
        lam_ref = np.linalg.eigvalsh(A)
        tol = 200 * n * np.finfo(np.float64).eps * np.max(np.abs(lam_ref))
        assert np.max(np.abs(res.eigenvalues - lam_ref)) <= tol
        assert verify_evd(A, res).ok


class TestCusolverBlockedBackTransform:
    """``cusolver`` applies its sytrd panels through the grouped WY apply
    and stays within the 200·n·eps·‖A‖ tolerance across panel edges."""

    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 64, 65, 200])
    @pytest.mark.parametrize(
        "precision,vectors",
        [("fp64", True), ("fp64", False), ("mixed", True)],
    )
    def test_eigenpairs(self, n, precision, vectors):
        from repro.plan import auto_params
        from repro.resilience import verify_evd

        A = goe(n, seed=n)
        res = eigh(A, method="cusolver", compute_vectors=vectors, precision=precision)
        tri = res.tridiag
        assert tri.direct_result is not None and tri.bc_result is None
        assert tri.back_transform_group == auto_params(n)[1]
        assert len(tri.direct_result.blocks) == -(-max(n - 2, 0) // 32)
        assert (res.eigenvectors is not None) == vectors
        lam_ref = np.linalg.eigvalsh(A)
        tol = 200 * n * np.finfo(np.float64).eps * np.max(np.abs(lam_ref))
        assert np.max(np.abs(res.eigenvalues - lam_ref)) <= tol
        assert verify_evd(A, res).ok


class TestSecularModePlumbing:
    """`eigh` runs the one secular engine; the scalar per-root loops are
    a tests-side `dc_eigh` oracle only."""

    def test_modes_agree_end_to_end(self, rng):
        from repro.core.evd import EVDResult
        from tests.oracles import dc_eigh_scalar

        A = make_symmetric(200, seed=11)  # above the 128 leaf size: merges
        rb = eigh(A)
        tri = rb.tridiag
        lam_s, U_s = dc_eigh_scalar(tri.d, tri.e)
        tri.apply_q(U_s)
        rs = EVDResult(eigenvalues=lam_s, eigenvectors=U_s, tridiag=tri, solver="dc")
        scale = max(float(np.max(np.abs(rs.eigenvalues))), 1.0)
        assert np.max(np.abs(rb.eigenvalues - rs.eigenvalues)) < 1e-13 * scale
        assert rb.residual(A) < 1e-12 and rs.residual(A) < 1e-12

    def test_dc_substage_times_recorded(self, rng):
        from repro.backend.context import ExecutionContext

        ctx = ExecutionContext()
        A = make_symmetric(160, seed=3)  # above the 128 leaf size: merges
        eigh(A, backend=ctx)
        assert {"dc_deflate", "dc_secular", "dc_gemm"} <= set(ctx.stage_times)
        # The sub-stages nest inside the solver stage, so they cannot
        # exceed it.
        sub = sum(
            ctx.stage_times[k]
            for k in ("dc_leaf", "dc_deflate", "dc_secular", "dc_gemm")
            if k in ctx.stage_times
        )
        assert sub <= ctx.stage_times["tridiag_solver"] + 1e-9

    @pytest.mark.parametrize("method", ["proposed", "cusolver"])
    def test_back_transform_substage_times_recorded(self, method):
        from repro.backend.context import ExecutionContext

        events = []
        ctx = ExecutionContext(hooks=[lambda ev: events.append((ev.stage, ev.phase))])
        eigh(make_symmetric(160, seed=3), method=method, backend=ctx)
        # Q1 (bc_back) exists only after a chase; Q_sbr (sbr_back) applies
        # the reduction's panels, the direct method's whole Q.
        subs = ("bc_back", "sbr_back") if method == "proposed" else ("sbr_back",)
        assert set(subs) <= set(ctx.stage_times)
        # They nest inside back_transform, so they cannot exceed it.
        assert sum(ctx.stage_times[k] for k in subs) <= ctx.stage_times["back_transform"]
        inner = events[events.index(("back_transform", "start")) + 1 :
                       events.index(("back_transform", "end"))]
        assert inner == [(k, phase) for k in subs for phase in ("start", "end")]

    def test_apply_q_transpose_emits_substages_in_reverse(self):
        from repro.backend.context import ExecutionContext

        events = []
        ctx = ExecutionContext(hooks=[lambda ev: events.append((ev.stage, ev.phase))])
        tri = eigh(make_symmetric(64, seed=4), backend=ctx).tridiag
        events.clear()
        tri.apply_q_transpose(np.eye(64))
        assert events == [("sbr_back", "start"), ("sbr_back", "end"),
                          ("bc_back", "start"), ("bc_back", "end")]

    def test_unknown_mode_rejected(self, rng):
        # secular_mode is no longer a plan knob: any value is rejected at
        # the entry point as an unknown knob.
        from repro.plan import PlanError

        with pytest.raises(PlanError, match="secular_mode"):
            eigh(make_symmetric(16, seed=1), secular_mode="turbo")


class TestEigenvectorLayout:
    """Eigenvectors come back C-ordered: the D&C returns a row-major
    ``U`` and the back transform updates it in place."""

    @pytest.mark.parametrize("precision", ["fp64", "mixed"])
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_c_contiguous_for_either_root_sign(self, method, precision):
        from repro.plan import execute_plan, plan_evd

        n = 300  # above the 128 leaf size: the D&C root is a merge
        plan = plan_evd(n, method, precision=precision)
        signs = set()
        for seed in range(12):
            res = execute_plan(goe(n, seed), plan)
            assert res.eigenvectors.flags.c_contiguous
            # The root merge's coupling; rho < 0 merges the reversed problem.
            signs.add(bool(res.tridiag.e[n // 2 - 1] < 0))
            if len(signs) == 2:
                break
        assert signs == {False, True}
        assert eigh(goe(n, 0), method=method, precision=precision).eigenvectors.flags.c_contiguous


class TestTinyScale:
    """Inputs whose squares underflow keep their spectrum: every two-stage
    preset and the cusolver path scale their reflectors like dlarfg."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_eigenvalues_match_unit_scale(self, method, scale):
        n = 64
        A = goe(n, seed=0)
        lam = np.linalg.eigvalsh(A)
        res = eigh(A * scale, method=method, compute_vectors=False)
        tol = 200 * n * np.finfo(float).eps * np.abs(lam).max()
        assert np.max(np.abs(res.eigenvalues / scale - lam)) <= tol
