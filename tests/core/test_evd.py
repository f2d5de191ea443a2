"""Unit tests for the end-to-end EVD driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evd import eigh
from repro.bench.workloads import (
    clustered_spectrum,
    geometric_spectrum,
    goe,
    symmetric_with_spectrum,
    uniform_spectrum,
)
from tests.conftest import make_symmetric


class TestEVDPresets:
    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver", "plasma"])
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

    @pytest.mark.parametrize("solver", ["dc", "qr", "bisect"])
    def test_all_solvers(self, solver):
        A = make_symmetric(40, seed=9)
        res = eigh(A, solver=solver, bandwidth=3, second_block=6)
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

    def test_raw_method_passthrough(self):
        A = make_symmetric(30, seed=12)
        res = eigh(A, method="sbr", bandwidth=3)
        assert res.tridiag.method == "sbr"

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
    """``magma`` and ``plasma`` chase on the wavefront engine with one
    sweep in flight, and stay within the 200·n·eps·‖A‖ tolerance."""

    B = 8

    @pytest.mark.parametrize("n", [1, 2, 3, B - 1, B + 1, 64, 200])
    @pytest.mark.parametrize("method", ["magma", "plasma"])
    @pytest.mark.parametrize(
        "precision,vectors",
        [("fp64", True), ("fp64", False), ("mixed", True)],
    )
    def test_one_sweep_in_flight(self, method, n, precision, vectors):
        from repro.core.bc_wavefront import WavefrontBCResult
        from repro.resilience import verify_evd

        A = goe(n, seed=n)
        res = eigh(
            A, method=method, bandwidth=self.B, compute_vectors=vectors,
            precision=precision,
        )
        assert isinstance(res.tridiag.bc_result, WavefrontBCResult)
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
    """`eigh` runs the batched secular mode; the scalar per-root loops
    are a `dc_eigh` oracle only."""

    def test_modes_agree_end_to_end(self, rng):
        from repro.core.evd import EVDResult
        from repro.eig import dc_eigh

        A = make_symmetric(72, seed=11)
        rb = eigh(A)
        tri = rb.tridiag
        lam_s, U_s = dc_eigh(tri.d, tri.e, secular_mode="scalar")
        tri.apply_q(U_s)
        rs = EVDResult(eigenvalues=lam_s, eigenvectors=U_s, tridiag=tri, solver="dc")
        scale = max(float(np.max(np.abs(rs.eigenvalues))), 1.0)
        assert np.max(np.abs(rb.eigenvalues - rs.eigenvalues)) < 1e-13 * scale
        assert rb.residual(A) < 1e-12 and rs.residual(A) < 1e-12

    def test_dc_substage_times_recorded(self, rng):
        from repro.backend.context import ExecutionContext

        ctx = ExecutionContext()
        A = make_symmetric(64, seed=3)
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

    def test_unknown_mode_rejected(self, rng):
        # secular_mode is no longer a plan knob: any value is rejected at
        # the entry point as an unknown knob.
        from repro.plan import PlanError

        with pytest.raises(PlanError, match="secular_mode"):
            eigh(make_symmetric(16, seed=1), secular_mode="turbo")
