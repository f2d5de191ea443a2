"""Numerical-health verification: healthy results pass, poisoned results
are caught by the right check."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.backend import ExecutionContext
from repro.resilience import (
    VerificationError,
    default_tolerances,
    verify_evd,
    verify_tridiag,
)


def goe(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


class TestTolerances:
    def test_scale_with_n(self):
        tr32, to32 = default_tolerances(32)
        tr64, to64 = default_tolerances(64)
        assert tr64 == pytest.approx(2 * tr32)
        assert to64 == pytest.approx(2 * to32)

    def test_floor_at_n_one(self):
        assert default_tolerances(0) == default_tolerances(1)


class TestVerifyEVD:
    def test_healthy_pipeline_result_passes(self):
        A = goe(48, seed=1)
        res = repro.eigh(A)
        report = verify_evd(A, res)
        assert report.ok and report.failures == []
        assert report.residual is not None and report.residual < report.tol_residual
        assert report.orth_error is not None and report.orth_error < report.tol_orth
        assert report.raise_if_failed() is report

    def test_eigenvalues_only_checks_trace(self):
        A = goe(40, seed=2)
        res = repro.eigh(A, compute_vectors=False)
        report = verify_evd(A, res)
        assert report.ok
        assert report.residual is None and report.orth_error is None
        assert "trace" in report.checks and report.checks["trace"]

    def test_full_result_that_lost_an_eigenvalue_fails(self):
        # A full result (no window) must hold all n eigenvalues: a lost
        # entry is caught even where the trace would not notice it.
        A = goe(40, seed=2)
        res = repro.eigh(A, compute_vectors=False)
        res.eigenvalues = res.eigenvalues[:-1]
        report = verify_evd(A, res)
        assert not report.ok and report.failures == ["count"]
        vec = repro.eigh(A)
        vec.eigenvalues, vec.eigenvectors = vec.eigenvalues[1:], vec.eigenvectors[:, 1:]
        assert verify_evd(A, vec).failures == ["count"]

    def test_eigenvector_shape_must_match_the_count(self):
        A = goe(24, seed=3)
        res = repro.eigh(A)
        res.eigenvectors = res.eigenvectors[:, :-1]
        report = verify_evd(A, res)
        assert report.failures == ["count"] and report.residual is None

    def test_nan_payload_fails_finite_and_short_circuits(self):
        A = goe(24, seed=3)
        res = repro.eigh(A)
        V = res.eigenvectors.copy()
        V[3, 5] = np.nan
        res.eigenvectors = V
        report = verify_evd(A, res)
        assert not report.ok and report.failures == ["finite"]
        assert report.residual is None  # later checks skipped on NaN
        with pytest.raises(VerificationError) as info:
            report.raise_if_failed()
        assert info.value.report is report

    def test_unordered_eigenvalues_fail(self):
        A = goe(16, seed=4)
        res = repro.eigh(A)
        res.eigenvalues = np.ascontiguousarray(res.eigenvalues[::-1])
        res.eigenvectors = np.ascontiguousarray(res.eigenvectors[:, ::-1])
        report = verify_evd(A, res)
        assert "ordered" in report.failures

    def test_wrong_vectors_fail_residual_and_orthogonality(self):
        A = goe(24, seed=5)
        res = repro.eigh(A)
        V = res.eigenvectors.copy()
        V[:, 0] = V[:, 0] + 0.5
        res.eigenvectors = V
        report = verify_evd(A, res)
        assert not report.ok
        assert "residual" in report.failures
        assert "orthogonality" in report.failures

    def test_wrong_spectrum_fails_trace(self):
        A = goe(24, seed=6)
        res = repro.eigh(A, compute_vectors=False)
        res.eigenvalues = res.eigenvalues + 1.0
        report = verify_evd(A, res)
        assert "trace" in report.failures

    def test_explicit_tolerances_override_defaults(self):
        A = goe(24, seed=7)
        res = repro.eigh(A)
        strict = verify_evd(A, res, tol_residual=1e-30, tol_orth=1e-30)
        assert not strict.ok
        loose = verify_evd(A, res, tol_residual=1.0, tol_orth=1.0)
        assert loose.ok

    def test_emits_stage_event_through_context(self):
        A = goe(16, seed=8)
        res = repro.eigh(A)
        stages = []
        ctx = ExecutionContext(
            backend="numpy",
            hooks=[lambda ev: stages.append((ev.stage, ev.phase))],
        )
        verify_evd(A, res, ctx=ctx)
        assert ("verify_evd", "end") in stages

    def test_to_dict_round_trip_fields(self):
        A = goe(12, seed=9)
        report = verify_evd(A, repro.eigh(A))
        d = report.to_dict()
        assert d["kind"] == "evd" and d["n"] == 12 and d["ok"]
        assert set(d["checks"]) == {
            "count", "finite", "ordered", "trace", "residual", "orthogonality"
        }


class TestVerifyTridiag:
    def test_healthy_factorization_passes(self):
        A = goe(40, seed=10)
        tri = repro.tridiagonalize(A)
        report = verify_tridiag(A, tri)
        assert report.ok, report.failures
        assert report.kind == "tridiag"
        assert report.residual < report.tol_residual

    def test_corrupted_diagonal_fails(self):
        A = goe(32, seed=11)
        tri = repro.tridiagonalize(A)
        d = np.array(tri.d, copy=True)
        d[0] = np.nan
        tri.d = d
        assert verify_tridiag(A, tri).failures == ["finite"]

    def test_wrong_matrix_fails_residual(self):
        A = goe(32, seed=12)
        tri = repro.tridiagonalize(A)
        report = verify_tridiag(goe(32, seed=99), tri)
        assert "residual" in report.failures


class TestScaleSafety:
    """Outside dsyevd's [rmin, rmax] the Frobenius norms under- or
    overflow; both checks rescale by a power of two first, so a wrong
    result still fails and a correct one reports a real residual."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160])
    def test_lapack_result_checked_at_extreme_scale(self, scale):
        A = goe(64, seed=0) * scale
        lam, V = np.linalg.eigh(A)
        report = verify_evd(A, SimpleNamespace(eigenvalues=lam, eigenvectors=V))
        assert report.ok, report.failures
        assert 0.0 < report.residual <= report.tol_residual
        off = verify_evd(A, SimpleNamespace(eigenvalues=lam * 1.01, eigenvectors=V))
        assert "residual" in off.failures
        assert off.residual > 1e-3

    def test_pipeline_result_at_tiny_scale(self):
        A = goe(64, seed=0) * 1e-300
        report = verify_evd(A, repro.eigh(A))
        assert report.ok, report.failures
        assert report.residual > 0.0 and report.trace_error > 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tridiag_checked_at_tiny_scale(self, scale):
        A = goe(48, seed=3) * scale
        tri = repro.tridiagonalize(A)
        report = verify_tridiag(A, tri)
        assert report.ok, report.failures
        assert report.residual > 0.0
        tri.d = tri.d * 1.01
        assert "residual" in verify_tridiag(A, tri).failures

    def test_normal_range_report_unchanged(self):
        # Inside [rmin, rmax] nothing is rescaled: the measures are the
        # plain formulas.
        A = goe(32, seed=4) * 1e-100
        lam, V = np.linalg.eigh(A)
        report = verify_evd(A, SimpleNamespace(eigenvalues=lam, eigenvectors=V))
        norm = np.linalg.norm(A)
        assert report.residual == float(np.linalg.norm(A @ V - V * lam)) / float(norm)
        assert report.trace_error == float(abs(np.sum(lam) - np.trace(A))) / float(norm)
