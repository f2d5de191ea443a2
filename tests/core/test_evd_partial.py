"""Unit tests for the partial-spectrum EVD path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.workloads import (
    clustered_spectrum,
    goe,
    symmetric_with_spectrum,
    uniform_spectrum,
)
from repro.band.storage import dense_from_band
from repro.core.evd import eigh_partial
from repro.resilience import default_tolerances, verify_evd
from tests.conftest import glued_wilkinson

_EPS = np.finfo(np.float64).eps


class TestPartialSpectrum:
    def test_interior_window(self):
        A = goe(70, seed=50)
        lam_ref = np.linalg.eigvalsh(A)
        res = eigh_partial(A, (10, 19), bandwidth=4, second_block=8)
        assert res.eigenvalues.shape == (10,)
        assert np.max(np.abs(res.eigenvalues - lam_ref[10:20])) < 1e-10
        V = res.eigenvectors
        assert V.shape == (70, 10)
        assert np.linalg.norm(A @ V - V * res.eigenvalues) / np.linalg.norm(A) < 1e-9
        assert np.linalg.norm(V.T @ V - np.eye(10)) < 1e-8

    def test_extremal_eigenpairs(self):
        A = goe(50, seed=51)
        lam_ref = np.linalg.eigvalsh(A)
        low = eigh_partial(A, (0, 0), bandwidth=3, second_block=6)
        high = eigh_partial(A, (49, 49), bandwidth=3, second_block=6)
        assert abs(low.eigenvalues[0] - lam_ref[0]) < 1e-10
        assert abs(high.eigenvalues[0] - lam_ref[-1]) < 1e-10

    def test_full_window_matches_eigh(self):
        A = goe(40, seed=52)
        res = eigh_partial(A, (0, 39), bandwidth=3, second_block=6)
        assert np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(A))) < 1e-10

    def test_eigenvalues_only(self):
        A = goe(30, seed=53)
        res = eigh_partial(A, (3, 7), compute_vectors=False)
        assert res.eigenvectors is None
        assert res.eigenvalues.shape == (5,)

    def test_known_spectrum(self):
        lam = uniform_spectrum(60, 0.0, 10.0)
        A = symmetric_with_spectrum(lam, seed=54)
        res = eigh_partial(A, (25, 34), bandwidth=4, second_block=8)
        assert np.max(np.abs(res.eigenvalues - lam[25:35])) < 1e-10

    def test_clustered_window_orthogonalized(self):
        lam = np.sort(np.concatenate([np.full(5, 1.0) + 1e-10 * np.arange(5),
                                      np.linspace(2, 3, 25)]))
        A = symmetric_with_spectrum(lam, seed=55)
        res = eigh_partial(A, (0, 4), bandwidth=3, second_block=6)
        V = res.eigenvectors
        assert np.linalg.norm(V.T @ V - np.eye(5)) < 1e-7

    @pytest.mark.parametrize("method", ["proposed", "magma", "cusolver"])
    def test_all_presets(self, method):
        A = goe(36, seed=56)
        lam_ref = np.linalg.eigvalsh(A)
        res = eigh_partial(A, (0, 4), method=method, bandwidth=3, second_block=6)
        assert np.max(np.abs(res.eigenvalues - lam_ref[:5])) < 1e-10

    def test_out_of_range_rejected(self):
        A = goe(10, seed=57)
        with pytest.raises(ValueError):
            eigh_partial(A, (5, 12))
        with pytest.raises(ValueError):
            eigh_partial(A, (-1, 3))
        with pytest.raises(ValueError):
            eigh_partial(A, (7, 3))


def windows(n: int) -> list[tuple[int, int]]:
    """Single-index, lowest, highest and full windows."""
    m = min(5, n)
    return sorted({(n // 2, n // 2), (0, m - 1), (n - m, n - 1), (0, n - 1)})


def assert_matches_lapack(A: np.ndarray, lo: int, hi: int) -> None:
    """``eigh_partial`` against ``numpy.linalg.eigh``: eigenvalues within
    ``200 n eps ||A||``, the eigenpairs within the ``verify_evd`` residual
    and orthogonality bounds of the ``n x n`` problem."""
    n = A.shape[0]
    ref = np.linalg.eigh(A)[0]
    norm = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    res = eigh_partial(A, (lo, hi))
    assert np.max(np.abs(res.eigenvalues - ref[lo : hi + 1])) <= 200 * n * _EPS * norm
    # verify_evd scales A and the spectrum by a power of two first, so the
    # measures hold near the ends of the exponent range.
    report = verify_evd(A, res)
    assert report.ok, report.failures
    assert (report.n, report.tol_residual, report.tol_orth) == (n, *default_tolerances(n))


class TestVerifyPartial:
    """``verify_evd`` holds a window to the ``n x n`` problem's residual
    and orthogonality tolerances; only a whole spectrum has the trace."""

    @pytest.mark.parametrize("window", [(0, 0), (10, 19), (60, 69), (0, 68)])
    def test_healthy_window_passes(self, window):
        A = goe(70, seed=58)
        report = verify_evd(A, eigh_partial(A, window))
        assert report.ok, report.failures
        assert report.n == 70
        assert report.tol_residual == default_tolerances(70)[0]
        assert "trace" not in report.checks and report.trace_error is None
        assert {"residual", "orthogonality"} <= set(report.checks)

    def test_corrupted_column_fails(self):
        A = goe(70, seed=59)
        res = eigh_partial(A, (10, 19))
        res.eigenvectors[:, 3] = res.eigenvectors[:, 4]
        report = verify_evd(A, res)
        assert not report.ok
        assert report.failures == ["orthogonality", "residual"]

    def test_window_is_recorded_and_checked(self, tmp_path):
        from repro.core import load_evd, save_evd

        A = goe(70, seed=61)
        res = eigh_partial(A, (10, 19))
        assert res.window == (10, 19)
        save_evd(tmp_path / "w.npz", res, A=A)
        back, _ = load_evd(tmp_path / "w.npz")
        assert back.window == (10, 19) and verify_evd(A, back).ok
        # A window that lost an eigenpair fails the count check.
        res.eigenvalues, res.eigenvectors = res.eigenvalues[:-1], res.eigenvectors[:, :-1]
        assert verify_evd(A, res).failures == ["count"]

    def test_full_result_keeps_the_trace_check(self):
        A = goe(40, seed=60)
        report = verify_evd(A, eigh_partial(A, (0, 39)))
        assert report.ok and report.checks["trace"]
        assert report.trace_error is not None


class TestPartialMatchesLapack:
    """Every case ``numpy.linalg.eigh`` solves, ``eigh_partial`` solves to
    the same accuracy: badly scaled, clustered, split and tiny inputs."""

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-20, 1e-8, 1.0, 1e150])
    def test_scales(self, scale):
        A = goe(100, seed=1) * scale
        for lo, hi in windows(100):
            assert_matches_lapack(A, lo, hi)

    def test_clusters(self):
        lam = clustered_spectrum(96, clusters=8, spread=1e-9, seed=2)
        A = symmetric_with_spectrum(lam, seed=2)
        # Clusters hold 13 eigenvalues each: (26, 38) is the whole third.
        for lo, hi in windows(96) + [(26, 38)]:
            assert_matches_lapack(A, lo, hi)

    def test_glued_wilkinson(self):
        A = dense_from_band(*glued_wilkinson())
        for lo, hi in windows(A.shape[0]):
            assert_matches_lapack(A, lo, hi)

    def test_diagonal(self):
        # T = A splits into 1 x 1 blocks: the selected pairs come back in
        # block order and must be re-sorted.
        A = np.diag(np.random.default_rng(3).standard_normal(40))
        for lo, hi in windows(40):
            assert_matches_lapack(A, lo, hi)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny(self, n):
        A = goe(n, seed=n)
        for lo in range(n):
            for hi in range(lo, n):
                assert_matches_lapack(A, lo, hi)
