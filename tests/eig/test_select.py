"""Unit tests for the LAPACK ``dstebz`` + ``dstein`` eigenpair selection
and the power-of-two scaling it shares with divide and conquer."""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.backend import lapack
from repro.band.storage import dense_from_band
from repro.eig import select as select_module
from repro.eig.dc import dc_eigh, scale_tridiagonal
from repro.eig.select import select_eigh
from repro.resilience import ConvergenceError, default_tolerances
from tests.conftest import glued_wilkinson

_EPS = np.finfo(np.float64).eps


def random_tridiagonal(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(max(n - 1, 0))


def assert_window(d: np.ndarray, e: np.ndarray, lo: int, hi: int) -> None:
    """``select_eigh`` against LAPACK ``eigh`` of the dense ``T``: the
    eigenvalues within ``200 n eps ||T||``, the pairs within the
    ``verify_evd`` residual and orthogonality bounds."""
    n = d.size
    T = dense_from_band(d, e)
    ref = np.linalg.eigvalsh(T)
    norm = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    lam, Z = select_eigh(d, e, lo, hi)
    assert lam.shape == (hi - lo + 1,) and Z.shape == (n, hi - lo + 1)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.max(np.abs(lam - ref[lo : hi + 1])) <= 200 * n * _EPS * norm
    tol_res, tol_orth = default_tolerances(n)
    assert np.linalg.norm(T @ Z - Z * lam) <= tol_res * np.linalg.norm(T)
    assert np.linalg.norm(Z.T @ Z - np.eye(hi - lo + 1)) <= tol_orth
    lam_only, none = select_eigh(d, e, lo, hi, compute_vectors=False)
    assert none is None
    np.testing.assert_array_equal(lam_only, lam)


class TestSelectEigh:
    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_every_window_shape(self, n):
        d, e = random_tridiagonal(n, seed=n)
        windows = {(0, n - 1), (0, 0), (n - 1, n - 1), (n // 2, n // 2),
                   (0, min(4, n - 1)), (max(n - 5, 0), n - 1)}
        for lo, hi in sorted(windows):
            assert_window(d, e, lo, hi)

    def test_glued_wilkinson_clusters(self):
        d, e = glued_wilkinson()
        n = d.size
        assert_window(d, e, 0, n - 1)
        assert_window(d, e, n - 8, n - 1)  # the two largest 4-clusters

    def test_split_blocks_are_resorted(self):
        # e = 0 splits T into 1 x 1 blocks: dstebz's ORDER='B' returns the
        # eigenvalues in block order, i.e. in the order of d.
        d = np.array([3.0, -1.0, 2.0, 0.0, 5.0, -4.0])
        e = np.zeros(5)
        lam, Z = select_eigh(d, e, 1, 4)
        np.testing.assert_array_equal(lam, np.sort(d)[1:5])
        np.testing.assert_array_equal(np.abs(Z), np.eye(6)[:, np.argsort(d)[1:5]])

    def test_partly_split_blocks(self):
        d, e = random_tridiagonal(40, seed=7)
        e[[9, 22, 23]] = 0.0
        assert_window(d, e, 0, 39)
        assert_window(d, e, 5, 30)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e300])
    def test_extreme_scales(self, scale):
        d, e = random_tridiagonal(60, seed=2)
        ref, _ = select_eigh(d, e, 0, 59)
        lam, Z = select_eigh(d * scale, e * scale, 0, 59)
        assert np.max(np.abs(lam / scale - ref)) <= 200 * 60 * _EPS * np.max(np.abs(ref))
        T = dense_from_band(d, e)
        assert np.linalg.norm(T @ Z - Z * (lam / scale)) <= 1e-12 * np.linalg.norm(T)

    def test_bad_arguments_rejected(self):
        d, e = random_tridiagonal(5)
        with pytest.raises(ValueError):
            select_eigh(d, e[:-1], 0, 2)
        for lo, hi in [(-1, 2), (3, 2), (0, 5)]:
            with pytest.raises(ValueError):
                select_eigh(d, e, lo, hi)

    def test_scipy_fallback_matches(self, monkeypatch):
        if lapack._numpy_symbol("dstebz", 20) is None:
            pytest.skip("this NumPy has no scipy_dstebz_64_: the fallback is the default")
        d, e = glued_wilkinson(copies=2)
        ref, _ = select_eigh(d, e, 3, 30)
        # A NumPy without the ILP64 symbols: the scipy LP64 capsules take over.
        monkeypatch.setattr(lapack, "_numpy_symbol", lambda name, nargs: None)
        lapack.lapack_function.cache_clear()
        try:
            assert lapack.lapack_function("dstein", 13)[1] is ctypes.c_int32
            lam, Z = select_eigh(d, e, 3, 30)
        finally:
            lapack.lapack_function.cache_clear()
        np.testing.assert_allclose(lam, ref, rtol=0, atol=1e-13)
        T = dense_from_band(d, e)
        assert np.linalg.norm(T @ Z - Z * lam) <= 1e-12 * np.linalg.norm(T)


def _failing(routine: str, set_failure):
    """A ``lapack_function`` whose ``routine`` runs, then reports failure."""
    real = lapack.lapack_function

    def lookup(name, nargs):
        fn, cint = real(name, nargs)
        if name != routine:
            return fn, cint

        def failing(*args):
            fn(*args)
            set_failure(args, cint)

        return failing, cint

    return lookup


class TestConvergenceErrors:
    def test_dstebz_info_is_typed(self, monkeypatch):
        def info_2(args, cint):
            args[17]._obj.value = 2  # INFO: not every eigenvalue found

        monkeypatch.setattr(select_module, "lapack_function", _failing("dstebz", info_2))
        d, e = random_tridiagonal(12)
        with pytest.raises(ConvergenceError, match="dstebz.*INFO=2") as info:
            select_eigh(d, e, 2, 5, compute_vectors=False)
        assert info.value.site == "dstebz"
        assert isinstance(info.value, np.linalg.LinAlgError)

    def test_dstein_ifail_is_typed(self, monkeypatch):
        def fail_column_2(args, cint):
            args[12]._obj.value = 1  # INFO: one eigenvector failed
            ifail = (cint * 4).from_address(args[11])
            ifail[0] = 2  # the second column, 1-based

        monkeypatch.setattr(select_module, "lapack_function", _failing("dstein", fail_column_2))
        d, e = random_tridiagonal(12)
        with pytest.raises(ConvergenceError, match="dstein.*INFO=1") as info:
            select_eigh(d, e, 2, 5)
        assert info.value.site == "dstein"
        assert info.value.indices == [3]  # eigenvalue 2 + column 1


class TestScaleTridiagonal:
    def test_brings_max_into_half_open_unit_interval_exactly(self):
        d, e = random_tridiagonal(30, seed=4)
        d, e = d * 1e300, e * 1e300
        ds, es, expo = scale_tridiagonal(d, e)
        amax = max(np.max(np.abs(ds)), np.max(np.abs(es)))
        assert 0.5 <= amax < 1.0
        np.testing.assert_array_equal(np.ldexp(ds, expo), d)
        np.testing.assert_array_equal(np.ldexp(es, expo), e)

    def test_zero_and_single_entry(self):
        ds, es, expo = scale_tridiagonal(np.zeros(3), np.zeros(2))
        assert expo == 0 and not ds.any() and not es.any()
        ds, es, expo = scale_tridiagonal(np.array([3.0]), np.zeros(0))
        assert ds[0] == 0.75 and expo == 2 and es.size == 0

    def test_both_solvers_agree_at_1e300(self):
        d, e = random_tridiagonal(150, seed=5)
        d, e = d * 1e300, e * 1e300
        lam_dc, _ = dc_eigh(d, e, compute_vectors=False)
        lam_sel, _ = select_eigh(d, e, 0, 149, compute_vectors=False)
        assert np.all(np.isfinite(lam_sel))
        assert np.max(np.abs(lam_dc - lam_sel)) <= 200 * 150 * _EPS * np.max(np.abs(lam_dc))
