"""LAPACK's own bulge chase as an independent oracle for the wavefront engine.

``dsytrd_sb2st`` is LAPACK's second stage (band to tridiagonal), the
routine ``dsyevd_2stage`` runs after ``dsytrd_sy2sb``.  It is bound with
:mod:`ctypes` from the OpenBLAS NumPy links, as
:func:`repro.backend.lapack.lapack_function` binds ``?geqrt``; the test is
skipped where NumPy's wheel lacks the symbol.  Its tridiagonal and the
engine's must have the same eigenvalues.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage
from repro.core.bc_wavefront import bulge_chase_wavefront


def _sytrd_sb2st():
    try:
        from numpy.linalg import _umath_linalg

        fn = ctypes.CDLL(_umath_linalg.__file__).scipy_dsytrd_sb2st_64_
    except (ImportError, OSError, AttributeError):
        pytest.skip("NumPy's LAPACK has no ILP64 dsytrd_sb2st")
    i64 = ctypes.POINTER(ctypes.c_int64)
    ptr = ctypes.c_void_p
    # STAGE1, VECT, UPLO, N, KD, AB, LDAB, D, E, HOUS, LHOUS, WORK, LWORK,
    # INFO, then the hidden lengths of the three character arguments.
    fn.argtypes = [ctypes.c_char_p] * 3 + [i64, i64, ptr, i64, ptr, ptr, ptr,
                                           i64, ptr, i64, i64] + [ctypes.c_size_t] * 3
    fn.restype = None
    return fn


def lapack_chase(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(d, e)`` of the lower band ``ab`` (``(kd+1) x n``) by
    ``dsytrd_sb2st('N', 'N', 'L')``."""
    fn = _sytrd_sb2st()
    kd1, n = ab.shape
    c = ctypes.c_int64
    a = np.array(ab, dtype=np.float64, order="F")  # LAPACK overwrites it
    d, e = np.empty(n), np.empty(max(n - 1, 1))
    info = c(0)

    def call(hous, lhous, work, lwork):
        fn(b"N", b"N", b"L", c(n), c(kd1 - 1), a.ctypes.data, c(kd1),
           d.ctypes.data, e.ctypes.data, hous.ctypes.data, c(lhous),
           work.ctypes.data, c(lwork), info, 1, 1, 1)
        assert info.value == 0, f"dsytrd_sb2st: info={info.value}"

    hq, wq = np.zeros(1), np.zeros(1)
    call(hq, -1, wq, -1)  # workspace query: sizes come back in hq, wq
    lhous, lwork = max(int(hq[0]), 1), max(int(wq[0]), 1)
    call(np.empty(lhous), lhous, np.empty(lwork), lwork)
    return d, e[: n - 1]


def _eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, -1) + np.diag(e, 1))


@pytest.mark.parametrize("max_sweeps", [None, 1])
@pytest.mark.parametrize("b", [2, 8, 16, 32])
@pytest.mark.parametrize("n", [3, "b+1", "2b+1", 150, 517])
def test_chase_spectrum_matches_lapack(n, b, max_sweeps):
    n = {"b+1": b + 1, "2b+1": 2 * b + 1}.get(n, n)
    b = min(b, n - 1)
    A = random_symmetric_band(n, b, np.random.default_rng(n * 64 + b))
    band = LowerBandStorage.from_dense(A, b)
    ours, _ = bulge_chase_wavefront(band, max_sweeps=max_sweeps)
    d, e = lapack_chase(band.ab)
    got, ref = _eigvals(ours.d, ours.e), _eigvals(d, e)
    tol = 200 * n * np.finfo(float).eps * np.linalg.norm(A)
    assert np.max(np.abs(got - ref)) <= tol
