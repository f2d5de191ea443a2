"""Panel QR factorization producing Householder factors for band reduction.

Both SBR and DBBR start every step by QR-factorizing a tall, skinny *panel*
(the red block in Figure 2 of the paper): ``QR(Panel) = (I - W Y^T) R``.
The reflectors annihilate everything below the top ``b x b`` triangle of the
panel, which is exactly what pushes the off-band entries of the symmetric
matrix to zero.

The production panel is :func:`_panel_wy`: one LAPACK ``?geqrt`` call on
the host, as MAGMA's ``sy2sb`` does.  It is bound with :mod:`ctypes` from
the OpenBLAS that NumPy itself links (ILP64 symbols ``scipy_dgeqrt_64_``
and ``scipy_sgeqrt_64_`` in NumPy's wheels), so the solve path imports no
scipy.  Only a NumPy built without that symbol falls back to
``scipy.linalg.lapack``'s ``?geqrt`` — the same routine — imported at
first use.

The routines below are the unblocked per-column loops (one
:func:`~repro.core.householder.make_householder` per column).  They are
the test oracle for :func:`_panel_wy` and return the factors in
whichever representation the caller wants:

* :func:`panel_qr` — raw reflectors ``(V, taus, R)``;
* :func:`panel_qr_wy` — paper-style ``(W, Y, R)`` with ``Q = I - W Y^T``;
* :func:`panel_qr_compact` — LAPACK-style ``(V, T, R)`` with
  ``Q = I - V T V^T``.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np

from .householder import accumulate_wy, larft, make_householder

__all__ = ["panel_qr", "panel_qr_wy", "panel_qr_compact", "explicit_q"]


#: ``geqrt(a, nb) -> T``: factor the F-ordered ``a`` in place (LAPACK
#: layout: ``R`` on and above the diagonal, the reflectors below it) and
#: return the ``nb x min(m, w)`` upper-triangular block factor ``T``.
Geqrt = Callable[[np.ndarray, int], np.ndarray]


def _numpy_geqrt(char: str) -> Geqrt | None:
    """``?geqrt`` from the OpenBLAS NumPy links, or ``None`` if absent.

    ``dlsym`` on the handle of NumPy's LAPACK extension also searches the
    libraries it depends on, so the lookup needs no file path.  Only the
    ILP64 ``scipy_?geqrt_64_`` symbol is used: its integer width is part
    of its name.
    """
    try:
        from numpy.linalg import _umath_linalg

        fn = getattr(ctypes.CDLL(_umath_linalg.__file__), f"scipy_{char}geqrt_64_")
    except (ImportError, OSError, AttributeError):
        return None
    i64 = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = [i64, i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p, i64,
                   ctypes.c_void_p, i64]
    fn.restype = None
    dtype = np.float32 if char == "s" else np.float64

    def geqrt(a: np.ndarray, nb: int) -> np.ndarray:
        if a.dtype != dtype or not a.flags.f_contiguous or a.ndim != 2:
            raise ValueError("geqrt needs an F-ordered 2-D array of its dtype")
        m, w = a.shape
        if not 1 <= nb <= min(m, w):
            raise ValueError(f"geqrt block {nb} outside [1, {min(m, w)}]")
        # LAPACK writes only T's upper triangle.
        t = np.zeros((nb, min(m, w)), dtype=dtype, order="F")
        work = np.empty(nb * w, dtype=dtype)
        info = ctypes.c_int64(0)
        c = ctypes.c_int64
        fn(c(m), c(w), c(nb), a.ctypes.data, c(max(1, m)), t.ctypes.data, c(nb),
           work.ctypes.data, info)
        if info.value != 0:
            raise RuntimeError(f"{char}geqrt failed: info={info.value}")
        return t

    return geqrt


def _scipy_geqrt(char: str) -> Geqrt:
    """``?geqrt`` through ``scipy.linalg.lapack`` (imported here, lazily)."""
    from scipy.linalg.lapack import get_lapack_funcs

    dtype = np.float32 if char == "s" else np.float64
    fn = get_lapack_funcs(("geqrt",), dtype=dtype)[0]

    def geqrt(a: np.ndarray, nb: int) -> np.ndarray:
        out, t, info = fn(nb, a, overwrite_a=1)
        if info != 0:
            raise RuntimeError(f"{char}geqrt failed: info={info}")
        a[...] = out
        return t

    return geqrt


@functools.cache
def _geqrt(dtype: np.dtype) -> Geqrt:
    """The ``?geqrt`` binding for ``dtype``: NumPy's OpenBLAS, else scipy."""
    char = "s" if dtype == np.float32 else "d"
    return _numpy_geqrt(char) or _scipy_geqrt(char)


def _panel_wy(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Host panel QR by LAPACK ``?geqrt``, as WY factors ``(W, Y, R)``.

    Factors the ``m x w`` ``panel`` with ``nb = min(m, w)`` (one block) and
    keeps the ``r = min(m - 1, w)`` reflectors that have a subdiagonal part
    (on a square tile ``?geqrt`` adds a trailing ``tau = 0``):
    ``Y = V[:, :r]`` with a unit diagonal and ``W = V[:, :r] T[:r, :r]``,
    so ``I - W Y^T = H_1 ... H_r``.  ``R`` is the ``min(m, w) x w``
    upper-trapezoidal top of the transformed panel, and
    ``panel == (I - W Y^T) [R; 0]``.  Same reflector convention as
    :func:`panel_qr_wy` (``beta = -sign(alpha) ||x||``, ``tau = 0`` for an
    annihilated column), so the two agree to roundoff — except on a
    column whose squared entries underflow, which ``dlarfg``'s scaled
    norm still annihilates and the oracle leaves as is.  float32 panels
    use ``sgeqrt``; anything else is factored in float64.  ``panel`` is
    not modified.
    """
    panel = np.asarray(panel)
    dt = panel.dtype if panel.dtype in (np.float32, np.float64) else np.dtype(np.float64)
    # LAPACK overwrites its input, so factor an F-ordered copy.
    a = np.array(panel, dtype=dt, order="F", copy=True)
    m, w = a.shape
    top = min(m, w)
    T = _geqrt(dt)(a, top)
    r = min(m - 1, w)
    # C order, as the WY blocks of the oracle and the back transform use;
    # only the top r x r block holds entries above the unit diagonal.
    Y = np.array(a[:, :r], order="C")
    Y[:r] = np.tril(Y[:r], -1)
    Y[np.arange(r), np.arange(r)] = 1.0
    return Y @ T[:r, :r], Y, np.triu(a[:top])


def panel_qr(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of an ``m x b`` panel (``m >= b``).

    Returns ``(V, taus, R)`` where ``V`` is ``m x b`` unit-lower-trapezoidal
    (``V[j, j] == 1``, zeros above), ``taus`` has length ``b``, and ``R`` is
    the ``b x b`` upper-triangular factor, such that

        H_b ... H_2 H_1 @ panel = [R; 0],   H_j = I - tau_j v_j v_j^T.

    Equivalently ``panel = (I - W Y^T) [R; 0]`` with ``(W, Y)`` from
    :func:`repro.core.householder.accumulate_wy`.
    """
    panel = np.asarray(panel)
    # Preserve a float32/float64 working precision; anything else (int
    # test inputs, lists) is promoted to the historical float64.
    dt = panel.dtype if panel.dtype in (np.float32, np.float64) else np.float64
    A = np.array(panel, dtype=dt, copy=True)
    m, b = A.shape
    if m < b:
        raise ValueError(f"panel must be tall: got {m} x {b}")
    V = np.zeros((m, b), dtype=dt)
    taus = np.zeros(b, dtype=dt)
    for j in range(b):
        v, tau, beta = make_householder(A[j:, j])
        V[j:, j] = v
        taus[j] = tau
        A[j, j] = beta
        A[j + 1 :, j] = 0.0
        if tau != 0.0 and j + 1 < b:
            # Apply H_j to the remaining columns of the panel.
            C = A[j:, j + 1 :]
            w = tau * (v @ C)
            C -= np.outer(v, w)
    R = np.triu(A[:b, :])
    return V, taus, R


def panel_qr_wy(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel QR returning the paper's WY factors ``(W, Y, R)``.

    ``panel == (I - W Y^T) @ vstack([R, 0])`` and ``I - W Y^T`` is orthogonal.
    """
    V, taus, R = panel_qr(panel)
    W, Y = accumulate_wy(V, taus)
    return W, Y, R


def panel_qr_compact(panel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel QR returning compact-WY factors ``(V, T, R)``.

    ``Q = I - V T V^T``; note ``W = V @ T`` recovers the plain WY form.
    """
    V, taus, R = panel_qr(panel)
    T = larft(V, taus)
    return V, T, R


def explicit_q(V: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Materialize the full ``m x m`` orthogonal ``Q = H_1 H_2 ... H_b``.

    Applies reflectors in reverse to the identity (LAPACK ``orgqr``-style);
    intended for tests and small problems.
    """
    m, b = V.shape
    Q = np.eye(m, dtype=V.dtype if V.dtype in (np.float32, np.float64) else None)
    for j in range(b - 1, -1, -1):
        tau = float(taus[j])
        if tau == 0.0:
            continue
        v = V[j:, j]
        C = Q[j:, :]
        w = tau * (v @ C)
        C -= np.outer(v, w)
    return Q
