"""Householder reflectors and their blocked (WY / compact-WY) accumulations.

Everything in the two-stage tridiagonalization pipeline is built from
Householder transformations.  This module provides the scalar reflector
(`make_householder`), the three application kernels (left, right, symmetric
two-sided), and the two standard block accumulations:

* the **WY representation** ``H_1 H_2 ... H_k = I - W Y^T`` used by the paper
  (Section 2.1), built with the forward recurrence
  ``W_{k+1} = [W_k | tau (v - W_k Y_k^T v)]``;
* the **compact WY representation** ``I - V T V^T`` (LAPACK ``larft``),
  related to the former by ``W = V T`` when ``Y = V``.

Conventions follow LAPACK: a reflector is ``H = I - tau v v^T`` with
``v[0] == 1`` and ``H x = [beta, 0, ..., 0]^T``; ``tau == 0`` encodes the
identity (already-annihilated columns, important for deflation-heavy
matrices).  All kernels operate in FP64 — and *assert* it rather than
coercing: dtype conversion happens exactly once, at the
``tridiagonalize``/``eigh`` entry points, so per-call ``asarray`` copies
never hide a dtype bug in an inner loop.

:func:`make_householder` is the **scalar reference path** — by design the
one place in the hot pipeline that computes directly in host NumPy.  The
batched kernel takes an optional ``xp`` namespace
(:mod:`repro.backend.base`) so the wavefront engine can generate a whole
round's reflectors on any array backend.
"""

from __future__ import annotations

import numpy as np

from ..backend.base import assert_f64

# Both kernels square entries directly (no scale-safe dnrm2), so the
# guard must fire while the *squares* are still full-precision normals:
# ||x|| below sqrt(tiny)/eps puts alpha^2 + sigma in the denormal range.
# Below it, the vector is scaled up once by LAPACK dlarfg's 1/safmin, a
# power of two (2^970 in fp64, 2^103 in fp32), so the scaling is exact.
# One step always suffices: the smallest denormal lands where its square
# is a normal, and a vector under the guard stays below sqrt(huge) after
# it.  The thresholds are per working precision (slarfg vs dlarfg):
# judging an fp32 vector against the fp64 threshold would never fire —
# fp32 squares underflow around 1e-38, ~100 orders of magnitude above the
# fp64 guard.
_RESCALE_BELOW = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps
_SAFE_MIN = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_INV_SAFE_MIN = 1.0 / _SAFE_MIN
_RESCALE_BELOW_F32 = float(
    np.sqrt(np.finfo(np.float32).tiny) / np.finfo(np.float32).eps
)
_SAFE_MIN_F32 = float(np.finfo(np.float32).tiny / np.finfo(np.float32).eps)
_INV_SAFE_MIN_F32 = 1.0 / _SAFE_MIN_F32


def _rescale_constants(dtype) -> tuple[float, float, float]:
    """(rescale_below, safe_min, 1/safe_min) for the working precision."""
    if np.dtype(dtype) == np.float32:
        return _RESCALE_BELOW_F32, _SAFE_MIN_F32, _INV_SAFE_MIN_F32
    return float(_RESCALE_BELOW), float(_SAFE_MIN), float(_INV_SAFE_MIN)


def safe_sumsq_floor(dtype) -> float:
    """Sum of squares below which the reflector formulas lose precision.

    The Householder kernels rescale a vector whose ``alpha^2 + sigma``
    falls below it.  A tail whose ``sigma`` alone reaches it needs no
    guard at all: that is the one check of the unguarded fast paths,
    here and in the wavefront chase.
    """
    rescale_below = _rescale_constants(dtype)[0]
    return rescale_below * rescale_below


__all__ = [
    "make_householder",
    "batched_make_householder",
    "apply_householder_left",
    "apply_householder_right",
    "apply_householder_two_sided",
    "WYAccumulator",
    "accumulate_wy",
    "merge_wy",
    "larft",
    "build_q_from_wy",
    "build_q_from_compact_wy",
]


def make_householder(x: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, tau, beta)`` such that ``(I - tau v v^T) x = beta e_1``
    with ``v[0] == 1``.  Uses the sign convention ``beta = -sign(x[0])*||x||``
    to avoid cancellation.  If ``x[1:]`` is exactly zero, the reflector is
    the identity: ``tau = 0`` and ``beta = x[0]``.  A vector whose squares
    would underflow is scaled into the safe range first, as ``dlarfg``
    does, so a tiny tail is still annihilated.

    Parameters
    ----------
    x : ndarray, shape (m,)
        The vector to reflect (float64; asserted, not converted).  Not
        modified.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("make_householder expects a non-empty 1-D array")
    assert_f64(x, "make_householder input")
    m = x.size
    v = np.zeros(m, dtype=x.dtype)
    v[0] = 1.0
    if m == 1:
        return v, 0.0, float(x[0])
    tail = x[1:]
    sigma = float(np.dot(tail, tail))
    alpha = float(x[0])
    # sigma == 0 alone is no proof: squares under ~1e-162 flush to zero.
    if sigma == 0.0 and not tail.any():
        return v, 0.0, alpha
    rescale_below, safe_min, inv_safe_min = _rescale_constants(x.dtype)
    beta = -np.copysign(np.sqrt(alpha * alpha + sigma), alpha)
    scaled = abs(beta) < rescale_below
    if scaled:
        # LAPACK dlarfg's escape hatch: build the (scale-invariant)
        # reflector on the vector scaled into the safe range and rescale
        # only beta back down.
        tail = tail * inv_safe_min
        alpha *= inv_safe_min
        sigma = float(np.dot(tail, tail))
        beta = -np.copysign(np.sqrt(alpha * alpha + sigma), alpha)
    v0 = alpha - beta
    v[1:] = tail / v0
    tau = (beta - alpha) / beta
    if scaled:
        beta *= safe_min
    return v, float(tau), float(beta)


def batched_make_householder(
    X: np.ndarray, xp=np
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute ``S`` independent Householder reflectors at once.

    The batched form of :func:`make_householder`, vectorized over the
    leading axis: row ``s`` of ``X`` yields ``(V[s], tau[s], beta[s])``
    with ``(I - tau[s] V[s] V[s]^T) X[s] = beta[s] e_1`` and
    ``V[s, 0] == 1``.  Same conventions and same stability choices as the
    scalar kernel (``beta`` sign against cancellation, ``tau == 0`` for
    rows whose tail is exactly zero, the ``dlarfg`` rescale for rows whose
    squares would underflow); results agree with the scalar kernel to the
    last ulp up to the summation order of the inner products.

    This is the generation kernel of the wavefront-batched bulge chase
    (:mod:`repro.core.bc_wavefront`): every task of a pipeline round emits
    its reflector from one stacked call instead of ``S`` scalar ones.

    Parameters
    ----------
    X : ndarray, shape (S, m)
        One vector to reflect per row (float64; asserted, not converted).
        Not modified.
    xp : array namespace, optional
        Backend operation namespace (defaults to NumPy).  ``X`` must be a
        native array of the corresponding backend; the outputs are too.

    Returns
    -------
    (V, tau, beta) : arrays of shape (S, m), (S,), (S,)
    """
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError("batched_make_householder expects a non-empty (S, m) array")
    assert_f64(X, "batched_make_householder input")
    S, m = X.shape
    V = xp.zeros((S, m), dtype=X.dtype)
    V[:, 0] = 1.0
    if m == 1:
        return V, xp.zeros(S, dtype=X.dtype), xp.copy(X[:, 0])
    sigma = xp.einsum("ij,ij->i", X[:, 1:], X[:, 1:])
    alpha = xp.copy(X[:, 0])
    floor = safe_sumsq_floor(X.dtype)
    if sigma.min() >= floor:
        # Common case: every tail is well inside the normal range, no
        # guards needed.
        beta = -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha)
        V[:, 1:] = X[:, 1:] / (alpha - beta)[:, None]
        tau = (beta - alpha) / beta
        return V, tau, beta
    # Identity rows are those whose tail is exactly zero; sigma == 0 alone
    # is no proof, since squares under ~1e-162 flush to zero.
    nz = xp.sum(xp.abs(X[:, 1:]), axis=1) != 0.0
    small = nz & (alpha * alpha + sigma < floor)
    rescale = bool(small.any())
    if rescale:
        # The scalar kernel's dlarfg rescale, on the rows that need it.
        _, safe_min, inv_safe_min = _rescale_constants(X.dtype)
        X = xp.copy(X)
        X[small] *= inv_safe_min
        sigma = xp.where(small, xp.einsum("ij,ij->i", X[:, 1:], X[:, 1:]), sigma)
        alpha = xp.copy(X[:, 0])
    beta = xp.where(
        nz, -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha), alpha
    )
    # v0 = alpha - beta is nonzero exactly when the tail is; guard the
    # identity rows so the division stays silent (their numerators are 0).
    v0 = xp.where(nz, alpha - beta, 1.0)
    V[:, 1:] = X[:, 1:] / v0[:, None]
    tau = xp.where(nz, (beta - alpha) / xp.where(nz, beta, 1.0), 0.0)
    if rescale:
        beta[small] *= safe_min
    return V, tau, beta


def apply_householder_left(C: np.ndarray, v: np.ndarray, tau: float) -> None:
    """In-place ``C <- (I - tau v v^T) C`` (a rank-1 BLAS2 update)."""
    if tau == 0.0:
        return
    # w = tau * v^T C  (row vector); C -= outer(v, w)
    w = tau * (v @ C)
    C -= np.outer(v, w)


def apply_householder_right(C: np.ndarray, v: np.ndarray, tau: float) -> None:
    """In-place ``C <- C (I - tau v v^T)``."""
    if tau == 0.0:
        return
    w = tau * (C @ v)
    C -= np.outer(w, v)


def apply_householder_two_sided(B: np.ndarray, v: np.ndarray, tau: float) -> None:
    """In-place symmetric two-sided update ``B <- H B H`` for symmetric ``B``.

    Uses the symmetric rank-2 form (LAPACK ``latrd``-style):

        p = tau * B v
        w = p - (tau/2) (p^T v) v
        B <- B - v w^T - w v^T

    which costs one symv + one syr2 instead of two full GEMMs, and keeps
    ``B`` exactly symmetric in exact arithmetic.
    """
    if tau == 0.0:
        return
    p = tau * (B @ v)
    w = p - (0.5 * tau * float(p @ v)) * v
    B -= np.outer(v, w)
    B -= np.outer(w, v)


class WYAccumulator:
    """Incrementally build ``H_1 ... H_k = I - W Y^T`` (paper Section 2.1).

    ``append(v, tau)`` folds one reflector into the product using the
    recurrence ``W <- [W | tau (v - W (Y^T v))]``, ``Y <- [Y | v]``.

    Parameters
    ----------
    m : int
        Length of the reflector vectors.
    capacity : int, optional
        Pre-allocated number of columns (grows automatically otherwise).
    """

    def __init__(self, m: int, capacity: int = 8, dtype=np.float64):
        self.m = int(m)
        self.dtype = np.dtype(dtype)
        self._W = np.zeros((m, capacity), dtype=self.dtype)
        self._Y = np.zeros((m, capacity), dtype=self.dtype)
        self.k = 0

    def _grow(self) -> None:
        cap = self._W.shape[1]
        newW = np.zeros((self.m, 2 * cap), dtype=self.dtype)
        newY = np.zeros((self.m, 2 * cap), dtype=self.dtype)
        newW[:, :cap] = self._W
        newY[:, :cap] = self._Y
        self._W, self._Y = newW, newY

    def append(self, v: np.ndarray, tau: float) -> None:
        """Fold reflector ``I - tau v v^T`` onto the right of the product."""
        if v.shape != (self.m,):
            raise ValueError(f"reflector length {v.shape} != accumulator size {self.m}")
        if self.k == self._W.shape[1]:
            self._grow()
        k = self.k
        if k == 0:
            self._W[:, 0] = tau * v
        else:
            coeff = self._Y[:, :k].T @ v  # Y^T v
            self._W[:, k] = tau * (v - self._W[:, :k] @ coeff)
        self._Y[:, k] = v
        self.k += 1

    @property
    def W(self) -> np.ndarray:
        """The current ``W`` factor, shape ``(m, k)`` (a view)."""
        return self._W[:, : self.k]

    @property
    def Y(self) -> np.ndarray:
        """The current ``Y`` factor, shape ``(m, k)`` (a view)."""
        return self._Y[:, : self.k]

    def q(self) -> np.ndarray:
        """Materialize the full orthogonal factor ``I - W Y^T``."""
        return build_q_from_wy(self.W, self.Y)


def accumulate_wy(V: np.ndarray, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate reflectors ``(V, taus)`` into WY form ``(W, Y)``.

    ``V`` holds the reflector vectors as columns (``v[0] == 1`` each), so
    ``Y == V`` and ``W`` follows the forward recurrence.  Equivalent to
    repeatedly calling :meth:`WYAccumulator.append` but returned as fresh
    arrays.
    """
    V = np.asarray(V)
    if V.dtype not in (np.float32, np.float64):
        V = V.astype(np.float64)
    m, k = V.shape
    acc = WYAccumulator(m, capacity=max(k, 1), dtype=V.dtype)
    for j in range(k):
        acc.append(V[:, j], float(taus[j]))
    return acc.W.copy(), acc.Y.copy()


def merge_wy(
    W1: np.ndarray, Y1: np.ndarray, W2: np.ndarray, Y2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two WY blocks: ``(I - W1 Y1^T)(I - W2 Y2^T) = I - W Y^T``.

    This is the kernel of the paper's Algorithm 3 (recursive back
    transformation):

        W = [W1 | W2 - W1 (Y1^T W2)],   Y = [Y1 | Y2].
    """
    cross = Y1.T @ W2
    W = np.hstack([W1, W2 - W1 @ cross])
    Y = np.hstack([Y1, Y2])
    return W, Y


def larft(V: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Form the compact-WY triangular factor ``T`` with ``Q = I - V T V^T``.

    LAPACK ``larft`` forward/columnwise: ``T`` is ``k x k`` upper triangular,

        T[:j, j] = -tau_j * T[:j, :j] @ (V[:, :j]^T V[:, j])
        T[j, j]  = tau_j
    """
    V = np.asarray(V)
    if V.dtype not in (np.float32, np.float64):
        V = V.astype(np.float64)
    k = V.shape[1]
    T = np.zeros((k, k), dtype=V.dtype)
    for j in range(k):
        tau = float(taus[j])
        T[j, j] = tau
        if j > 0 and tau != 0.0:
            T[:j, j] = -tau * (T[:j, :j] @ (V[:, :j].T @ V[:, j]))
    return T


def build_q_from_wy(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Materialize ``Q = I - W Y^T`` (mostly for tests / small matrices)."""
    m = W.shape[0]
    return np.eye(m, dtype=W.dtype) - W @ Y.T


def build_q_from_compact_wy(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Materialize ``Q = I - V T V^T`` from compact-WY factors."""
    m = V.shape[0]
    return np.eye(m, dtype=V.dtype) - V @ (T @ V.T)
