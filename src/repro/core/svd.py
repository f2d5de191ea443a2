"""Singular value decomposition through the reproduced eigensolver stack.

The paper's closest relative ([10], Gates/Tomov/Dongarra 2018) is the SVD
twin of this work: two-stage *bidiagonal* reduction plus divide & conquer.
This module provides the SVD pipeline on top of our substrate:

1. **Householder bidiagonalization** (`bidiagonalize`): alternating left /
   right reflectors reduce ``A`` to upper bidiagonal ``B`` (LAPACK
   ``gebrd``);
2. **Golub–Kahan embedding** (`golub_kahan_tridiagonal`): the permuted
   symmetric matrix ``[[0, B^T], [B, 0]]`` is, under the perfect shuffle,
   a symmetric *tridiagonal* with zero diagonal and the interleaved
   entries of ``B`` off the diagonal — exactly the input our
   divide-and-conquer solver eats;
3. **`svd`**: eigenpairs of the GK tridiagonal map to singular triplets
   (``lam = ±sigma``; the eigenvector's shuffled halves are the left /
   right singular vectors scaled by ``1/sqrt(2)``), back-transformed
   through the bidiagonalization reflectors.

Everything — reflectors, the tridiagonal eigensolve, back transformation —
runs through the code paths this repository reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.base import ArrayBackend
from ..backend.context import ExecutionContext, resolve_context
from ..plan.planner import make_solver_config
from ..plan.runner import solve_tridiagonal_planned
from .householder import make_householder

__all__ = ["BidiagResult", "bidiagonalize", "golub_kahan_tridiagonal", "svd"]


@dataclass
class BidiagResult:
    """``A = U B V^T`` with upper-bidiagonal ``B`` (diag ``d``, superdiag
    ``f``) and reflector logs for applying ``U`` / ``V``."""

    d: np.ndarray
    f: np.ndarray
    left_v: list[np.ndarray]
    left_tau: list[float]
    right_v: list[np.ndarray]
    right_tau: list[float]
    m: int
    n: int

    def apply_u(self, X: np.ndarray) -> None:
        """In place ``X <- U X`` (left reflectors, reverse order)."""
        for j in range(len(self.left_v) - 1, -1, -1):
            tau, v = self.left_tau[j], self.left_v[j]
            if tau == 0.0:
                continue
            sub = X[j:, :]
            sub -= np.outer(tau * v, v @ sub)

    def apply_v(self, X: np.ndarray) -> None:
        """In place ``X <- V X`` (right reflectors, reverse order)."""
        for j in range(len(self.right_v) - 1, -1, -1):
            tau, v = self.right_tau[j], self.right_v[j]
            if tau == 0.0:
                continue
            sub = X[j + 1 :, :]
            sub -= np.outer(tau * v, v @ sub)


def bidiagonalize(A: np.ndarray) -> BidiagResult:
    """Householder bidiagonalization of ``A`` (``m >= n``; tall or square).

    Column ``j``: a left reflector annihilates ``A[j+1:, j]``, then a
    right reflector annihilates ``A[j, j+2:]`` — the classic ``gebrd``
    alternation that keeps the bidiagonal structure intact.
    """
    A = np.array(A, dtype=np.float64, copy=True)
    m, n = A.shape
    if m < n:
        raise ValueError("bidiagonalize expects m >= n (pass A.T and swap U/V)")
    left_v: list[np.ndarray] = []
    left_tau: list[float] = []
    right_v: list[np.ndarray] = []
    right_tau: list[float] = []
    for j in range(n):
        v, tau, beta = make_householder(A[j:, j])
        left_v.append(v)
        left_tau.append(tau)
        if tau != 0.0:
            C = A[j:, j + 1 :]
            C -= np.outer(tau * v, v @ C)
        A[j, j] = beta
        A[j + 1 :, j] = 0.0
        if j + 2 < n:
            v, tau, beta = make_householder(A[j, j + 1 :])
            right_v.append(v)
            right_tau.append(tau)
            if tau != 0.0:
                C = A[j + 1 :, j + 1 :]
                C -= np.outer(C @ v, tau * v)
            A[j, j + 1] = beta
            A[j, j + 2 :] = 0.0
        elif j + 1 < n:
            right_v.append(np.ones(n - j - 1))
            right_tau.append(0.0)
    d = np.diagonal(A)[:n].copy()
    f = np.array([A[j, j + 1] for j in range(n - 1)])
    return BidiagResult(
        d=d, f=f, left_v=left_v, left_tau=left_tau,
        right_v=right_v, right_tau=right_tau, m=m, n=n,
    )


def golub_kahan_tridiagonal(d: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Golub–Kahan tridiagonal of an upper bidiagonal ``(d, f)``.

    The symmetric embedding ``[[0, B^T], [B, 0]]`` permuted by the perfect
    shuffle is tridiagonal with zero diagonal and off-diagonal
    ``(d_0, f_0, d_1, f_1, ..., d_{n-1})`` — size ``2n``.
    """
    d = np.asarray(d, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    n = d.size
    e = np.zeros(2 * n - 1)
    e[0::2] = d
    if n > 1:
        e[1::2] = f
    return np.zeros(2 * n), e


def svd(
    A: np.ndarray,
    compute_vectors: bool = True,
    backend: str | ArrayBackend | ExecutionContext | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Full SVD ``A = U diag(s) V^T`` via the reproduced pipeline.

    Parameters
    ----------
    A : (m, n) ndarray, ``m >= n``
        Input matrix (tall or square; for wide inputs pass ``A.T`` and
        swap the returned factors).
    compute_vectors : bool
        Return ``U`` (m x n, thin) and ``V`` (n x n).
    backend : str, ArrayBackend or ExecutionContext, optional
        Execution context threaded into the divide-and-conquer solve of
        the Golub–Kahan tridiagonal, exactly as :func:`repro.core.eigh`
        does — the caller's backend, workspace pool, and stage-event
        hooks (``bidiagonalize``, ``tridiag_solver`` and the ``dc_*``
        sub-stages) all apply.

    Returns
    -------
    (s, U, V)
        Singular values descending; ``U``/``V`` are None without vectors.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"svd expects a 2-D matrix, got shape {A.shape}")
    m, n = A.shape
    if m < n:
        raise ValueError("svd expects m >= n; pass A.T and swap U/V")
    # The same validated SolverConfig + shared stage runner the EVD plan
    # layer uses.
    solver_cfg = make_solver_config("dc", compute_vectors)
    if n == 0:
        return np.zeros(0), None, None
    ctx = resolve_context(backend)
    with ctx.stage("bidiagonalize", m=m, n=n):
        bd = bidiagonalize(A)
    dt, et = golub_kahan_tridiagonal(bd.d, bd.f)
    with ctx.stage("tridiag_solver", solver="dc"):
        lam, W = solve_tridiagonal_planned(dt, et, solver_cfg, ctx=ctx)
    # Eigenvalues come in ±sigma pairs (ascending); the top n are +sigma.
    s = lam[2 * n - 1 : n - 1 : -1].copy()
    s[s < 0] = 0.0  # roundoff on zero singular values
    if not compute_vectors:
        return s, None, None
    # Under the perfect shuffle, eigenvector w of eigenvalue +sigma holds
    # v/sqrt(2) on even indices and u/sqrt(2) on odd indices.
    U_b = np.zeros((n, n))
    V_b = np.zeros((n, n))
    tol = 1e-12 * max(float(s[0]) if s.size else 0.0, 1.0)
    for i in range(n):
        w = W[:, 2 * n - 1 - i]
        v = w[0::2]
        u = w[1::2]
        # Normalize and fix the sign pairing (u, v defined up to joint sign).
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu > 1e-8 and nv > 1e-8:
            U_b[:, i] = u / nu
            V_b[:, i] = v / nv
        # else: zero singular value — the GK eigenvector may put all its
        # mass in one half; the column is completed below.
    # Null-space completion: for sigma ~ 0 the eigenvector halves decouple
    # and need not be orthonormal; rebuild those columns as an orthonormal
    # complement of the well-determined ones.
    suspect = np.flatnonzero(s <= tol)
    for Q in (U_b, V_b):
        if suspect.size == 0:
            break
        basis = [Q[:, i] for i in range(n) if i not in set(suspect)]
        for i in suspect:
            # Candidates: the computed column, then every coordinate
            # vector; keep the one with the largest projection residual
            # (>= 1/sqrt(n) exists by a counting argument) and
            # re-orthogonalize twice — accepting a tiny residual would
            # amplify roundoff into visible non-orthogonality.
            best = None
            best_norm = 0.0
            for cand in [Q[:, i]] + [np.eye(n)[:, c] for c in range(n)]:
                vcol = cand.copy()
                for _ in range(2):
                    for b_vec in basis:
                        vcol -= (b_vec @ vcol) * b_vec
                norm = np.linalg.norm(vcol)
                if norm > best_norm:
                    best, best_norm = vcol, norm
                if norm > 0.5:
                    break
            assert best is not None and best_norm > 0.0
            Q[:, i] = best / best_norm
            basis.append(Q[:, i])
    # Back-transform through the bidiagonalization reflectors.
    U = np.zeros((m, n))
    U[:n, :] = U_b
    bd.apply_u(U)
    V = V_b
    bd.apply_v(V)
    return s, U, V
