"""Cuppen's divide-and-conquer symmetric tridiagonal eigensolver.

This is the from-scratch ``Dstedc`` substrate the paper integrates from
MAGMA for the end-to-end EVD (Section 6.2).  The solver tears the
tridiagonal ``T`` into two halves plus a rank-one coupling,

    T = diag(T1', T2') + rho v v^T,   rho = e_{m-1},  v = e_{m-1} + e_m,

solves the halves, and merges them through the symmetric rank-one update
``D + rho z z^T`` (``z = Q^T v``) using the secular machinery of
:mod:`repro.eig.secular`, with the two standard deflation rules
(negligible ``z_j``; Givens rotation of (near-)equal poles) from LAPACK's
``dlaed2``.  Eigenvector merging is one big GEMM per level — the BLAS3
shape that makes D&C the method of choice on GPUs.

Execution is an explicit *level-order* walk over the merge tree rather
than a recursion: the diagonal is torn once up front (every tear touches
a disjoint index pair), the leaves are solved by host LAPACK as in
MAGMA's ``Dstedc`` — one stacked ``numpy.linalg.eigh`` call per leaf size
(the halving tree has at most two) — and then each level's independent
merges execute back-to-back sharing the context's
:class:`~repro.backend.WorkspacePool` — the same wavefront shape the
bulge-chasing engine uses per round.  The leaves report ``dc_leaf`` and
every merge its three sub-stages (``dc_deflate``, ``dc_secular``,
``dc_gemm``) through the :class:`~repro.backend.ExecutionContext` timing
hooks, so ``SolverService.stats()`` and the benchmark artifacts can
attribute D&C time below the ``tridiag_solver`` line.

The secular stage runs ``dlaed4``-style rational sweeps over L2-sized
tiles of roots (``secular_mode="batched"``, what every plan executes);
``secular_mode="scalar"`` selects the original per-root guarded-Newton
loops, an oracle the tests compare against.

Like ``dstedc``, the solver scales ``(d, e)`` on entry by the power of
two that brings ``max |T|`` into ``[0.5, 1)`` and unscales the
eigenvalues on exit; the scaling is exact, so tridiagonals near either
end of the exponent range solve as accurately as unit-scale ones.

The eigenvalues-only path never forms eigenvectors: the tree carries
just the *first and last rows* of each subproblem's eigenvector matrix
(all a merge needs to build ``z``), and each merge multiplies those two
rows into the secular eigenvectors tile by tile, so no ``(N, N)`` matrix
is formed — turning the ``O(n^3)`` vector cost into ``O(n^2)``, mirroring
the cheap `Dstedc`-eigenvalues-only mode whose time share Figure 4
reports at a few percent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..resilience.errors import ConvergenceError
from ..resilience.faults import maybe_raise
from .secular import refine_z, secular_eigenvectors, solve_all_roots

__all__ = ["DCStats", "dc_eigh"]

_EPS = np.finfo(np.float64).eps


@dataclass
class DCStats:
    """Instrumentation of one divide-and-conquer run."""

    merges: int = 0
    deflated: int = 0
    secular_size_total: int = 0
    gemm_flops: float = 0.0
    sizes: list[int] = field(default_factory=list)
    levels: int = 0
    leaves: int = 0
    #: Most root-solver sweeps any merge needed (batched secular mode).
    secular_sweeps: int = 0

    @property
    def deflation_fraction(self) -> float:
        tot = self.deflated + self.secular_size_total
        return self.deflated / tot if tot else 0.0


def _rank_one_update(
    D: np.ndarray,
    z: np.ndarray,
    rho: float,
    Q: np.ndarray,
    stats: DCStats,
    ctx: ExecutionContext,
    secular_mode: str,
    rows_only: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of ``diag(D) + rho z z^T`` expressed through ``Q``.

    ``Q`` holds rows of the accumulated eigenvector basis (all ``N`` rows
    in vector mode, the first and last with ``rows_only``); its columns
    are transformed exactly like eigenvectors.  Returns
    ``(lam ascending, Q_updated)``.
    """
    if rho < 0.0:
        # eig(D + rho z z^T) = -rev(eig(-rev(D) + |rho| rev(z) rev(z)^T))
        lam_r, Q_r = _rank_one_update(
            -D[::-1], z[::-1], -rho, Q[:, ::-1], stats, ctx, secular_mode, rows_only
        )
        return -lam_r[::-1], Q_r[:, ::-1]

    znorm2 = float(z @ z)
    if rho == 0.0 or znorm2 == 0.0:
        order = np.argsort(D, kind="stable")
        return D[order], Q[:, order]

    with ctx.stage("dc_deflate", n=D.size):
        order = np.argsort(D, kind="stable")
        D = D[order].copy()
        z = z[order].copy()
        Q = Q[:, order].copy()

        znorm = np.sqrt(znorm2)
        norm_m = float(np.max(np.abs(D))) + rho * znorm2
        tol_z = 4.0 * _EPS * norm_m / max(rho * znorm, np.finfo(np.float64).tiny)
        tol_gap = 16.0 * _EPS * norm_m

        deflated = np.abs(z) <= tol_z

        # Givens deflation of (near-)equal poles among the survivors.
        live = np.flatnonzero(~deflated)
        prev = -1
        for cur in live:
            if prev >= 0 and D[cur] - D[prev] <= tol_gap:
                r = np.hypot(z[prev], z[cur])
                c = z[cur] / r
                s = z[prev] / r
                z[cur] = r
                z[prev] = 0.0
                # Rotate the 2x2 diagonal block; the off-diagonal it creates is
                # |c s (D_prev - D_cur)| <= tol_gap / 2 and is dropped (that is
                # the deflation error, bounded by the perturbation tolerance).
                dp, dc_ = D[prev], D[cur]
                D[prev] = c * c * dp + s * s * dc_
                D[cur] = s * s * dp + c * c * dc_
                qp = Q[:, prev].copy()
                Q[:, prev] = c * qp - s * Q[:, cur]
                Q[:, cur] = s * qp + c * Q[:, cur]
                deflated[prev] = True
            prev = cur

        nd = np.flatnonzero(~deflated)
        df = np.flatnonzero(deflated)
        stats.deflated += df.size
        stats.secular_size_total += nd.size

    if nd.size == 0:
        order = np.argsort(D, kind="stable")
        return D[order], Q[:, order]

    # The secular tiles (and the vector mode's (N, N) matrix) come from
    # the context's pool in batched mode, so back-to-back merges at one
    # level allocate nothing.
    pool = ctx.workspace if (secular_mode == "batched" and ctx.is_numpy) else None
    with ctx.stage("dc_secular", n=int(nd.size), mode=secular_mode):
        maybe_raise("dc.merge")
        roots = solve_all_roots(D[nd], z[nd], rho, mode=secular_mode, workspace=pool)
        stats.secular_sweeps = max(stats.secular_sweeps, roots.sweeps)
        lam_nd = roots.values
        zhat = refine_z(roots, z[nd], rho, mode=secular_mode, workspace=pool)
        if rows_only:
            # The 2-row basis is multiplied in tile by tile: eigenvalues-only
            # merges never form the (N, N) eigenvector matrix.
            Q_nd = secular_eigenvectors(
                roots, zhat, mode=secular_mode, workspace=pool, basis=Q[:, nd]
            )
        else:
            S = secular_eigenvectors(roots, zhat, mode=secular_mode, workspace=pool)
    if not rows_only:
        with ctx.stage("dc_gemm", rows=int(Q.shape[0]), k=int(nd.size)):
            # Mixed precision: the secular stage always runs fp64, but the
            # merge GEMM — the O(n^3) cost of D&C — follows the carried
            # basis dtype.  For fp64 Q the astype is a no-op (same object).
            S = S.astype(Q.dtype, copy=False)
            if ctx.is_numpy:
                Q_nd = Q[:, nd] @ S
            else:
                # The one BLAS3 shape of the merge — route it to the backend;
                # the secular machinery around it stays host-side.
                Q_nd = ctx.to_numpy(
                    ctx.from_numpy(np.ascontiguousarray(Q[:, nd])) @ ctx.from_numpy(S)
                )
    stats.gemm_flops += 2.0 * Q.shape[0] * nd.size * nd.size

    lam_all = np.concatenate([lam_nd, D[df]])
    Q_all = np.concatenate([Q_nd, Q[:, df]], axis=1)
    order = np.argsort(lam_all, kind="stable")
    return lam_all[order], Q_all[:, order]


def _block_diag_rows(
    U1: np.ndarray, U2: np.ndarray, rows_only: bool
) -> np.ndarray:
    """The carried basis for a merge: full block diagonal in vector mode,
    or just its first and last rows in eigenvalues-only mode."""
    assert U1.dtype == U2.dtype, (
        "carried eigenvector bases must share a dtype "
        f"(got {U1.dtype} / {U2.dtype})"
    )
    n1, k1 = U1.shape
    n2, k2 = U2.shape
    if rows_only:
        Q = np.zeros((2, k1 + k2), dtype=U1.dtype)
        Q[0, :k1] = U1[0]
        Q[1, k1:] = U2[-1]
        return Q
    Q = np.zeros((n1 + n2, k1 + k2), dtype=U1.dtype)
    Q[:n1, :k1] = U1
    Q[n1:, k1:] = U2
    return Q


def _merge_tree(n: int, base_size: int) -> tuple[list[tuple[int, int]], list[list]]:
    """Split ``[0, n)`` like the classic recursion, but materialized.

    Returns ``(leaves, levels)``: ``leaves`` are the base-case segments
    ``(start, end)``; ``levels[k]`` holds the internal nodes
    ``(start, end, mid)`` at depth ``k``, deepest level last — executing
    the levels in *reverse* order is exactly the bottom-up merge wave.
    """
    leaves: list[tuple[int, int]] = []
    levels: list[list] = []
    frontier = [(0, n)]
    while frontier:
        next_frontier = []
        level_nodes = []
        for s, t in frontier:
            if t - s <= base_size:
                leaves.append((s, t))
            else:
                m = s + (t - s) // 2
                level_nodes.append((s, t, m))
                next_frontier.append((s, m))
                next_frontier.append((m, t))
        if level_nodes:
            levels.append(level_nodes)
        frontier = next_frontier
    return leaves, levels


def _dc_level_order(
    d: np.ndarray,
    e: np.ndarray,
    rows_only: bool,
    base_size: int,
    stats: DCStats,
    ctx: ExecutionContext,
    secular_mode: str,
    vector_dtype: np.dtype = np.float64,
) -> tuple[np.ndarray, np.ndarray]:
    """Execute the merge tree level by level.

    Returns ``(lam, Q)`` where ``Q`` is the carried basis (full or
    2-row).  Intermediate results live in a dict keyed by segment; each
    merge pops its children, so peak memory matches the recursion.
    """
    n = d.size
    leaves, levels = _merge_tree(n, base_size)
    stats.leaves = len(leaves)
    stats.levels = len(levels)

    # Tear the diagonal once, up front.  Each internal node's rank-one
    # coupling rho = e[m-1] subtracts from exactly d[m-1] and d[m], and
    # the torn pairs of distinct nodes are disjoint, so a single pass is
    # bit-identical to the recursive tear order.
    dmod = np.array(d, dtype=np.float64, copy=True)
    for level_nodes in levels:
        for _s, _t, m in level_nodes:
            rho = e[m - 1]
            dmod[m - 1] -= rho
            dmod[m] -= rho

    # Leaf solves: the halving tree leaves at most two leaf sizes, and each
    # size is one stacked LAPACK call (np.linalg.eigh on a (count, m, m)
    # tridiagonal stack), as Dstedc solves its leaves with host LAPACK.
    done: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    with ctx.stage("dc_leaf", count=len(leaves)):
        maybe_raise("dc.leaf")
        for m in sorted({t - s for s, t in leaves}):
            group = [(s, t) for s, t in leaves if t - s == m]
            starts = np.array([s for s, _ in group])
            j = np.arange(m)
            T = np.zeros((len(group), m, m))
            T[:, j, j] = dmod[starts[:, None] + j]
            sub = e[starts[:, None] + j[:-1]]
            T[:, j[1:], j[:-1]] = sub
            T[:, j[:-1], j[1:]] = sub
            try:
                lam, U = np.linalg.eigh(T)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"LAPACK leaf solve of {len(group)} size-{m} tridiagonals "
                    f"failed: {exc}",
                    site="dc.leaf",
                ) from exc
            for k, seg in enumerate(group):
                if rows_only:
                    # The 2-row basis drives the secular z vectors and stays
                    # fp64 regardless of vector_dtype: it is eigenvalue
                    # machinery, not eigenvector carrying.
                    Q = U[k][[0, -1]]
                else:
                    Q = U[k].astype(vector_dtype, copy=False)
                done[seg] = (lam[k], Q)

    # Merge wave: deepest level first; the merges inside one level are
    # independent and run back-to-back over the shared workspace pool.
    for level_nodes in reversed(levels):
        for s, t, m in level_nodes:
            lam1, Q1 = done.pop((s, m))
            lam2, Q2 = done.pop((m, t))
            rho = float(e[m - 1])
            D = np.concatenate([lam1, lam2])
            # z = Q^T v needs only the last row of the left basis and the
            # first row of the right one.  Promote to fp64: the secular
            # machinery always runs in double even when the carried basis
            # is fp32 (for fp64 bases this is a no-op view).
            z = np.concatenate([Q1[-1], Q2[0]]).astype(np.float64, copy=False)
            Q = _block_diag_rows(Q1, Q2, rows_only)
            stats.merges += 1
            stats.sizes.append(t - s)
            done[(s, t)] = _rank_one_update(
                D, z, rho, Q, stats, ctx, secular_mode, rows_only
            )

    return done[(0, n)]


def dc_eigh(
    d: np.ndarray,
    e: np.ndarray,
    compute_vectors: bool = True,
    base_size: int = 24,
    return_stats: bool = False,
    ctx: ExecutionContext | None = None,
    secular_mode: str = "batched",
    vector_dtype: np.dtype | None = None,
):
    """Eigendecomposition of ``tridiag(d, e)`` by divide and conquer.

    Parameters
    ----------
    d, e : ndarray
        Diagonal (length ``n``) and subdiagonal (length ``n-1``).
    compute_vectors : bool
        When false, only the first/last eigenvector rows are carried
        through the recursion (``O(n^2)`` total).
    base_size : int
        Subproblems at or below this size are leaves, solved by LAPACK in
        one stacked call per leaf size.
    return_stats : bool
        Also return a :class:`DCStats` with merge/deflation counters.
    ctx : ExecutionContext, optional
        Execution context: the per-level eigenvector merge GEMM runs on
        its backend, batched secular scratch comes from its workspace
        pool, and the leaves emit ``dc_leaf`` and every merge
        ``dc_deflate`` / ``dc_secular`` / ``dc_gemm`` stage events through
        its hooks (eigenvalues-only merges have no ``dc_gemm``: their
        two-row product runs inside ``dc_secular``).
    secular_mode : {"batched", "scalar"}
        ``"batched"`` (default) runs the vectorized secular machinery;
        ``"scalar"`` the original per-root loops (the test oracle).
    vector_dtype : dtype, optional
        Working dtype of the eigenvector carrying and per-level merge
        GEMMs (the O(n^3) cost).  The eigenvalue/secular machinery —
        leaf solves, deflation, secular roots, z refinement — always
        runs float64 on the float64 ``(d, e)``.  ``None`` (the default,
        and the only value fp64 plans ever pass) is bit-identical to
        ``np.float64``.  Ignored in eigenvalues-only mode, whose 2-row
        carried basis is eigenvalue machinery.

    Returns
    -------
    (lam, U[, stats])
        Ascending eigenvalues; ``U`` is the eigenvector matrix or ``None``.

    Raises
    ------
    ConvergenceError
        A LAPACK leaf solve failed (site ``"dc.leaf"``) or a secular root
        sweep stalled (site ``"secular.newton"``).
    """
    d = np.asarray(d, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    n = d.size
    if e.size != max(n - 1, 0):
        raise ValueError(f"e must have length n-1={n - 1}, got {e.size}")
    if base_size < 3:
        raise ValueError("base_size must be >= 3")
    if secular_mode not in ("batched", "scalar"):
        raise ValueError(
            f"unknown secular_mode {secular_mode!r}; expected 'batched' or 'scalar'"
        )
    vdt = np.dtype(np.float64) if vector_dtype is None else np.dtype(vector_dtype)
    if vdt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"vector_dtype must be float32 or float64, got {vdt}")
    # Scale like dstedc's dlascl: the power of two that brings max|T| into
    # [0.5, 1) is exact, and keeps 1/rho, z^2/(d - lam) and their squares
    # in range for tridiagonals near the ends of the exponent range.
    amax = max(np.max(np.abs(d), initial=0.0), np.max(np.abs(e), initial=0.0))
    expo = int(np.frexp(amax)[1])
    stats = DCStats()
    lam, Q = _dc_level_order(
        np.ldexp(d, -expo),
        np.ldexp(e, -expo),
        not compute_vectors,
        base_size,
        stats,
        resolve_context(ctx),
        secular_mode,
        vector_dtype=vdt,
    )
    lam = np.ldexp(lam, expo)
    U = Q if compute_vectors else None
    if return_stats:
        return lam, U, stats
    return lam, U
