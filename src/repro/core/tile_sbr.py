"""Tile-algorithm band reduction — the PLASMA lineage baseline.

Before MAGMA's panel-based ``sy2sb``, two-stage tridiagonalization was
pioneered with *tile algorithms* on multicore CPUs (Luszczek/Ltaief/
Dongarra 2011; the PLASMA library — the paper's references [7], [16],
[17]).  The matrix is partitioned into ``b x b`` tiles; band reduction
proceeds one tile column at a time:

* **GEQRT** — QR-factorize the first subdiagonal tile ``A[k+1][k]``
  (leaving an in-band upper-triangular tile), and apply the factor
  two-sidedly to tile row/column ``k+1``;
* **TSQRT** — for each lower tile ``A[i][k]``, QR the stacked pair
  ``[R; A[i][k]]`` (triangle-on-top-of-square), annihilating the tile,
  and apply the pair factor two-sidedly to tile rows/columns
  ``{k+1, i}`` (the TSMQR updates).

Every factor acts on an explicit (possibly non-contiguous) row set, so
the similarity transform is recorded as a list of
:class:`TileReflector`\\ s rather than offset-embedded WY blocks.  The
result satisfies the same contract as SBR/DBBR — ``A = Q B Q^T`` with
bandwidth ``b`` — and the tests pin spectrum, orthogonality and band
structure against the panel-based reductions.

The tile decomposition's selling point (and why PLASMA used it) is the
task graph: each kernel touches at most two tile rows, giving abundant
independent tasks for dynamic multicore scheduling.  :func:`tile_task_dag`
exposes that graph for the scheduling-oriented tests and benches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from .dbbr import _zero_off_band
from .panel_qr import _panel_wy

__all__ = ["TileReflector", "TileBandReductionResult", "tile_sbr", "tile_task_dag"]


@dataclass
class TileReflector:
    """Orthogonal factor ``Q = I - W Y^T`` acting on explicit ``rows``."""

    rows: np.ndarray
    W: np.ndarray
    Y: np.ndarray
    kind: str  # "geqrt" | "tsqrt"

    def apply_left(self, X: np.ndarray) -> None:
        """``X[rows] <- (I - W Y^T) X[rows]``."""
        sub = X[self.rows, :]
        sub -= self.W @ (self.Y.T @ sub)
        X[self.rows, :] = sub

    def apply_left_transpose(self, X: np.ndarray) -> None:
        sub = X[self.rows, :]
        sub -= self.Y @ (self.W.T @ sub)
        X[self.rows, :] = sub


@dataclass
class TileBandReductionResult:
    """``A = Q @ band @ Q^T`` with ``Q`` the ordered tile-factor product."""

    band: np.ndarray
    bandwidth: int
    reflectors: list[TileReflector] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.band.shape[0]

    def q(self) -> np.ndarray:
        Q = np.eye(self.n)
        for refl in reversed(self.reflectors):
            refl.apply_left(Q)
        return Q

    def reconstruct(self) -> np.ndarray:
        Q = self.q()
        return Q @ self.band @ Q.T


def _tile_bounds(n: int, b: int) -> list[tuple[int, int]]:
    return [(t, min(t + b, n)) for t in range(0, n, b)]


def tile_sbr(
    A: np.ndarray, b: int, ctx: ExecutionContext | None = None
) -> TileBandReductionResult:
    """Reduce symmetric ``A`` to bandwidth ``b`` with tile kernels.

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric input (not modified).
    b : int
        Tile size = resulting bandwidth.
    ctx : ExecutionContext, optional
        Execution context; the two-sided TSMQR-style GEMM updates run on
        its backend, the tile QR factorizations stay on the host.
    """
    ctx = resolve_context(ctx)
    xp = ctx.xp
    A = xp.array(ctx.asarray(A), copy=True)
    n = A.shape[0]
    if tuple(A.shape) != (n, n):
        raise ValueError("A must be square")
    if b < 1:
        raise ValueError("tile size must be >= 1")
    tiles = _tile_bounds(n, b)
    nt = len(tiles)
    reflectors: list[TileReflector] = []

    for k in range(nt - 1):
        c0, c1 = tiles[k]
        r0, r1 = tiles[k + 1]
        # GEQRT: LAPACK ?geqrt of the first subdiagonal tile (host-side).
        W, Y, R = _panel_wy(ctx.to_numpy(A[r0:r1, c0:c1]))
        if W.shape[1] > 0:
            rows = np.arange(r0, r1)
            A[r0:r1, c0:c1] = ctx.from_numpy(R)
            A[c0:c1, r0:r1] = A[r0:r1, c0:c1].T
            # Two-sided on the trailing rows/cols (everything >= r0 except
            # the already-written panel columns).
            _apply_two_sided_trailing(
                A, rows, ctx.from_numpy(W), ctx.from_numpy(Y), r0, xp
            )
            reflectors.append(TileReflector(rows=rows, W=W, Y=Y, kind="geqrt"))
        # TSQRT: annihilate each lower tile against the triangle.
        for i in range(k + 2, nt):
            s0, s1 = tiles[i]
            top = ctx.to_numpy(A[r0:r1, c0:c1])
            bot = ctx.to_numpy(A[s0:s1, c0:c1])
            stacked = np.vstack([top, bot])
            W, Y, R = _panel_wy(stacked)
            if W.shape[1] == 0:
                continue
            rows = np.concatenate([np.arange(r0, r1), np.arange(s0, s1)])
            A[r0:r1, c0:c1] = ctx.from_numpy(R[: r1 - r0])
            A[s0:s1, c0:c1] = 0.0
            A[c0:c1, r0:r1] = A[r0:r1, c0:c1].T
            A[c0:c1, s0:s1] = 0.0
            _apply_two_sided_trailing(
                A, rows, ctx.from_numpy(W), ctx.from_numpy(Y), r0, xp
            )
            reflectors.append(TileReflector(rows=rows, W=W, Y=Y, kind="tsqrt"))

    _zero_off_band(A, b)
    return TileBandReductionResult(
        band=ctx.to_numpy(A), bandwidth=b, reflectors=reflectors
    )


def _apply_two_sided_trailing(
    A: np.ndarray, rows: np.ndarray, W: np.ndarray, Y: np.ndarray, t0: int, xp=np
) -> None:
    """Two-sided update restricted to the trailing region ``[t0:, t0:]``.

    The panel columns (< t0) were just overwritten with their final
    ``[R; 0]`` values, so only the trailing block may move; restricting
    the update also keeps earlier (finalized) columns untouched.
    """
    sub = A[xp.ix_(rows, np.arange(t0, A.shape[0]))]
    sub -= Y @ (W.T @ sub)
    A[xp.ix_(rows, np.arange(t0, A.shape[0]))] = sub
    sub = A[xp.ix_(np.arange(t0, A.shape[0]), rows)]
    sub -= (sub @ W) @ Y.T
    A[xp.ix_(np.arange(t0, A.shape[0]), rows)] = sub


def tile_task_dag(n: int, b: int) -> list[tuple[str, int, int]]:
    """The tile task list in execution order: ``(kind, k, i)`` tuples.

    ``("geqrt", k, k+1)`` then ``("tsqrt", k, i)`` for ``i > k+1`` — the
    graph PLASMA's dynamic scheduler mines for parallelism (tasks of
    different ``k`` overlap once their tile rows are disjoint).
    """
    nt = len(_tile_bounds(n, b))
    out: list[tuple[str, int, int]] = []
    for k in range(nt - 1):
        out.append(("geqrt", k, k + 1))
        for i in range(k + 2, nt):
            out.append(("tsqrt", k, i))
    return out
