"""Back transformation: assembling eigenvectors from the reduction factors.

After the two-stage reduction ``A = Q_sbr (Q1 T Q1^T) Q_sbr^T`` and the
tridiagonal solve ``T = U Lambda U^T``, the eigenvectors of ``A`` are

    V = Q_sbr @ Q1 @ U.

``Q1`` (bulge chasing) is applied reflector-by-reflector
(:meth:`repro.core.bulge_chasing.BulgeChasingResult.apply_q1`); this module
provides the **SBR back transformation** ``X <- Q_sbr X`` in the three
flavours the paper compares:

* ``"blocked"`` — the conventional ``ormqr`` order: one width-``b`` GEMM
  pair per panel (``Q = Q x (I - W_i Y_i^T)`` in sequence).  On a GPU every
  GEMM has inner dimension ``b`` — the skinny shape of Section 4.3.
* ``"recursive"`` — Algorithm 3: recursively merge *all* WY blocks into a
  single ``(W, Y)`` with ``W = [W1 | W2 - W1 Y1^T W2]``, then apply once.
  Squarest GEMMs, but forms the entire ``n x n_b`` ``W`` (extra flops).
* ``"incremental"`` — the optimized scheme of Figure 13: merge blocks
  pairwise (a batched-GEMM tree) only until each group reaches width
  ``group_width`` (the paper uses ``k = 2048``), then apply the groups in
  sequence.  This bounds the extra flops while keeping the GEMM inner
  dimension large.

All three produce the same ``Q_sbr`` to machine precision; the tests assert
it and the Figure 14 bench prices them.
"""

from __future__ import annotations

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from .blocks import WYBlock
from .bulge_chasing import BulgeChasingResult

__all__ = [
    "apply_sbr_q",
    "apply_sbr_q_transpose",
    "q_from_blocks",
    "merge_blocks_recursive",
    "merge_blocks_grouped",
    "assemble_eigenvectors",
]


def _embed(
    block: WYBlock, n: int, ctx: ExecutionContext
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad a block's (W, Y) to full ``n`` rows so blocks with different
    trailing windows share one row space (the padding preserves the
    product algebra exactly)."""
    xp = ctx.xp
    dt = block.W.dtype if block.W.dtype in (np.float32, np.float64) else np.float64
    W = xp.zeros((n, block.width), dtype=dt)
    Y = xp.zeros((n, block.width), dtype=dt)
    W[block.offset :] = ctx.from_numpy(block.W)
    Y[block.offset :] = ctx.from_numpy(block.Y)
    return W, Y


def _merge(
    W1: np.ndarray, Y1: np.ndarray, W2: np.ndarray, Y2: np.ndarray, xp=np
) -> tuple[np.ndarray, np.ndarray]:
    """(I - W1 Y1^T)(I - W2 Y2^T) = I - [W1 | W2 - W1 (Y1^T W2)] [Y1 | Y2]^T."""
    return (
        xp.hstack([W1, W2 - W1 @ (Y1.T @ W2)]),
        xp.hstack([Y1, Y2]),
    )


def merge_blocks_recursive(
    blocks: list[WYBlock], n: int, ctx: ExecutionContext | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 3: merge every WY block into one ``(W, Y)`` pair.

    Returns global-row factors with ``Q_sbr = I - W Y^T``, allocated on
    the context's backend.  Divide and conquer over the block list keeps
    the merge GEMMs as square as possible (the paper's ``ComputeW``).
    """
    ctx = resolve_context(ctx)
    xp = ctx.xp
    if not blocks:
        return xp.zeros((n, 0)), xp.zeros((n, 0))

    def rec(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        if hi - lo == 1:
            return _embed(blocks[lo], n, ctx)
        mid = (lo + hi) // 2
        Wl, Yl = rec(lo, mid)
        Wr, Yr = rec(mid, hi)
        return _merge(Wl, Yl, Wr, Yr, xp)

    return rec(0, len(blocks))


def merge_blocks_grouped(
    blocks: list[WYBlock],
    n: int,
    group_width: int,
    ctx: ExecutionContext | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Figure 13: merge consecutive blocks pairwise until each group's WY
    width reaches ``group_width`` (e.g. 2048), never forming the full W.

    Returns the group list in product order:
    ``Q_sbr = prod_g (I - W_g Y_g^T)``, with each pair allocated on the
    context's backend.  Each merge level is a batch of independent GEMMs
    — the "batched GEMM" the paper calls out.
    """
    if group_width < 1:
        raise ValueError("group_width must be >= 1")
    ctx = resolve_context(ctx)
    xp = ctx.xp
    groups = [_embed(b, n, ctx) for b in blocks]
    while len(groups) > 1:
        widths = [w.shape[1] for w, _ in groups]
        if all(w >= group_width for w in widths[:-1]):
            break
        nxt: list[tuple[np.ndarray, np.ndarray]] = []
        i = 0
        while i < len(groups):
            if (
                i + 1 < len(groups)
                and groups[i][0].shape[1] < group_width
            ):
                nxt.append(_merge(*groups[i], *groups[i + 1], xp))
                i += 2
            else:
                nxt.append(groups[i])
                i += 1
        groups = nxt
    return groups


def apply_sbr_q(
    blocks: list[WYBlock],
    X: np.ndarray,
    method: str = "blocked",
    group_width: int = 128,
    ctx: ExecutionContext | None = None,
) -> None:
    """In place ``X <- Q_sbr X`` with ``Q_sbr = Q_0 Q_1 ... Q_{p-1}``.

    ``method`` selects the schedule (see module docstring); all methods are
    numerically equivalent.  ``X`` is a host array; with a non-host
    backend it is staged to the device for the GEMMs and written back.
    """
    ctx = resolve_context(ctx)
    n = X.shape[0]
    Xd = X if ctx.is_numpy else ctx.from_numpy(np.ascontiguousarray(X))
    if method == "blocked":
        if ctx.is_numpy:
            for blk in reversed(blocks):
                blk.apply_left(X)
        else:
            for blk in reversed(blocks):
                W, Y = ctx.from_numpy(blk.W), ctx.from_numpy(blk.Y)
                sub = Xd[blk.offset :]
                sub -= W @ (Y.T @ sub)
    elif method == "recursive":
        W, Y = merge_blocks_recursive(blocks, n, ctx=ctx)
        Xd -= W @ (Y.T @ Xd)
    elif method == "incremental":
        for W, Y in reversed(merge_blocks_grouped(blocks, n, group_width, ctx=ctx)):
            Xd -= W @ (Y.T @ Xd)
    else:
        raise ValueError(f"unknown back-transform method {method!r}")
    if Xd is not X:
        X[...] = ctx.to_numpy(Xd)


def apply_sbr_q_transpose(
    blocks: list[WYBlock],
    X: np.ndarray,
    method: str = "blocked",
    group_width: int = 128,
    ctx: ExecutionContext | None = None,
) -> None:
    """In place ``X <- Q_sbr^T X`` (forward block order)."""
    ctx = resolve_context(ctx)
    n = X.shape[0]
    Xd = X if ctx.is_numpy else ctx.from_numpy(np.ascontiguousarray(X))
    if method == "blocked":
        if ctx.is_numpy:
            for blk in blocks:
                blk.apply_left_transpose(X)
        else:
            for blk in blocks:
                W, Y = ctx.from_numpy(blk.W), ctx.from_numpy(blk.Y)
                sub = Xd[blk.offset :]
                sub -= Y @ (W.T @ sub)
    elif method == "recursive":
        W, Y = merge_blocks_recursive(blocks, n, ctx=ctx)
        Xd -= Y @ (W.T @ Xd)
    elif method == "incremental":
        for W, Y in merge_blocks_grouped(blocks, n, group_width, ctx=ctx):
            Xd -= Y @ (W.T @ Xd)
    else:
        raise ValueError(f"unknown back-transform method {method!r}")
    if Xd is not X:
        X[...] = ctx.to_numpy(Xd)


def q_from_blocks(
    blocks: list[WYBlock],
    n: int,
    method: str = "blocked",
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Materialize ``Q_sbr`` (tests / small problems)."""
    Q = np.eye(n)
    apply_sbr_q(blocks, Q, method=method, ctx=ctx)
    return Q


def assemble_eigenvectors(
    blocks: list[WYBlock],
    bc: BulgeChasingResult,
    U: np.ndarray,
    method: str = "blocked",
    group_width: int = 128,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Full eigenvector back transformation ``V = Q_sbr (Q1 U)``.

    ``U`` holds the tridiagonal eigenvectors (columns).  Returns a new
    host array; ``U`` is not modified.  ``Q1`` is applied on the host
    (diamond-blocked compact WY for wavefront results, the scalar log
    otherwise); the SBR factor runs on the context's backend.
    """
    ctx = resolve_context(ctx)
    U = np.asarray(U)
    dt = U.dtype if U.dtype in (np.float32, np.float64) else np.float64
    V = np.array(U, dtype=dt, copy=True)
    bc.apply_q1(V)
    apply_sbr_q(blocks, V, method=method, group_width=group_width, ctx=ctx)
    return V
