"""Back transformation: assembling eigenvectors from the reduction factors.

After the two-stage reduction ``A = Q_sbr (Q1 T Q1^T) Q_sbr^T`` and the
tridiagonal solve ``T = U Lambda U^T``, the eigenvectors of ``A`` are

    V = Q_sbr @ Q1 @ U.

``Q1`` (bulge chasing) is applied by the chase result
(:meth:`repro.core.bulge_chasing.BulgeChasingResult.apply_q1`); this module
provides the **SBR back transformation** ``X <- Q_sbr X`` as one grouped
compact-WY apply (Section 4.3).  Consecutive panel blocks are merged left
to right, ``W <- [W1 | W2 - W1 Y1^T W2]``, until a group is at least
``group_width`` columns wide, and each group is applied with one GEMM pair
over the rows it touches.  The schedules the paper compares are widths of
this one loop:

* ``group_width <= b`` — MAGMA's ``ormqr`` order: no merging, one
  width-``b`` GEMM pair per panel (the skinny shape of Section 4.3);
* ``group_width = k`` — Figure 13: groups of width ``k`` bound the extra
  merge flops while keeping the GEMM inner dimension large;
* ``group_width >= sum of block widths`` — Algorithm 3: a single
  ``(W, Y)`` for the whole of ``Q_sbr``.

All widths produce the same ``Q_sbr`` to machine precision; the tests
assert it and the Figure 14 bench prices them.

The one-stage direct reduction records its ``sytrd`` panels in the same
:class:`~repro.core.blocks.WYBlock` format, so its whole ``Q`` goes
through this apply too (the blocked ``ormtr`` analogue).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from .blocks import WYBlock

__all__ = [
    "apply_sbr_q",
    "apply_sbr_q_transpose",
    "q_from_blocks",
]


def _sbr_groups(
    blocks: list[WYBlock], group_width: int, ctx: ExecutionContext
) -> list[tuple[int, Any, Any]]:
    """Merge consecutive blocks into ``(offset, W, Y)`` groups, in product
    order: ``Q_sbr = prod_g (I - W_g Y_g^T)`` with group ``g`` acting on
    rows ``offset:`` only.

    A group grows until it is at least ``group_width`` wide.  A block
    starting ``d`` rows below its group is zero-padded to the group's
    rows; ``Y1^T W2`` only needs the ``d:`` rows the block touches.
    """
    if group_width < 1:
        raise ValueError(f"group_width must be >= 1, got {group_width}")
    xp = ctx.xp
    groups: list[tuple[int, Any, Any]] = []
    for blk in blocks:
        W2, Y2 = ctx.from_numpy(blk.W), ctx.from_numpy(blk.Y)
        if (
            not groups
            or groups[-1][1].shape[1] >= group_width
            or blk.offset < groups[-1][0]
        ):
            groups.append((blk.offset, W2, Y2))
            continue
        off, W1, Y1 = groups[-1]
        d = blk.offset - off
        W2p = xp.zeros((W1.shape[0], blk.width), dtype=blk.W.dtype)
        Y2p = xp.zeros((W1.shape[0], blk.width), dtype=blk.W.dtype)
        W2p[d:] = W2
        Y2p[d:] = Y2
        # (I - W1 Y1^T)(I - W2 Y2^T) = I - [W1 | W2 - W1 Y1^T W2] [Y1 | Y2]^T
        W2p = W2p - W1 @ (Y1[d:].T @ W2)
        groups[-1] = (off, xp.hstack([W1, W2p]), xp.hstack([Y1, Y2p]))
    return groups


def _apply(
    blocks: list[WYBlock],
    X: np.ndarray,
    group_width: int,
    ctx: ExecutionContext | None,
    transpose: bool,
) -> None:
    ctx = resolve_context(ctx)
    Xd = X if ctx.is_numpy else ctx.from_numpy(np.ascontiguousarray(X))
    groups = _sbr_groups(blocks, group_width, ctx)
    if transpose:
        for off, W, Y in groups:
            sub = Xd[off:]
            sub -= Y @ (W.T @ sub)
    else:
        for off, W, Y in reversed(groups):
            sub = Xd[off:]
            sub -= W @ (Y.T @ sub)
    if Xd is not X:
        X[...] = ctx.to_numpy(Xd)


def apply_sbr_q(
    blocks: list[WYBlock],
    X: np.ndarray,
    group_width: int = 1,
    ctx: ExecutionContext | None = None,
    *,
    method: str = "incremental",
) -> None:
    """In place ``X <- Q_sbr X`` with ``Q_sbr = Q_0 Q_1 ... Q_{p-1}``.

    ``group_width`` is the merge width of the grouped compact-WY apply
    (see the module docstring); every width is numerically equivalent,
    and a width of at most the panel width applies the blocks one by
    one.  ``X`` is a host array; with a non-host backend it is staged to
    the device for the GEMMs and written back.

    ``method`` accepts only ``"incremental"``: the EVD benchmark's
    back-transform replay (``benchmarks/evd/evd_worker.py``) still passes
    ``TridiagResult.back_transform_method`` here.
    """
    if method != "incremental":
        raise ValueError(
            f"unknown back-transform method {method!r}: the SBR back "
            "transform has one method, 'incremental'; choose the schedule "
            "with group_width"
        )
    _apply(blocks, X, group_width, ctx, transpose=False)


def apply_sbr_q_transpose(
    blocks: list[WYBlock],
    X: np.ndarray,
    group_width: int = 1,
    ctx: ExecutionContext | None = None,
) -> None:
    """In place ``X <- Q_sbr^T X`` (forward group order)."""
    _apply(blocks, X, group_width, ctx, transpose=True)


def q_from_blocks(
    blocks: list[WYBlock],
    n: int,
    group_width: int = 1,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Materialize ``Q_sbr`` (tests / small problems)."""
    Q = np.eye(n)
    apply_sbr_q(blocks, Q, group_width, ctx)
    return Q
