"""Blocked bulge-chasing back transformation — the paper's future work.

Section 6.2/8: applying the bulge-chasing reflectors to the eigenvector
matrix ("the back transformation in BC", ``Q1``) dominates the eigenvector
path (61% of the proposed EVD) and is left as future work.  Applied one at
a time it is ``~n^2/(2b)`` rank-1 updates of length ``b`` over ``n``
columns — pure BLAS2.

This module blocks the reflectors the way MAGMA and ELPA2 do, by
**diamonds**: ``H(i, t)``, the reflector of sweep ``i`` step ``t``, acts
on rows ``[i+1+t*b, i+1+(t+1)*b)``, so the step-``t`` reflectors of ``g``
consecutive sweeps ``i0 .. i0+g-1`` sit on windows shifted by one row
each.  Their compact-WY factor ``I - V T V^T`` has a dense
``(b+g-1) x g`` lower-trapezoidal ``V`` of real inner width ``g``.
(Reflectors of one sweep sit on *disjoint* windows, so grouping them
instead gives a block-diagonal factor whose GEMMs mostly multiply zeros.)

Two reflectors conflict only as ``(i, t) -> (j, t-k)`` with ``j > i`` and
``k >= 0``, so the block order "``i0`` ascending, ``t`` descending,
sweeps ascending inside a block" is a topological order of the task DAG
— the product equals every driver's commit-order ``Q1``, for the
unbounded schedule and a ``max_sweeps`` cap alike.

:func:`q1_blocks` builds every block at once (one scatter of the
reflector stack, a batched forward ``larft`` for all ``T``);
:func:`apply_q1_blocks` forms ``W = V T`` for all blocks with one batched
GEMM and applies each block as two GEMMs, ``X[o:o+R] -= W (V^T X[o:o+R])``,
on a contiguous row slice.  The operand is row-major in production (the
D&C returns a C-ordered eigenvector matrix), so a slice of ``R`` rows is
one stretch of memory.  :func:`blocked_bc_back_time` prices the scheme
at device scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..gpusim.device import DeviceSpec

__all__ = [
    "Q1_GROUP",
    "Q1Blocks",
    "q1_blocks",
    "apply_q1_blocks",
    "blocked_bc_back_time",
]

#: Sweeps per diamond block (``g``), fixed.  On a row-major operand with
#: two BLAS threads and b = 32, whole solves with vectors put 8 within
#: the run-to-run spread of the best width at n = 1024 (12 in fp64, 16
#: in mixed) and fastest at n = 2048, where 12 and 16 took 1.4–1.5x as
#: long in ``Q1`` (EXPERIMENTS.md).
Q1_GROUP = 8


@dataclass
class Q1Blocks:
    """Diamond blocks of ``Q1``, in application order for ``Q1^T``.

    Block ``k`` is ``I - V[k] T[k] V[k]^T`` acting on global rows
    ``[offsets[k], offsets[k] + V.shape[1])``; rows at or past ``n`` hold
    exact zeros.
    """

    V: np.ndarray  # (B, b+g-1, g)
    T: np.ndarray  # (B, g, g), upper triangular
    offsets: np.ndarray  # (B,) int64

    @property
    def count(self) -> int:
        return self.offsets.size


def q1_blocks(
    sweeps: np.ndarray,
    steps: np.ndarray,
    V: np.ndarray,
    tau: np.ndarray,
    group: int = Q1_GROUP,
) -> Q1Blocks:
    """Group reflectors ``H(i, t) = I - tau v v^T`` into diamond blocks.

    ``V`` is the ``(N, b)`` reflector stack (row ``s`` acting on rows
    ``[sweeps[s] + 1 + steps[s]*b, ... + b)``, clipped tails zero), in
    any order; the arithmetic stays in ``V``'s dtype.  Slots of a block
    with no reflector get ``tau = 0`` (the identity).
    """
    if group < 1:
        raise ValueError("group must be >= 1")
    b = V.shape[1]
    sweeps = np.asarray(sweeps, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    g = min(group, int(sweeps.max(initial=0)) + 1)
    col = sweeps % g
    # Block order: sweep group ascending, step descending.
    tmax = int(steps.max(initial=0))
    keys, blk = np.unique(
        (sweeps // g) * (tmax + 1) + (tmax - steps), return_inverse=True
    )
    nb = keys.size
    Vb = np.zeros((nb, b + g - 1, g), dtype=V.dtype)
    for r in range(b):  # 1-D scatters: no (N, b) index arrays
        Vb[blk, col + r, col] = V[:, r]
    taub = np.zeros((nb, g), dtype=V.dtype)
    taub[blk, col] = tau
    # Batched forward larft, T[:j, j] = -tau_j T[:j, :j] (V[:, :j]^T v_j),
    # built in place over the upper triangle of the Gram matrix V^T V.
    T = np.matmul(Vb.transpose(0, 2, 1), Vb)
    T[:, np.tri(g, k=-1, dtype=bool)] = 0.0
    T[:, 0, 0] = taub[:, 0]
    for j in range(1, g):
        T[:, :j, j] = -taub[:, j, None] * np.matmul(T[:, :j, :j], T[:, :j, j, None])[..., 0]
        T[:, j, j] = taub[:, j]
    offsets = (keys // (tmax + 1)) * g + 1 + (tmax - keys % (tmax + 1)) * b
    return Q1Blocks(V=Vb, T=T, offsets=offsets)


def apply_q1_blocks(
    blocks: Q1Blocks, X: np.ndarray, transpose: bool = False
) -> None:
    """In place ``X <- Q1 X`` (reverse block order) or ``Q1^T X``
    (forward order, ``T^T``): ``X[o:o+R] -= W (V^T X[o:o+R])`` per block,
    with ``W = V T`` (``V T^T``) formed for every block by one batched
    GEMM.

    ``R`` is clipped at ``X.shape[0]`` (the clipped rows of ``V`` are
    zero), so ``X`` is updated on contiguous row slices in place — no
    gather, scatter or padded copy.  Every production operand is
    row-major, where a row slice is one contiguous stretch of memory.
    """
    n = X.shape[0]
    R = blocks.V.shape[1]
    W = np.matmul(blocks.V, blocks.T.transpose(0, 2, 1) if transpose else blocks.T)
    order = range(blocks.count) if transpose else range(blocks.count - 1, -1, -1)
    for k in order:
        o = int(blocks.offsets[k])
        r = min(R, n - o)
        sub = X[o : o + r]
        sub -= W[k, :r] @ (blocks.V[k, :r].T @ sub)


def blocked_bc_back_time(
    device: DeviceSpec,
    n: int,
    b: int,
    group: int = Q1_GROUP,
    ncols: int | None = None,
) -> float:
    """Device-scale cost of the diamond-blocked BC back transformation.

    ``~n^2/(2 b g)`` blocks, each two GEMMs over ``(b+g-1)``-row windows
    at inner width ``g`` (``Z = V^T X``, then ``X -= W Z``): the
    ``~2 n^2 ncols`` useful flops inflated by the extra ``g-1`` rows,
    rated by the sustained-GEMM curve instead of the rank-1
    (k = 1 .. b) rate; plus the batched build of every block's factors
    (``V^T V``, the ``g`` triangular products of ``larft`` and
    ``W = V T``).
    """
    # Imported here: the device model imports the chase geometry, whose
    # result type imports this module.
    from ..gpusim.roofline import sustained_gemm_tflops

    m_cols = ncols if ncols is not None else n
    g = max(group, 1)
    rows = b + g - 1
    nblocks = float(n) ** 2 / (2.0 * b * g)
    rate = sustained_gemm_tflops(device, rows, m_cols, g) * 1e12
    apply = nblocks * 4.0 * rows * g * m_cols / rate
    build = nblocks * (4.0 * rows * g * g + g**3 / 3.0)
    build_rate = sustained_gemm_tflops(device, rows, g, g) * 1e12
    return apply + build / max(build_rate, 1.0)
