"""Blocked direct (one-stage) tridiagonalization — the cuSOLVER ``Dsytrd``
baseline.

This is the classic LAPACK ``sytrd``/``latrd`` algorithm (Dongarra,
Sorensen, Hammarling 1989): panels of ``block`` columns are reduced with
Householder reflectors; within a panel each column update needs a symmetric
matrix-vector product against the *virtually updated* trailing matrix
(``p = (A - V W^T - W V^T) v``), and at the end of the panel the trailing
matrix receives one rank-``2*block`` update.  Each panel's reflectors are
recorded as one compact-WY block, so the back transformation is a blocked
``ormtr``-style apply.

Roughly half the floating-point work sits in the per-column ``symv`` —
a BLAS2, memory-bound operation.  That is exactly why direct
tridiagonalization tops out near ~2 TFLOPs on an H100 (Figure 4, left pie)
and why the two-stage approach exists.  We implement it both as the
correctness baseline and as the algorithm whose cost decomposition
``models.baselines`` prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .back_transform import q_from_blocks
from .blocks import WYBlock
from .householder import accumulate_wy, make_householder

__all__ = ["DirectTridiagResult", "direct_tridiagonalize"]


@dataclass
class DirectTridiagResult:
    """``A = Q @ tridiag(d, e) @ Q.T`` with ``Q = Q_0 Q_1 ... Q_{p-1}``.

    ``blocks[i]`` is panel ``i``'s compact-WY factor ``Q_i = I - W Y^T``
    (:class:`~repro.core.blocks.WYBlock`, the format SBR and DBBR
    record), embedded at rows ``j0 + 1:`` for the panel starting at
    column ``j0``.  ``Q`` is applied by the grouped WY apply
    (:func:`repro.core.back_transform.apply_sbr_q`), the ``ormtr``
    analogue.
    """

    d: np.ndarray
    e: np.ndarray
    blocks: list[WYBlock] = field(default_factory=list)
    flops: float = 0.0
    blas2_flops: float = 0.0

    @property
    def n(self) -> int:
        return self.d.size

    def q(self) -> np.ndarray:
        return q_from_blocks(self.blocks, self.n)


def direct_tridiagonalize(A: np.ndarray, block: int = 32) -> DirectTridiagResult:
    """Reduce symmetric ``A`` directly to tridiagonal form.

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric input (not modified).
    block : int
        Panel width ``nb`` (cuSOLVER/LAPACK typically use 32-64).

    Returns
    -------
    DirectTridiagResult
    """
    A = np.asarray(A)
    dt = A.dtype if A.dtype in (np.float32, np.float64) else np.float64
    A = np.array(A, dtype=dt, copy=True)
    n = A.shape[0]
    nb = max(1, int(block))
    blocks: list[WYBlock] = []
    flops = 0.0
    blas2 = 0.0

    j0 = 0
    while j0 < n - 2:
        jb = min(nb, n - 2 - j0)
        # Global-row, zero-padded panel factors (the latrd V and W).
        Vp = np.zeros((n, jb), dtype=dt)
        Wp = np.zeros((n, jb), dtype=dt)
        panel_taus = np.zeros(jb, dtype=dt)
        for jj in range(jb):
            c = j0 + jj
            if jj > 0:
                # Bring column c up to date with the panel's earlier pairs
                # (zero padding masks each pair to its own window).
                A[c:, c] -= Vp[c:, :jj] @ Wp[c, :jj] + Wp[c:, :jj] @ Vp[c, :jj]
                A[c, c + 1 :] = A[c + 1 :, c]
            v, tau, beta = make_householder(A[c + 1 :, c])
            A[c + 1 :, c] = 0.0
            A[c + 1, c] = beta
            A[c, c + 1 :] = 0.0
            A[c, c + 1] = beta
            Vp[c + 1 :, jj] = v
            panel_taus[jj] = tau
            # w = tau * B v against the virtually updated trailing matrix.
            p = A[c + 1 :, c + 1 :] @ v
            blas2 += 2.0 * (n - c - 1) ** 2
            if jj > 0:
                p -= Vp[c + 1 :, :jj] @ (Wp[c + 1 :, :jj].T @ v)
                p -= Wp[c + 1 :, :jj] @ (Vp[c + 1 :, :jj].T @ v)
                flops += 8.0 * (n - c - 1) * jj
            w = tau * p
            w -= (0.5 * tau * float(w @ v)) * v
            Wp[c + 1 :, jj] = w
        t0 = j0 + jb
        mt = n - t0
        A[t0:, t0:] -= Vp[t0:] @ Wp[t0:].T + Wp[t0:] @ Vp[t0:].T
        flops += 4.0 * mt * mt * jb
        # Reflector jj acts on rows j0 + jj + 1:, so Vp[j0 + 1:] is unit
        # lower trapezoidal: the panel's Y.
        W, Y = accumulate_wy(Vp[j0 + 1 :], panel_taus)
        blocks.append(WYBlock(W=W, Y=Y, offset=j0 + 1))
        j0 += jb

    d = np.diagonal(A).copy()
    e = np.diagonal(A, -1).copy()
    total = flops + blas2
    return DirectTridiagResult(
        d=d, e=e, blocks=blocks, flops=total, blas2_flops=blas2
    )
