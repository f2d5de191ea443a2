"""Double-blocking band reduction (DBBR) — the paper's Algorithm 1.

DBBR decouples the ``syr2k`` inner dimension from the bandwidth by using
*two* block sizes:

* ``b`` — the target bandwidth (kept small, e.g. 32, so the subsequent
  bulge chasing is fast);
* ``k`` — the *second* block size (large, e.g. 1024): the trailing-matrix
  update is deferred across ``k / b`` consecutive panels and then applied
  as a single rank-``2k`` update, where the GPU's ``syr2k`` is efficient
  (Table 1: on H100, k=64 → ~13 TFLOPs but k=1024 → ~43 TFLOPs).

Within an outer block, after each width-``b`` panel QR we only bring the
*next* panel up to date (Algorithm 1 lines 8–12, the "green panel"), using
the accumulated ``(Z, Y)`` pairs; the full trailing matrix beyond column
``i + k`` receives one accumulated update at the end of the outer block
(line 15).  Because later panels are factorized against a matrix that has
not yet received earlier panels' two-sided updates, the ``Z`` vector of a
later panel is computed against the *virtually updated* trailing matrix:

    B_cur = A_stored - Y_acc Z_acc^T - Z_acc Y_acc^T
    P     = B_cur W = A_stored W - Y_acc (Z_acc^T W) - Z_acc (Y_acc^T W)
    Z     = P - (1/2) Y (W^T P)

— three extra skinny GEMMs per panel, which is exactly the look-ahead
arithmetic MAGMA's two-stage reduction performs and the paper folds into
the DBBR cost.

``k == b`` is classic single-blocking SBR (MAGMA's ``Dsy2sb``, the
baseline of Figure 9): every outer block holds one panel and the deferred
update is the immediate one, so the ``sbr`` method and the ``magma``
preset run this function with ``second_block = bandwidth``.

The deferred update is one GEMM ``P = Y_acc Z_acc^T`` and an in-place
``A -= P + P^T`` (bit-identical to ``syr2k_reference`` with
``alpha = -1``, without its three trailing-size temporaries).  The
Figure-7 square-block schedule (:func:`repro.core.syr2k.syr2k_square_blocked`)
is the paper's GPU kernel and stays the benchmarked one; on a host BLAS
its many small tile GEMMs are slower than two large ones (EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..plan.planner import _as_int
from .blocks import BandReductionResult, WYBlock
from .panel_qr import _panel_wy

__all__ = ["dbbr"]

def dbbr(
    A: np.ndarray,
    bandwidth: int,
    second_block: int,
    ctx: ExecutionContext | None = None,
) -> BandReductionResult:
    """Reduce symmetric ``A`` to bandwidth ``b`` with double blocking.

    Parameters
    ----------
    A : (n, n) ndarray
        Symmetric input (not modified).
    bandwidth : int
        First block size ``b`` = target bandwidth.
    second_block : int
        Second block size ``k``; the deferred update spans ``k`` columns.
        Must be a positive multiple of ``bandwidth`` (the paper uses
        ``b = 32, k = 1024``).  ``k == b`` is classic SBR.
    ctx : ExecutionContext, optional
        Execution context; BLAS3 work (accumulated GEMMs and the deferred
        rank-2k update) runs on its backend, panel QR stays on the host
        (LAPACK ``?geqrt``, see :func:`repro.core.panel_qr._panel_wy`).

    Returns
    -------
    BandReductionResult
        ``A == Q @ band @ Q.T``; WY blocks are recorded per panel, in
        factorization order, so every ``k`` gives the same blocks up to
        roundoff (host arrays regardless of backend).

    Raises
    ------
    ValueError
        Non-square ``A``; a ``bandwidth``/``second_block`` that is not an
        integer (``bool`` and fractional values included) or is below 1;
        ``second_block`` not a multiple of ``bandwidth``.
    """
    ctx = resolve_context(ctx)
    xp = ctx.xp
    A = xp.array(ctx.asarray(A), copy=True)
    n = A.shape[0]
    b = _as_int("bandwidth", bandwidth)
    k = _as_int("second_block", second_block)
    if tuple(A.shape) != (n, n):
        raise ValueError("A must be square")
    if k < b or k % b != 0:
        raise ValueError(f"second_block ({k}) must be a positive multiple of bandwidth ({b})")

    blocks: list[WYBlock] = []
    flops = 0.0
    nelim = max(0, n - b - 1)

    i = 0
    while i < nelim:
        kk = min(k, nelim - i)
        # Global-row accumulators for this outer block (zero above each
        # panel's own starting row, so one GEMM covers all panels); the
        # first ``c`` columns hold the panels factorized so far.
        Yacc = xp.zeros((n, kk), dtype=A.dtype)
        Zacc = xp.zeros((n, kk), dtype=A.dtype)
        c = 0

        j = i
        while j < i + kk:
            bw = min(b, i + kk - j)
            r0 = j + b
            m = n - r0
            rows = slice(r0, n)

            Ya, Za = Yacc[:, :c], Zacc[:, :c]
            if c > 0:
                # Lazy "green panel" update: bring the about-to-be-
                # factorized panel columns up to date with every
                # accumulated (Z, Y) pair (Algorithm 1 lines 8-12).  Rows
                # start at ``j`` (not ``j+b``) so the in-band diagonal
                # block receives its update too; the zero padding of the
                # global accumulators masks each pair to its own trailing
                # window automatically.
                urows = slice(j, n)
                cols = slice(j, j + bw)
                upd = Ya[urows] @ Za[cols].T + Za[urows] @ Ya[cols].T
                A[urows, cols] -= upd
                A[cols, urows] = xp.copy(A[urows, cols].T)
                flops += 4.0 * (n - j) * bw * c

            # Host-side panel factorization: one LAPACK ?geqrt call, as
            # MAGMA's sy2sb does.
            W, Y, R = _panel_wy(ctx.to_numpy(A[rows, j : j + bw]))
            flops += 2.0 * m * bw * bw
            Wd, Yd = ctx.from_numpy(W), ctx.from_numpy(Y)

            A[rows, j : j + bw] = 0.0
            A[r0 : r0 + bw, j : j + bw] = ctx.from_numpy(R)
            A[j : j + bw, rows] = A[rows, j : j + bw].T

            # Z against the virtually updated trailing matrix.
            P = A[rows, rows] @ Wd
            flops += 2.0 * m * m * bw
            if c > 0:
                P -= Ya[rows] @ (Za[rows].T @ Wd)
                P -= Za[rows] @ (Ya[rows].T @ Wd)
                flops += 8.0 * m * bw * c
            Z = P - 0.5 * Yd @ (Wd.T @ P)
            flops += 4.0 * m * bw * bw

            Yacc[rows, c : c + bw] = Yd
            Zacc[rows, c : c + bw] = Z
            c += bw

            blocks.append(WYBlock(W=W, Y=Y, offset=r0))
            last_panel = (Wd, Yd, r0, bw)
            j += bw

        # Deferred rank-2k trailing update (Algorithm 1 line 15) — the
        # syr2k now runs with inner dimension kk instead of b.  The zero
        # padding of the accumulators masks each pair to its own trailing
        # window, so one accumulated update is exact.  In place, and
        # ``P + P^T`` is exactly symmetric.
        t0 = i + kk
        mt = n - t0
        if mt > 0:
            P = Yacc[t0:] @ Zacc[t0:].T
            A[t0:, t0:] -= P + P.T
            flops += 2.0 * mt * mt * kk

        Wl, Yl, r0l, bwl = last_panel
        if bwl < b:
            # Short (final) panel: the in-band columns t0 .. r0l-1 lie to
            # the left of the last reflector window and receive only its
            # left-side update Q^T S.  Earlier pairs' (two-sided, masked)
            # contributions were just applied by the accumulated syr2k, so
            # applying the left factor now preserves the operator order.
            S = A[r0l:, t0:r0l]
            S -= Yl @ (Wl.T @ S)
            A[t0:r0l, r0l:] = S.T
        i += kk

    # Scrub roundoff outside the band so the output is an exact band matrix.
    _zero_off_band(A, b)
    return BandReductionResult(
        band=ctx.to_numpy(A), bandwidth=b, blocks=blocks, flops=flops
    )


def _zero_off_band(A, b: int) -> None:
    """Zero entries strictly outside bandwidth ``b`` (roundoff residue),
    row by row: no ``n x n`` index or mask temporary."""
    n = A.shape[0]
    for r in range(n):
        A[r, : max(r - b, 0)] = 0.0
        A[r, r + b + 1 :] = 0.0
