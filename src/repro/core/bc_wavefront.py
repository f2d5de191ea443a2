"""Wavefront-batched bulge chasing — each pipeline round as one stacked op.

The pipelined schedule of :mod:`repro.core.bc_pipeline` — one sweep-start
recurrence, expanded into round-major ``(sweep, step)`` arrays — lets many
sweeps chase bulges concurrently under the ``2b`` spin-lock rule, but
executing that schedule one task at a time in Python leaves all the
parallelism on the table: it performs the same number of tiny NumPy
calls as the sequential chase and BC dominates every wall-clock
benchmark (the Figure 4 pathology the paper sets out to fix).

This module executes the schedule the way the paper's GPU does — one wide
operation per round — on a ``(2b+1) x (n + 3b)`` band-plus-bulge working
array (:class:`repro.band.storage.LowerBandStorage` convention, with
``3b`` zero padding columns so edge-clipped tasks keep full geometry).
The tasks of a round are pairwise data-disjoint (the spin-lock distance
separates their windows), so each round:

1. **gathers** the entries each task actually touches — the annihilated
   column and the ``b x (w-1)`` *parallelogram* ``A[row0:row0+b,
   col:col+w)`` — straight out of the packed band with one flat-index
   take (symmetric single-copy storage: no mirrored second copy ever
   moves);
2. generates the round's reflectors with one **batched Householder**
   (same arithmetic as
   :func:`repro.core.householder.batched_make_householder`), written
   straight into the result's reflector rows;
3. applies the two-sided update as **one rank-2 batched GEMM**,
   ``P <- P - L R`` with ``L = [tau v | u']`` and ``R = [v^T P ; 0 |
   tau v^T]`` — the left update of the whole parallelogram and the right
   update of the diagonal block (which reads the left-updated values,
   as the dense kernel's aliased views do) in one pass over the stack:
   the one-kernel-per-round execution of the paper's Algorithm 2, in
   NumPy dress; and
4. **scatters** the stacks back through the same cached index template.

Chase tasks (``t >= 1``) and the round's (at most one) sweep-start task
(``t = 0``) have different window shapes, but both are normalized onto a
single ``(b, 3b)`` index template — annihilated column first, diagonal
block last, the narrower start window padded with *dump* columns aimed
at the never-touched row ``2b`` of the working array — so the whole
round really is **one** gather / Householder / update / scatter.  Index
templates are built once, every workspace is preallocated and reused,
and steady-state rounds allocate almost nothing.

Each round's reflectors land in one preallocated host stack, next to
the schedule's round-major ``(sweep, step)`` arrays: the
:class:`~repro.core.bulge_chasing.BulgeChasingResult` both chase drivers
return.  The BC back transformation — the Section 6.2 bottleneck —
regroups the stack by diamonds (the step-``t`` reflectors of consecutive
sweeps, :mod:`repro.core.bc_back_transform`) so ``apply_q1`` runs as
two GEMMs per compact-WY block instead of one rank-1 update per
reflector.

The result is numerically the same chase as the sequential oracle
(:func:`repro.core.bulge_chasing.bulge_chase`): the schedule only
reorders commuting tasks, and per task the batched kernels perform the
same two-sided update, regrouped (the rank-2 form rounds in a different
order than the two rank-1 updates; ``allclose`` at 1e-12, asserted over
the test grid).  Single-task rounds — every round of the one-sweep
``max_sweeps=1`` order — run plain 2-D rank-1 updates instead, bit for
bit the dense kernel's.  The sequential driver remains the correctness
reference the tests compare against.
"""

from __future__ import annotations

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..band.storage import LowerBandStorage, PackedBandStorage
from ..resilience.errors import ReproError
from .bc_pipeline import PipelineStats, pipeline_schedule
from .bulge_chasing import BulgeChasingResult
from .householder import batched_make_householder, safe_sumsq_floor

__all__ = [
    "ChaseIndexError",
    "bulge_chase_wavefront",
]


class ChaseIndexError(ReproError, IndexError):
    """A round's index stack would address outside the working band.

    The regular-round gather runs ``take(..., mode="wrap")`` (NumPy
    buffers ``out=`` under ``mode="raise"``), so an out-of-range index
    would wrap silently; the kernel checks the stack extents explicitly
    and raises this instead.
    """


def _suffix_max(stack: np.ndarray) -> list[int]:
    """``out[p]`` = the largest entry of ``stack[p:]``."""
    row_max = stack.reshape(stack.shape[0], -1).max(axis=1)
    return np.maximum.accumulate(row_max[::-1])[::-1].tolist()


class _RoundKernel:
    """Index templates + reused workspaces for one round's stacked tasks.

    A task's window, relative to its annihilated column ``col``, is the
    reflector-row strip ``[col+sl, col+sl+b)`` over columns ``[col,
    col+wn)``: sweep-start tasks have ``(sl, wn) = (1, 2b+1)``, chase
    tasks ``(b, 3b)`` — uniform at every edge because the working band
    carries ``3b`` zero padding columns, so clipped tasks read/write
    zeros beyond ``n`` with no effect (their reflector tails come out
    zero).

    Window entry ``(i, j) = A[col+sl+i, col+j]``; by symmetry the stored
    copy sits at flat ``|sl+i-j| * npad + col + min(sl+i, j)``.  Both
    geometries are normalized onto one ``(b, 3b)`` template so a round is
    one stacked call:

    * column 0 is the annihilated column (one gather serves the batched
      Householder and the update);
    * the diagonal-block columns are permuted to the *end* — the right
      update's factor row ``[0 | tau v^T]`` is nonzero only on a
      contiguous trailing slice (the gather does not care about column
      order);
    * the narrower start template is padded with *dump* columns aimed at
      row ``2b`` of the working array, which no task ever touches (fill
      depth is at most ``2b - 1``): they gather zeros, update to zeros,
      and scatter zeros back.

    **Regular rounds** — in-flight chase tasks exactly ``3b - 1`` columns
    apart, the start task (if any) exactly ``2b`` columns behind the
    newest chase task, which is every multi-task round of the unbounded
    schedule — have a fixed index pattern relative to the newest task's
    column.  Two stacks of that pattern (rounds with and without a start
    task) are built once for ``cap`` tasks; a regular round gathers and
    scatters a contiguous slice of one through the view ``flat[base:]``,
    with no per-round index arithmetic.  Every other round adds its
    columns to the templates into a per-round index stack.

    Templates are int64 — fancy indexing recasts anything narrower to
    intp on every call — and all workspaces are preallocated for ``cap``
    tasks and reused (served from the execution context's
    :class:`~repro.backend.context.WorkspacePool`, so they live on the
    backend).  Schedule/index math stays host NumPy; only the per-round
    index stack crosses to the backend, together with the gathered
    values it addresses.  The regular stacks are used on the NumPy
    backend only.

    **The update.**  With ``wr = v^T P`` the left update is ``P - (tau v)
    wr``; the right update then subtracts ``u' (tau v)^T`` from the
    diagonal block ``D``, where ``u' = (D - tau v wr_D) v = D v - tau v
    (wr_D . v)`` is the left-updated block times ``v``.  The gathered
    ``D`` is exactly symmetric (both triangles read the same stored
    slots), so ``D v`` is ``wr_D`` itself.  Both updates are one batched
    ``(S, b, 2) @ (S, 2, 3b)`` GEMM and one subtraction.  On NumPy the
    reflectors are formed in the caller's result rows; other backends
    form them in pooled stacks and copy them to the host once per round.
    """

    def __init__(
        self, b: int, npad: int, ctx: ExecutionContext, cap: int, dtype=np.float64
    ):
        self.b = b
        self.w = w = 3 * b
        self.ctx = ctx
        self.xp = ctx.xp
        # Host-side working dtype of the band values: the round buffers
        # and reflector stacks must match the band's precision.
        self.dtype = dt = np.dtype(dtype)
        # A tail whose sigma is below this may have lost precision to
        # underflow; such rounds take the guarded kernel.
        self._sumsq_floor = safe_sumsq_floor(dt)
        self._dump = 2 * b * npad  # flat slot in the never-touched row 2b
        self.chase_tmpl = self._template(npad, sl=b, wn=3 * b)
        self.start_tmpl = self._template(npad, sl=1, wn=2 * b + 1)

        # Regular stacks, oldest task first (the round's order).  Chase
        # task q places behind the newest sits q * (3b - 1) columns right
        # of it.  Without a start task the base is the newest chase
        # column; with one, the start column, 2b columns to its left.
        q = (3 * b - 1) * np.arange(cap - 1, -1, -1, dtype=np.int64)
        self._chase_rel = self.chase_tmpl + q[:, None, None]
        self._start_rel = np.concatenate(
            [self._chase_rel[1:] + 2 * b, self.start_tmpl[None]]
        )
        # _ext[p] = largest index of the slice [p:] — the bound a round
        # starting at row p checks against the view's length.
        self._chase_ext = _suffix_max(self._chase_rel)
        self._start_ext = _suffix_max(self._start_rel)

        pool = ctx.workspace
        # Host index stack (schedule math is host-side by design).
        self._pi = np.empty((cap, b, w), dtype=np.int64)
        # Value stacks on the backend, pooled across runs.
        self._pv = pool.stack("bc.pv", (cap, b, w), dtype=dt)
        self._tmp = pool.stack("bc.tmp", (cap, b, w), dtype=dt)
        # The rank-2 factors P <- P - L R: L = [tau v | u'] and R = [v^T P ;
        # 0 | tau v^T], whose second row is zero left of the diagonal block.
        self._L = pool.stack("bc.L", (cap, b, 2), dtype=dt)
        self._R = pool.stack("bc.R", (cap, 2, w), dtype=dt)
        self._R[:, 1, : w - b] = 0.0
        self._sg = pool.stack("bc.sg", (cap, 1, 1), dtype=dt)
        self._dot = pool.stack("bc.dot", (cap, 1, 1), dtype=dt)
        if not ctx.is_numpy:
            # Off NumPy the reflectors are formed on the backend and copied
            # out; on NumPy they are written straight into the caller's rows.
            self._hv = pool.stack("bc.hv", (cap, b), dtype=dt)
            self._hv[:, 0] = 1.0
            self._htau = pool.stack("bc.htau", (cap,), dtype=dt)

    def _template(self, npad: int, sl: int, wn: int) -> np.ndarray:
        b, w = self.b, self.w
        i = np.arange(b, dtype=np.int64)[:, None]
        j = np.arange(wn, dtype=np.int64)[None, :]
        tm = np.abs(sl + i - j) * npad + np.minimum(sl + i, j)
        cols = [0] + [c for c in range(1, wn) if not sl <= c < sl + b]
        full = np.full((b, w), self._dump, dtype=np.int64)
        full[:, : len(cols)] = tm[:, cols]
        full[:, w - b :] = tm[:, sl : sl + b]  # diagonal block, last
        return full

    def run(
        self,
        flat: np.ndarray,
        chase_los: np.ndarray,
        start_lo: int | None,
        regular: bool,
        V_out: np.ndarray,
        tau_out: np.ndarray,
    ) -> None:
        """Execute one round — chase stack plus optional start task.

        Writes the round's reflectors into the host rows ``V_out`` /
        ``tau_out`` with the chase reflectors first (sweep ascending, as
        the scheduler orders them) and the start reflector last.  Same
        task as :func:`repro.core.bulge_chasing.apply_bc_task`: annihilate
        the column, left-update the full parallelogram, right-update the
        diagonal block reading the left-updated values — here both
        updates in one rank-2 product ``P <- P - L R`` (class docstring).
        (The update also touches gathered column 0, whose final value —
        ``beta e_1`` — is simply written over it before the scatter.)
        ``regular`` marks a round with the regular spacing (see the class
        docstring); it gathers through the precomputed stacks.
        """
        nc = chase_los.size
        S = nc + (start_lo is not None)
        if S == 1:
            if nc:
                V, tau = self._run_one(flat, self.chase_tmpl, int(chase_los[0]))
            else:
                V, tau = self._run_one(flat, self.start_tmpl, start_lo)
            V_out[...] = self.ctx.to_numpy(V)
            tau_out[...] = self.ctx.to_numpy(tau)
            return
        b, w = self.b, self.w
        xp = self.xp
        on_host = self.ctx.is_numpy

        P = self._pv[:S]
        if regular and on_host:
            if start_lo is None:
                base = int(chase_los[-1])
                p = self._chase_rel.shape[0] - S
                stack, ext = self._chase_rel, self._chase_ext[p]
            else:
                base = start_lo
                p = self._start_rel.shape[0] - S
                stack, ext = self._start_rel, self._start_ext[p]
            if base < 0 or base + ext >= flat.size:
                raise ChaseIndexError(
                    f"round at column {base} addresses flat index "
                    f"{base + ext} of a {flat.size}-entry working band"
                )
            # mode="wrap" lets take write straight into P (mode="raise"
            # buffers out=); the check above keeps every index in range.
            target = flat[base:]
            pix = stack[p:]
            np.take(target, pix, out=P, mode="wrap")
        else:
            pi = self._pi[:S]
            np.add(self.chase_tmpl[None, :, :], chase_los[:, None, None], out=pi[:nc])
            if start_lo is not None:
                np.add(self.start_tmpl, start_lo, out=pi[nc])
            # The only per-round host->backend crossing: the index stack.
            target = flat
            pix = pi if on_host else self.ctx.from_numpy(pi)
            xp.take(flat, pix, out=P)

        # Batched Householder on the gathered columns, written straight
        # into the result rows on NumPy; the guarded general kernel handles
        # the rare rows that are already annihilated (sigma == 0) or too
        # tiny to square.
        X1 = P[:, 1:, 0]
        sg = self._sg[:S]
        xp.matmul(X1[:, None, :], X1[:, :, None], out=sg)  # batched dot
        sigma = sg[:, 0, 0]
        alpha = P[:, 0, 0]  # read before the update below touches P
        if sigma.min() >= self._sumsq_floor:
            V = V_out if on_host else self._hv[:S]
            tau = tau_out if on_host else self._htau[:S]
            V[:, 0] = 1.0
            beta = -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha)
            xp.divide(X1, (alpha - beta)[:, None], out=V[:, 1:])
            xp.subtract(beta, alpha, out=tau)
            xp.divide(tau, beta, out=tau)
        else:
            V, tau, beta = batched_make_householder(xp.copy(P[:, :, 0]), xp=xp)

        # Both updates as one rank-2 product P <- P - L R (class docstring).
        L, R = self._L[:S], self._R[:S]
        tv, u = L[:, :, 0], L[:, :, 1]
        xp.multiply(tau[:, None], V, out=tv)
        xp.matmul(V[:, None, :], P, out=R[:, :1, :])  # R row 0: wr
        wrD = R[:, 0, w - b :]
        dot = self._dot[:S]
        xp.matmul(wrD[:, None, :], V[:, :, None], out=dot)  # wr_D . v
        xp.multiply(tv, dot[:, 0], out=u)
        xp.subtract(wrD, u, out=u)
        R[:, 1, w - b :] = tv
        tmp = self._tmp[:S]
        xp.matmul(L, R, out=tmp)
        xp.subtract(P, tmp, out=P)

        P[:, :, 0] = 0.0
        P[:, 0, 0] = beta
        target[pix] = P
        if V is not V_out:
            V_out[...] = self.ctx.to_numpy(V)
            tau_out[...] = self.ctx.to_numpy(tau)

    def _run_one(
        self, flat: np.ndarray, tmpl: np.ndarray, lo: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar fast path: one task, plain 2-D ops, no stacked machinery."""
        b, w = self.b, self.w
        xp = self.xp
        pi = tmpl + lo
        pix = pi if self.ctx.is_numpy else self.ctx.from_numpy(pi)
        P = flat[pix]
        # Scalar Householder on column 0 (same arithmetic as
        # :func:`repro.core.householder.make_householder`); the scalars
        # stay 0-dim backend arrays so nothing round-trips to the host.
        x1 = P[1:, 0]
        sigma = x1 @ x1
        alpha = P[0, 0]
        if sigma >= self._sumsq_floor:
            v = xp.empty(b, dtype=self.dtype)
            v[0] = 1.0
            beta = -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha)
            xp.divide(x1, alpha - beta, out=v[1:])
            tau = (beta - alpha) / beta
        else:
            V, taus, betas = batched_make_householder(xp.copy(P[:, 0])[None, :], xp=xp)
            v, tau, beta = V[0], taus[0], betas[0]
        tv = tau * v
        P -= tv[:, None] * (v @ P)[None, :]
        D = P[:, w - b :]
        D -= (D @ v)[:, None] * tv[None, :]
        P[:, 0] = 0.0
        P[0, 0] = beta
        flat[pix] = P
        return v[None, :], xp.asarray(tau).reshape(1)


def _total_chase_flops(n: int, b: int) -> float:
    """Flop total of a full chase — ``sum(bc_task_flops)`` vectorized.

    Both engines charge ``8 * length * (hi - lo)`` per task
    (:func:`repro.core.bulge_chasing.bc_task_flops`); the terms are small
    integers, so the float64 sum is exact and order-independent — the
    engines' reported ``flops`` compare equal.
    """
    if b < 2 or n < 3:
        return 0.0
    i = np.arange(n - 2, dtype=np.int64)
    # t = 0: reflector rows [i+1, min(i+1+b, n)), window [i, min(row1+b, n)).
    row1 = np.minimum(i + 1 + b, n)
    total = np.sum(8.0 * (row1 - (i + 1)) * (np.minimum(row1 + b, n) - i))
    # t >= 1: col = i+1+(t-1)b exists while length >= 2, i.e. i <= n-3-t*b.
    for t in range(1, (n - 3) // b + 1):
        i = np.arange(n - 2 - t * b, dtype=np.int64)
        col = i + 1 + (t - 1) * b
        row1 = np.minimum(col + 2 * b, n)
        total += np.sum(8.0 * (row1 - (col + b)) * (np.minimum(row1 + b, n) - col))
    return float(total)


def _regular_rounds(cols: np.ndarray, bounds: np.ndarray, b: int) -> np.ndarray:
    """Per-round flag: a multi-task round whose consecutive tasks are all
    ``3b - 1`` columns apart.

    Between chase tasks that is the in-flight spacing of the unbounded
    schedule; against a start task's ``cols`` entry ``i + 1 - b`` it says
    the start column ``i`` sits ``2b`` behind the newest chase task.
    Such a round has the fixed index pattern of
    :class:`_RoundKernel`'s regular stacks.
    """
    off = np.concatenate([[0], np.cumsum(np.diff(cols) != 1 - 3 * b)])
    lo, last = bounds[:-1], bounds[1:] - 1
    return (last > lo) & (off[last] == off[lo])


def _coerce_band(band, b: int | None) -> LowerBandStorage:
    if isinstance(band, LowerBandStorage):
        return band
    if isinstance(band, PackedBandStorage):
        return band.to_lower_band()
    A = np.asarray(band)
    if A.dtype not in (np.float32, np.float64):
        A = A.astype(np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("band must be LowerBandStorage, PackedBandStorage, "
                         "or a square dense array")
    if b is None:
        raise ValueError("bandwidth required for dense input")
    return LowerBandStorage.from_dense(A, b)


def bulge_chase_wavefront(
    band,
    b: int | None = None,
    max_sweeps: int | None = None,
    ctx: ExecutionContext | None = None,
) -> tuple[BulgeChasingResult, PipelineStats]:
    """Wavefront-batched bulge chasing of a symmetric band matrix.

    Executes the pipelined multi-sweep schedule with each round's tasks
    gathered, reflected, updated and scattered as one stacked NumPy
    operation over the ``(2b+1) x n`` working band — the default BC path
    of :func:`repro.core.tridiag.tridiagonalize`.

    Parameters
    ----------
    band : LowerBandStorage | PackedBandStorage | (n, n) ndarray
        Symmetric band matrix (dense input requires ``b``).
    b : int, optional
        Bandwidth (taken from the storage object when given).
    max_sweeps : int, optional
        In-flight sweep cap ``S`` (None = unbounded).  Capped or not, the
        round-major task order comes from
        :func:`repro.core.bc_pipeline.pipeline_schedule`'s closed-form
        sweep-start recurrence.
    ctx : ExecutionContext, optional
        Execution context: the working band lives on its backend and
        every round's gather / batched-Householder / update / scatter
        executes there (round workspaces come from the context's pool).
        Schedule construction and the reflector stack handed back stay on
        the host.

    Returns
    -------
    (result, stats)
        ``result`` matches the sequential oracle
        :func:`repro.core.bulge_chasing.bulge_chase` to 1e-12; its
        reflector stack is in the schedule's round-major order.  ``stats``
        is the same pipeline schedule statistic
        :func:`repro.core.bc_pipeline.pipeline_schedule` reports.
    """
    ctx = resolve_context(ctx)
    xp = ctx.xp
    lb = _coerce_band(band, b)
    bw, n = lb.b, lb.n
    if bw < 1:
        raise ValueError("bandwidth must be >= 1")
    # 3b zero padding columns give every task full uniform geometry; the
    # padded region only ever sees zero arithmetic, so it stays zero.
    # The working band is backend-resident: every round executes in place
    # on it and only the reflector stacks come back to the host.
    npad = n + 3 * bw
    # lb.ab is always a host array, so its dtype is the working precision
    # (np.float64 historically, np.float32 under a mixed policy).
    band_dtype = lb.ab.dtype
    work = xp.zeros((2 * bw + 1, npad), dtype=band_dtype)
    work[: bw + 1, :n] = ctx.from_numpy(np.ascontiguousarray(lb.ab))
    # The kernels rely on out-of-matrix slots reading 0; enforce the
    # storage contract on the trailing entries (ab[i, j], i + j >= n).
    for i in range(1, bw + 1):
        work[i, n - i : n] = 0.0
    flat = work.reshape(-1)

    flops = 0.0
    if bw >= 2 and n >= 3:
        flops = _total_chase_flops(n, bw)
        sweeps, steps, stats = pipeline_schedule(n, bw, max_sweeps)
        # Round-major task arrays: round r is the segment
        # [bounds[r], bounds[r+1]), sweeps ascending, so its (at most one)
        # start task — the newest sweep — is last.  cols is the annihilated
        # column of chase tasks; a start task's entry i + 1 - b puts its
        # reflector offset at cols + b = i + 1 like every other task's.
        cols = sweeps + 1 + (steps - 1) * bw
        bounds = np.zeros(stats.rounds + 1, dtype=np.int64)
        np.cumsum(stats.occupancy, out=bounds[1:])
        start_of = np.where(steps[bounds[1:] - 1] == 0, sweeps[bounds[1:] - 1], -1)
        regular = _regular_rounds(cols, bounds, bw).tolist()
        start_of = start_of.tolist()
        bounds = bounds.tolist()

        V_all = np.empty((sweeps.size, bw), dtype=band_dtype)
        tau_all = np.empty(sweeps.size, dtype=band_dtype)
        kernel = _RoundKernel(bw, npad, ctx, stats.max_parallel, dtype=band_dtype)
        for r in range(stats.rounds):
            lo, hi = bounds[r], bounds[r + 1]
            start = start_of[r]
            chase = cols[lo : hi - 1] if start >= 0 else cols[lo:hi]
            # The stack is host-side (the Q1 application and downstream
            # consumers expect NumPy); each round fills its own rows.
            kernel.run(
                flat, chase, start if start >= 0 else None, regular[r],
                V_all[lo:hi], tau_all[lo:hi],
            )
    else:
        stats = PipelineStats()
        sweeps = steps = np.zeros(0, dtype=np.int64)
        V_all = np.zeros((0, bw), dtype=band_dtype)
        tau_all = np.zeros(0, dtype=band_dtype)

    result = BulgeChasingResult(
        d=ctx.to_numpy_copy(work[0, :n]),
        e=ctx.to_numpy_copy(work[1, : n - 1]),
        sweeps=sweeps,
        steps=steps,
        V=V_all,
        tau=tau_all,
        flops=flops,
    )
    return result, stats
