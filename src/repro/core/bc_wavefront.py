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
   :func:`repro.core.householder.batched_make_householder`);
3. applies the left update to the whole parallelogram stack and the
   right update to the diagonal-block slice (reading the left-updated
   values, as the dense kernel's aliased views do) as batched matmuls —
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

Reflectors stay in stacked form (:class:`BCWavefrontGroup`, one group
per round).  The BC back transformation — the Section 6.2 bottleneck —
regroups them by diamonds (the step-``t`` reflectors of consecutive
sweeps, :mod:`repro.core.bc_back_transform`) so ``apply_q1`` runs as
three GEMMs per compact-WY block instead of one rank-1 update per
reflector.

The result is numerically the same chase as the sequential oracle
(:func:`repro.core.bulge_chasing.bulge_chase`): the schedule only
reorders commuting tasks and the batched kernels perform the same
floating-point work per task up to summation order of the inner products
(``allclose`` at 1e-12; asserted over the test grid).  The sequential
driver remains the correctness reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend.context import ExecutionContext, resolve_context
from ..band.storage import LowerBandStorage, PackedBandStorage
from ..resilience.errors import ReproError
from .bc_pipeline import PipelineStats, pipeline_schedule
from .bc_back_transform import Q1Blocks, apply_q1_blocks, q1_blocks
from .bulge_chasing import BCReflector, BulgeChasingResult
from .householder import batched_make_householder

__all__ = [
    "BCWavefrontGroup",
    "ChaseIndexError",
    "WavefrontBCResult",
    "bulge_chase_wavefront",
]


@dataclass
class BCWavefrontGroup:
    """Reflectors of one pipeline round, in stacked form.

    Row ``s`` encodes ``H_s = I - tau[s] V[s] V[s]^T`` acting on global
    rows ``[offsets[s], offsets[s] + V.shape[1])``.  All row windows of a
    round are pairwise disjoint (the spin-lock rule separates in-flight
    sweeps by ``>= 2b - 1`` rows), so the ``H_s`` commute.

    Edge-clipped reflectors are zero-padded to the group length, so
    ``offsets[s] + length`` may exceed ``n``; the padded tails are exact
    zeros.
    """

    offsets: np.ndarray  # (S,) int64 — global first row of each reflector
    V: np.ndarray  # (S, m) — reflector vectors, V[:, 0] == 1
    tau: np.ndarray  # (S,)
    sweeps: np.ndarray  # (S,) int64
    steps: np.ndarray  # (S,) int64

    @property
    def size(self) -> int:
        return self.offsets.size

    @property
    def length(self) -> int:
        return self.V.shape[1]


class WavefrontBCResult(BulgeChasingResult):
    """Bulge-chasing result in stacked (wavefront) reflector form.

    Drop-in compatible with :class:`BulgeChasingResult` — ``reflectors``
    materializes the scalar log lazily (round-major commit order, a valid
    topological order of the task DAG, with the zero padding of
    edge-clipped reflectors trimmed off) — while ``apply_q1`` /
    ``apply_q1_transpose`` regroup the stacked groups into diamond
    compact-WY blocks: three GEMMs per block instead of one rank-1 update
    per reflector.
    """

    def __init__(
        self,
        d: np.ndarray,
        e: np.ndarray,
        round_groups: list[BCWavefrontGroup],
        flops: float = 0.0,
    ):
        self.d = d
        self.e = e
        self.flops = flops
        self.round_groups = round_groups
        self._materialized: list[BCReflector] | None = None

    @property
    def reflectors(self) -> list[BCReflector]:  # type: ignore[override]
        if self._materialized is None:
            n = self.d.size
            refl: list[BCReflector] = []
            seq = 0
            for g in self.round_groups:
                m = g.length
                for s in range(g.size):
                    off = int(g.offsets[s])
                    refl.append(
                        BCReflector(
                            sweep=int(g.sweeps[s]),
                            step=int(g.steps[s]),
                            offset=off,
                            v=g.V[s, : min(m, n - off)].copy(),
                            tau=float(g.tau[s]),
                            seq=seq,
                        )
                    )
                    seq += 1
            self._materialized = refl
        return self._materialized

    @reflectors.setter
    def reflectors(self, value) -> None:
        self._materialized = list(value) if value is not None else None

    @property
    def num_reflectors(self) -> int:
        """Reflector count without materializing the scalar log."""
        return sum(g.size for g in self.round_groups)

    def q1_blocks(self) -> Q1Blocks:
        """The diamond WY blocks of ``Q1`` (built on every call, not cached)."""
        gs = self.round_groups
        if not gs:
            return q1_blocks(np.zeros(0), np.zeros(0), np.zeros((0, 1)), np.zeros(0))
        return q1_blocks(
            np.concatenate([g.sweeps for g in gs]),
            np.concatenate([g.steps for g in gs]),
            np.concatenate([g.V for g in gs]),
            np.concatenate([g.tau for g in gs]),
        )

    def apply_q1(self, X: np.ndarray) -> None:
        """In place ``X <- Q1 X`` through the diamond-blocked compact WY
        form (:mod:`repro.core.bc_back_transform`): three GEMMs per block."""
        apply_q1_blocks(self.q1_blocks(), X)

    def apply_q1_transpose(self, X: np.ndarray) -> None:
        """In place ``X <- Q1^T X`` (forward block order, ``T^T``)."""
        apply_q1_blocks(self.q1_blocks(), X, transpose=True)


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
      update then hits a contiguous trailing slice (the gather does not
      care about column order);
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
        self._wr = pool.stack("bc.wr", (cap, 1, w), dtype=dt)
        self._u = pool.stack("bc.u", (cap, b, 1), dtype=dt)
        self._tmp = pool.stack("bc.tmp", (cap, b, w), dtype=dt)
        self._hv = pool.stack("bc.hv", (cap, b), dtype=dt)
        self._hv[:, 0] = 1.0
        self._tv = pool.stack("bc.tv", (cap, b), dtype=dt)
        self._sg = pool.stack("bc.sg", (cap, 1, 1), dtype=dt)

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Execute one round — chase stack plus optional start task.

        Returns ``(V, tau)`` with the chase reflectors first (sweep
        ascending, as the scheduler orders them) and the start reflector
        last.  Mirrors :func:`repro.core.bulge_chasing.apply_bc_task`:
        annihilate the column, left-update the full parallelogram, then
        right-update the diagonal block reading the left-updated values.
        (The left update also touches gathered column 0, whose final
        value — ``beta e_1`` — is simply written over it before the
        scatter.)  ``regular`` marks a round with the regular spacing
        (see the class docstring); it gathers through the precomputed
        stacks.
        """
        nc = chase_los.size
        S = nc + (start_lo is not None)
        if S == 1:
            if nc:
                return self._run_one(flat, self.chase_tmpl, int(chase_los[0]))
            return self._run_one(flat, self.start_tmpl, start_lo)
        b, w = self.b, self.w
        xp = self.xp

        P = self._pv[:S]
        if regular and self.ctx.is_numpy:
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
            pix = pi if self.ctx.is_numpy else self.ctx.from_numpy(pi)
            xp.take(flat, pix, out=P)

        # Batched Householder on the gathered columns, on preallocated
        # buffers; the guarded general kernel handles the rare
        # already-annihilated (sigma == 0) rows.
        X1 = P[:, 1:, 0]
        sg = self._sg[:S]
        xp.matmul(X1[:, None, :], X1[:, :, None], out=sg)  # batched dot
        sigma = sg[:, 0, 0]
        alpha = xp.copy(P[:, 0, 0])
        if sigma.all():
            beta = -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha)
            Vbuf = self._hv[:S]  # Vbuf[:, 0] stays 1.0 from __init__
            xp.divide(X1, (alpha - beta)[:, None], out=Vbuf[:, 1:])
            tau = (beta - alpha) / beta
            # Groups keep the reflectors past this round: hand out a copy,
            # use the buffer for the in-round math.
            V = xp.copy(Vbuf)
        else:
            V, tau, beta = batched_make_householder(xp.copy(P[:, :, 0]), xp=xp)
        tv = self._tv[:S]
        xp.multiply(tau[:, None], V, out=tv)

        wr = self._wr[:S]
        xp.matmul(V[:, None, :], P, out=wr)  # (S, 1, w)
        tmp = self._tmp[:S]
        xp.multiply(tv[:, :, None], wr, out=tmp)
        xp.subtract(P, tmp, out=P)

        D = P[:, :, w - b :]  # diagonal block, contiguous tail
        u = self._u[:S]
        xp.matmul(D, V[:, :, None], out=u)  # (S, b, 1)
        tmpD = tmp[:, :, w - b :]
        xp.multiply(u, tv[:, None, :], out=tmpD)
        xp.subtract(D, tmpD, out=D)

        P[:, :, 0] = 0.0
        P[:, 0, 0] = beta
        target[pix] = P
        return V, tau

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
        v = xp.empty(b, dtype=self.dtype)
        v[0] = 1.0
        if sigma != 0.0:
            beta = -xp.copysign(xp.sqrt(alpha * alpha + sigma), alpha)
            xp.divide(x1, alpha - beta, out=v[1:])
            tau = (beta - alpha) / beta
        else:
            v[1:] = 0.0
            tau, beta = xp.zeros((), dtype=self.dtype), alpha
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
) -> tuple[WavefrontBCResult, PipelineStats]:
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
        Schedule construction and the reflector groups handed back stay
        on the host.

    Returns
    -------
    (result, stats)
        ``result`` matches the sequential oracle
        :func:`repro.core.bulge_chasing.bulge_chase` to 1e-12 and carries
        the reflectors in stacked form; ``stats`` is the same pipeline
        schedule statistic :func:`repro.core.bc_pipeline.pipeline_schedule`
        reports.
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

    round_groups: list[BCWavefrontGroup] = []
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
        offsets = cols + bw
        bounds = np.zeros(stats.rounds + 1, dtype=np.int64)
        np.cumsum(stats.occupancy, out=bounds[1:])
        start_of = np.where(steps[bounds[1:] - 1] == 0, sweeps[bounds[1:] - 1], -1)
        regular = _regular_rounds(cols, bounds, bw).tolist()
        start_of = start_of.tolist()
        bounds = bounds.tolist()

        kernel = _RoundKernel(bw, npad, ctx, stats.max_parallel, dtype=band_dtype)
        for r in range(stats.rounds):
            lo, hi = bounds[r], bounds[r + 1]
            start = start_of[r]
            if start >= 0:
                V, tau = kernel.run(flat, cols[lo : hi - 1], start, regular[r])
            else:
                V, tau = kernel.run(flat, cols[lo:hi], None, regular[r])
            # Groups are host-side (the Q1 application and downstream
            # consumers expect NumPy); on NumPy this is the identity.
            round_groups.append(
                BCWavefrontGroup(
                    offsets=offsets[lo:hi],
                    V=ctx.to_numpy(V),
                    tau=ctx.to_numpy(tau),
                    sweeps=sweeps[lo:hi],
                    steps=steps[lo:hi],
                )
            )
    else:
        stats = PipelineStats()

    d = ctx.to_numpy_copy(work[0, :n])
    e = ctx.to_numpy_copy(work[1, : n - 1])
    return WavefrontBCResult(d=d, e=e, round_groups=round_groups, flops=flops), stats
