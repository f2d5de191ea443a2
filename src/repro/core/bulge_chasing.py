"""Bulge chasing: reduce a symmetric band matrix to tridiagonal form.

One *sweep* (paper Figure 3 / Algorithm 2) annihilates the off-tridiagonal
entries of a single column and then chases the resulting bulge down the
band until it falls off the matrix.  Sweep ``i`` consists of *tasks*
``t = 0, 1, 2, ...``:

* ``t = 0`` — a Householder reflector on rows ``[i+1, i+1+b)`` annihilates
  ``A[i+2 : i+1+b, i]``.  Its two-sided application fills a *bulge* below
  the band.
* ``t >= 1`` — the bulge's leading column ``c_t = i + 1 + (t-1) b`` is
  re-annihilated by a reflector on rows ``[c_t + b, c_t + 2b)``.  The
  diagonal block ``B_d`` is updated from both sides, the off-band block
  ``B_ol`` to its left from the left only, and the block below creates the
  next bulge ``b`` rows further down — exactly the three updates of
  Algorithm 2 (lines 11-13).

Tasks of *different* sweeps may interleave as long as sweep ``i+1``'s task
``t`` runs after sweep ``i``'s task ``t+2`` (the ``gCom + 2b`` spin-lock
rule); :mod:`repro.core.bc_pipeline` schedules that and
:mod:`repro.core.bc_wavefront` executes it.  This module provides the
task geometry (:func:`sweep_tasks`, :func:`task_window`), the numeric
kernel (:func:`apply_bc_task`), and the sequential reference driver
(:func:`bulge_chase`) the tests check the engine against.

Both drivers log every reflector, in commit order, as one row of a
stacked :class:`BulgeChasingResult` so that the orthogonal factor ``Q1``
(``B = Q1 T Q1^T``) can be applied afterwards — the "back transformation
in BC" whose cost dominates the eigenvector path (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bc_back_transform import Q1Blocks, apply_q1_blocks, q1_blocks
from .householder import make_householder

__all__ = [
    "BCTask",
    "BulgeChasingResult",
    "apply_q1_reference",
    "sweep_tasks",
    "num_tasks_in_sweep",
    "task_window",
    "bc_task_flops",
    "apply_bc_task",
    "bulge_chase",
]


@dataclass(frozen=True)
class BCTask:
    """Geometry of one bulge-chasing task (sweep ``i``, step ``t``).

    ``col`` is the column being annihilated, ``row0``/``row1`` the reflector
    row window ``[row0, row1)``.
    """

    sweep: int
    step: int
    col: int
    row0: int
    row1: int

    @property
    def length(self) -> int:
        return self.row1 - self.row0


@dataclass
class BulgeChasingResult:
    """Tridiagonal output ``(d, e)`` plus the stacked reflector log.

    Row ``s`` of the log is ``H_s = I - tau[s] V[s] V[s]^T``, the
    reflector of sweep ``sweeps[s]`` step ``steps[s]``, acting on global
    rows ``[o, o + b)`` with ``o = sweeps[s] + 1 + steps[s] * b``; the
    tails of edge-clipped reflectors (rows at or past ``n``) are zero.
    The rows are in a commit order (a topological order of the task
    DAG), and the input band matrix ``B`` satisfies
    ``B = Q1 @ tridiag(d, e) @ Q1.T`` with ``Q1 = H_0 H_1 ... H_{N-1}``.
    """

    d: np.ndarray
    e: np.ndarray
    sweeps: np.ndarray  # (N,) int64
    steps: np.ndarray  # (N,) int64
    V: np.ndarray  # (N, b), V[:, 0] == 1
    tau: np.ndarray  # (N,)
    flops: float = 0.0

    @property
    def n(self) -> int:
        return self.d.size

    @property
    def num_reflectors(self) -> int:
        return self.tau.size

    def q1_blocks(self) -> Q1Blocks:
        """The diamond WY blocks of ``Q1`` (built on every call, not cached)."""
        return q1_blocks(self.sweeps, self.steps, self.V, self.tau)

    def apply_q1(self, X: np.ndarray) -> None:
        """In place ``X <- Q1 X`` — the BC back transformation, applied
        through the diamond-blocked compact WY form
        (:mod:`repro.core.bc_back_transform`): two GEMMs per block."""
        apply_q1_blocks(self.q1_blocks(), X)

    def apply_q1_transpose(self, X: np.ndarray) -> None:
        """In place ``X <- Q1^T X`` (forward block order, ``T^T``)."""
        apply_q1_blocks(self.q1_blocks(), X, transpose=True)

    def q1(self) -> np.ndarray:
        """Materialize ``Q1`` (tests / small matrices)."""
        Q = np.eye(self.n)
        self.apply_q1(Q)
        return Q

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        return self.d, self.e


def apply_q1_reference(
    result: BulgeChasingResult, X: np.ndarray, transpose: bool = False
) -> None:
    """In place ``X <- Q1 X`` (or ``Q1^T X``), one rank-1 update per
    reflector — the unblocked oracle for :meth:`BulgeChasingResult.apply_q1`.

    ``Q1 = H_0 ... H_{N-1}`` in commit order, so ``Q1 X`` applies the log
    in reverse and ``Q1^T X`` forward.  Cost ``O(n^2 * n/b)`` in fused
    BLAS2 updates: the bottleneck the paper leaves as future work.
    """
    n, b = X.shape[0], result.V.shape[1]
    offsets = (result.sweeps + 1 + result.steps * b).tolist()
    order = range(len(offsets))
    for s in order if transpose else reversed(order):
        o = offsets[s]
        v = result.V[s, : min(b, n - o)]
        sub = X[o : o + v.size]
        sub -= np.outer(result.tau[s] * v, v @ sub)


def num_tasks_in_sweep(n: int, b: int, i: int) -> int:
    """Number of tasks in sweep ``i`` for an ``n x n`` band of width ``b``.

    A task exists whenever its reflector window holds at least 2 rows
    (there is something to annihilate).
    """
    if b < 2 or i > n - 3:
        return 0
    count = 0
    t = 0
    while True:
        c = i if t == 0 else i + 1 + (t - 1) * b
        s = i + 1 if t == 0 else c + b
        if min(s + b, n) - s < 2:
            break
        count += 1
        t += 1
    return count


def sweep_tasks(n: int, b: int, i: int) -> list[BCTask]:
    """All tasks of sweep ``i``, in chase order."""
    tasks: list[BCTask] = []
    t = 0
    while True:
        c = i if t == 0 else i + 1 + (t - 1) * b
        s = i + 1 if t == 0 else c + b
        e = min(s + b, n)
        if e - s < 2:
            break
        tasks.append(BCTask(sweep=i, step=t, col=c, row0=s, row1=e))
        t += 1
    return tasks


def task_window(task: BCTask, n: int, b: int) -> tuple[int, int]:
    """Inclusive-exclusive index range of every entry the task touches.

    Rows/columns ``[col, min(row1 + b, n))`` — used by the pipeline
    scheduler and the cache model to reason about overlap and footprint.
    """
    return task.col, min(task.row1 + b, n)


def bc_task_flops(task: BCTask, n: int, b: int) -> float:
    """Flop count charged for one chase task: ``8 * len * window``.

    One reflector generation plus the two-sided rank-1 update over the
    task's ``window = hi - lo`` columns (see :func:`task_window`).  Both
    engines — sequential and wavefront-batched — charge exactly this
    amount, so their reported ``flops`` are comparable (and asserted
    identical by the tests).
    """
    lo, hi = task_window(task, n, b)
    return 8.0 * task.length * (hi - lo)


def apply_bc_task(A: np.ndarray, b: int, task: BCTask) -> tuple[int, np.ndarray, float]:
    """Execute one bulge-chasing task on the dense symmetric array ``A``.

    Annihilates ``A[row0+1 : row1, col]`` and applies the reflector
    two-sidedly to the window, updating the diagonal block from both sides,
    the left off-band (bulge remnant) block from the left, and creating the
    next bulge below.  Returns ``(offset, v, tau)``.
    """
    n = A.shape[0]
    c, s, e = task.col, task.row0, task.row1
    x = A[s:e, c]
    v, tau, beta = make_householder(x)
    A[s:e, c] = 0.0
    A[s, c] = beta
    A[c, s:e] = 0.0
    A[c, s] = beta

    if tau != 0.0:
        ce = min(e + b, n)
        # Left update of rows [s, e) over every column they own to the
        # right of c (bulge remnant B_ol + diagonal block + band cols).
        blk = A[s:e, c + 1 : ce]
        blk -= np.outer(tau * v, v @ blk)
        # Right update (symmetric image) — together with the left update the
        # diagonal square receives the full two-sided H B H, while B_od
        # below gets the bulge-creating one-sided update.
        blk2 = A[c + 1 : ce, s:e]
        blk2 -= np.outer(blk2 @ v, tau * v)
    return s, v, float(tau)


def bulge_chase(band: np.ndarray, b: int) -> BulgeChasingResult:
    """Sequential bulge chasing of a dense symmetric band matrix.

    The scalar task-at-a-time reference the tests compare the production
    engine (:func:`repro.core.bc_wavefront.bulge_chase_wavefront`)
    against; no pipeline path calls it.

    Parameters
    ----------
    band : (n, n) ndarray
        Symmetric matrix with (half-)bandwidth ``b`` (entries outside the
        band must be zero; use :func:`repro.band.ops.is_banded` to check).
        Not modified.
    b : int
        The bandwidth.  ``b == 1`` has no tasks (already tridiagonal).

    Returns
    -------
    BulgeChasingResult
        ``band == Q1 @ tridiag(d, e) @ Q1.T``.
    """
    band = np.asarray(band)
    dt = band.dtype if band.dtype in (np.float32, np.float64) else np.float64
    A = np.array(band, dtype=dt, copy=True)
    n = A.shape[0]
    if b < 1:
        raise ValueError("bandwidth must be >= 1")
    tasks = [t for i in range(n - 2) for t in sweep_tasks(n, b, i)]
    V = np.zeros((len(tasks), b), dtype=dt)
    tau = np.zeros(len(tasks), dtype=dt)
    flops = 0.0
    for s, task in enumerate(tasks):
        _, v, tau[s] = apply_bc_task(A, b, task)
        V[s, : v.size] = v
        flops += bc_task_flops(task, n, b)
    return BulgeChasingResult(
        d=np.diagonal(A).copy(),
        e=np.diagonal(A, -1).copy(),
        sweeps=np.array([t.sweep for t in tasks], dtype=np.int64),
        steps=np.array([t.step for t in tasks], dtype=np.int64),
        V=V,
        tau=tau,
        flops=flops,
    )
