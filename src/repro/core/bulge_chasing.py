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

Every reflector is logged with a global commit sequence number so that the
orthogonal factor ``Q1`` (``B = Q1 T Q1^T``) can be applied afterwards —
the "back transformation in BC" whose cost dominates the eigenvector path
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .householder import make_householder

__all__ = [
    "BCReflector",
    "BCTask",
    "BulgeChasingResult",
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
class BCReflector:
    """A committed reflector: ``H = I - tau v v^T`` acting on global rows
    ``[offset, offset + len(v))``; ``seq`` is the commit order (a valid
    topological order of the task DAG)."""

    sweep: int
    step: int
    offset: int
    v: np.ndarray
    tau: float
    seq: int


@dataclass
class BulgeChasingResult:
    """Tridiagonal output ``(d, e)`` plus the reflector log.

    The input band matrix ``B`` satisfies ``B = Q1 @ T @ Q1.T`` where
    ``T = tridiag(d, e)`` and ``Q1`` is the ordered product of the logged
    reflectors (``seq`` ascending, leftmost first).
    """

    d: np.ndarray
    e: np.ndarray
    reflectors: list[BCReflector] = field(default_factory=list)
    flops: float = 0.0

    @property
    def n(self) -> int:
        return self.d.size

    def _committed(self) -> list[BCReflector]:
        """The reflector log, verified to already be in ``seq`` order.

        Every driver commits reflectors in ascending ``seq`` order, so the
        back transformation can walk the list directly instead of
        re-sorting the full log on every call.  The monotonicity contract
        is asserted once per result and cached.
        """
        if not getattr(self, "_seq_checked", False):
            seqs = [r.seq for r in self.reflectors]
            if any(b <= a for a, b in zip(seqs, seqs[1:])):
                raise AssertionError(
                    "reflector log is not in commit (seq) order"
                )
            self._seq_checked = True
        return self.reflectors

    def apply_q1(self, X: np.ndarray) -> None:
        """In place ``X <- Q1 X``.

        ``Q1 = H_1 H_2 ... H_K`` (seq order), so reflectors are applied to
        ``X`` in *reverse* commit order.  This is the BC back
        transformation: cost ``O(n^2 * n/b)`` fused small updates, the
        bottleneck the paper leaves as future work.
        """
        for r in reversed(self._committed()):
            sub = X[r.offset : r.offset + r.v.size, :]
            sub -= np.outer(r.tau * r.v, r.v @ sub)

    def apply_q1_transpose(self, X: np.ndarray) -> None:
        """In place ``X <- Q1^T X`` (forward commit order)."""
        for r in self._committed():
            sub = X[r.offset : r.offset + r.v.size, :]
            sub -= np.outer(r.tau * r.v, r.v @ sub)

    def q1(self) -> np.ndarray:
        """Materialize ``Q1`` (tests / small matrices)."""
        Q = np.eye(self.n)
        self.apply_q1(Q)
        return Q

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        return self.d, self.e


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
        The bandwidth.  ``b == 1`` returns immediately (already
        tridiagonal).

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
    reflectors: list[BCReflector] = []
    flops = 0.0
    seq = 0
    if b >= 2:
        for i in range(n - 2):
            for task in sweep_tasks(n, b, i):
                off, v, tau = apply_bc_task(A, b, task)
                reflectors.append(
                    BCReflector(
                        sweep=i, step=task.step, offset=off, v=v, tau=tau, seq=seq
                    )
                )
                flops += bc_task_flops(task, n, b)
                seq += 1
    d = np.diagonal(A).copy()
    e = np.diagonal(A, -1).copy()
    return BulgeChasingResult(d=d, e=e, reflectors=reflectors, flops=flops)
