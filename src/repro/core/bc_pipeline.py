"""Pipelined multi-sweep bulge chasing — the schedule of Algorithm 2.

On the GPU the paper launches one thread block per sweep; sweep ``i+1``
spins on a volatile flag array until sweep ``i``'s working row is at least
``2b`` rows ahead (``gCom[i] + 2b > gCom[i-1]`` → wait).  In task terms,
sweep ``i``'s task ``t`` may execute once sweep ``i-1`` has completed task
``t + 2`` — i.e. a sweep starts after its predecessor has chased its first
**three** bulges (law ① of the Section 3.3 performance model).  Law ③ caps
the number of in-flight sweeps at the hardware's capacity ``S``.

A sweep that has started never stalls again (its predecessor is at least
as far ahead as it was at the start, or finished), and sweeps finish in
order, so the whole schedule is one recurrence over sweep start rounds
(:func:`sweep_starts`): sweep ``i`` starts once its predecessor has
chased ``min(3, ntasks[i-1])`` bulges and, under a cap, once sweep
``i - S`` has finished; its task ``t`` runs in round ``starts[i] + t``.
A round is the "cycle" of the paper's performance model.

:func:`pipeline_schedule` expands that recurrence into round-major task
arrays.  The tasks of a round are data-disjoint, so the schedule is a pure
reordering of the sequential chase; the wavefront engine
(:mod:`repro.core.bc_wavefront`) executes it one stacked operation per
round, :mod:`repro.gpusim` prices the same start rounds, and the recorded
statistics (rounds, occupancy, stalls) feed the Figure 5 / Figure 12
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PipelineStats", "pipeline_schedule", "sweep_starts", "tasks_per_sweep"]

#: A sweep may start only after its predecessor chased this many bulges
#: (law 1 in Section 3.3; the 2b spin-lock distance of Algorithm 2).
SAFETY_TASKS = 3


@dataclass
class PipelineStats:
    """Schedule statistics of one pipelined bulge-chasing run.

    ``rounds``
        Total lockstep rounds = the "total cycles" of the Section 3.3
        model (each active sweep chases one bulge per round).
    ``occupancy``
        Number of tasks executed in each round (len == rounds).
    ``stall_rounds``
        Rounds in which the next sweep was ready to start but blocked by
        the in-flight cap ``S`` (law 3).
    ``task_rounds``
        Mapping ``(sweep, step) -> round`` for trace/timing consumers,
        built on first access from ``sweep_starts`` and ``sweep_ntasks``
        (task ``t`` of sweep ``i`` runs in round ``sweep_starts[i] + t``).
    """

    rounds: int = 0
    occupancy: list[int] = field(default_factory=list)
    stall_rounds: int = 0
    max_parallel: int = 0
    total_tasks: int = 0
    sweep_starts: list[int] | None = field(default=None, repr=False)
    sweep_ntasks: list[int] | None = field(default=None, repr=False)
    _task_rounds: dict[tuple[int, int], int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def task_rounds(self) -> dict[tuple[int, int], int]:
        if self._task_rounds is None:
            self._task_rounds = {
                (i, t): start + t
                for i, (start, count) in enumerate(
                    zip(self.sweep_starts or (), self.sweep_ntasks or ())
                )
                for t in range(count)
            }
        return self._task_rounds

    @property
    def mean_parallel(self) -> float:
        return self.total_tasks / self.rounds if self.rounds else 0.0


def tasks_per_sweep(n: int, b: int) -> np.ndarray:
    """Task count of every sweep: ``1 + (n - 3 - i) // b`` for ``i <= n - 3``.

    Matches :func:`repro.core.bulge_chasing.num_tasks_in_sweep`; empty
    when there is nothing to chase (``b < 2`` or ``n < 3``).
    """
    if b < 2 or n < 3:
        return np.zeros(0, dtype=np.int64)
    return 1 + (n - 3 - np.arange(n - 2, dtype=np.int64)) // b


def sweep_starts(
    n: int, b: int, max_sweeps: int | None = None, safety: int = SAFETY_TASKS
) -> tuple[np.ndarray, np.ndarray]:
    """Start round of every sweep under the spin-lock rule and the cap.

    ``starts[i] = max(starts[i-1] + min(safety, ntasks[i-1]),
    starts[i-S] + ntasks[i-S])`` — the second term only for ``i >= S``.

    Parameters
    ----------
    n, b : int
        Matrix size and bandwidth.
    max_sweeps : int or None
        The in-flight sweep cap ``S`` (None = unbounded, i.e. hardware big
        enough for every sweep — the ``3n-2`` regime of the paper's model).
    safety : int
        Bulges a predecessor must have chased before the next sweep
        starts (the paper's 3; larger values are the ablation's).

    Returns
    -------
    (starts, ntasks)
        int64 arrays, one entry per sweep; task ``t`` of sweep ``i`` runs
        in round ``starts[i] + t``.
    """
    if max_sweeps is not None and max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    if safety < 1:
        raise ValueError("safety must be >= 1")
    ntasks = tasks_per_sweep(n, b)
    counts = ntasks.tolist()
    cap = len(counts) if max_sweeps is None else int(max_sweeps)
    starts = [0] * len(counts)
    for i in range(1, len(counts)):
        start = starts[i - 1] + min(safety, counts[i - 1])
        if i >= cap:
            start = max(start, starts[i - cap] + counts[i - cap])
        starts[i] = start
    return np.array(starts, dtype=np.int64), ntasks


def pipeline_schedule(
    n: int, b: int, max_sweeps: int | None = None
) -> tuple[np.ndarray, np.ndarray, PipelineStats]:
    """The pipelined schedule as round-major task arrays (no numerics).

    Parameters
    ----------
    n, b : int
        Matrix size and bandwidth.
    max_sweeps : int or None
        The in-flight sweep cap ``S`` (None = unbounded).

    Returns
    -------
    (sweeps, steps, stats)
        ``(sweeps[k], steps[k])`` is the ``k``-th task in round-major
        order; round ``r`` is the segment of the next ``stats.occupancy[r]``
        tasks, sweeps ascending within it (a valid topological order).
    """
    starts, ntasks = sweep_starts(n, b, max_sweeps)
    if ntasks.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, PipelineStats()
    sweeps = np.repeat(np.arange(ntasks.size, dtype=np.int64), ntasks)
    steps = np.arange(sweeps.size) - np.repeat(np.cumsum(ntasks) - ntasks, ntasks)
    # A stable sort by round keeps sweeps ascending within a round.
    order = np.argsort(np.repeat(starts, ntasks) + steps, kind="stable")
    # Sweeps start and finish in order, so the active sweeps of round r
    # are the contiguous run with starts[i] <= r <= fin[i].
    fin = starts + ntasks - 1
    r_idx = np.arange(int(fin[-1]) + 1)
    occ = np.searchsorted(starts, r_idx, side="right") - np.searchsorted(fin, r_idx)
    # Sweep i is ready once its predecessor chased SAFETY_TASKS bulges;
    # every round past that it waited was a law-3 stall.
    ready = starts[:-1] + np.minimum(SAFETY_TASKS, ntasks[:-1])
    stats = PipelineStats(
        rounds=int(r_idx.size),
        occupancy=occ.tolist(),
        stall_rounds=int(np.sum(starts[1:] - ready)),
        max_parallel=int(occ.max()),
        total_tasks=int(sweeps.size),
        sweep_starts=starts.tolist(),
        sweep_ntasks=ntasks.tolist(),
    )
    return sweeps[order], steps[order], stats
