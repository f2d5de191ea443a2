"""Pipelined multi-sweep bulge chasing — the schedule of Algorithm 2.

On the GPU the paper launches one thread block per sweep; sweep ``i+1``
spins on a volatile flag array until sweep ``i``'s working row is at least
``2b`` rows ahead (``gCom[i] + 2b > gCom[i-1]`` → wait).  In task terms,
sweep ``i``'s task ``t`` may execute once sweep ``i-1`` has completed task
``t + 2`` — i.e. a sweep starts after its predecessor has chased its first
**three** bulges (law ① of the Section 3.3 performance model).  Law ③ caps
the number of in-flight sweeps at the hardware's capacity ``S``.

:func:`pipeline_schedule` computes that schedule as lockstep *rounds*
(one bulge per active sweep per round — a round is the "cycle" of the
paper's performance model).  The tasks of a round are data-disjoint, so
the schedule is a pure reordering of the sequential chase; the
wavefront engine (:mod:`repro.core.bc_wavefront`) executes it one
stacked operation per round when ``max_sweeps`` caps the pipeline, and
the recorded statistics (rounds, occupancy, stalls) are what
:mod:`repro.gpusim` prices and what the Figure 5 / Figure 12 benchmarks
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bulge_chasing import BCTask, sweep_tasks

__all__ = ["PipelineStats", "pipeline_schedule"]

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
        Rounds in which at least one startable sweep was blocked by the
        in-flight cap ``S`` (law 3).
    ``task_rounds``
        Mapping ``(sweep, step) -> round`` for trace/timing consumers.
        A stall-free schedule records only ``sweep_starts`` and
        ``sweep_ntasks`` (task ``t`` of sweep ``i`` runs in round
        ``sweep_starts[i] + t``) and builds the mapping on first access.
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


def pipeline_schedule(
    n: int, b: int, max_sweeps: int | None = None
) -> tuple[list[list[BCTask]], PipelineStats]:
    """Compute the round-by-round pipelined schedule (no numerics).

    Parameters
    ----------
    n, b : int
        Matrix size and bandwidth.
    max_sweeps : int or None
        The in-flight sweep cap ``S`` (None = unbounded, i.e. hardware big
        enough for every sweep — the ``3n-2`` regime of the paper's model).

    Returns
    -------
    (rounds, stats)
        ``rounds[r]`` is the list of tasks executed in round ``r``; within
        a round tasks are ordered by sweep (a valid topological order).
    """
    all_sweeps = [sweep_tasks(n, b, i) for i in range(max(n - 2, 0))]
    all_sweeps = [s for s in all_sweeps if s]
    nsweeps = len(all_sweeps)
    ntasks = [len(s) for s in all_sweeps]
    S = max_sweeps if max_sweeps is not None else nsweeps
    if S < 1:
        raise ValueError("max_sweeps must be >= 1")

    completed = [0] * nsweeps  # tasks committed per sweep
    rounds: list[list[BCTask]] = []
    stats = PipelineStats(total_tasks=sum(ntasks))
    done_tasks = 0

    # Sweeps start strictly in order (sweep i's task 0 is blocked until
    # sweep i-1 is >= SAFETY_TASKS ahead, which implies it started), so the
    # live region is the window [first_active, started_count]: everything
    # below is finished, everything above cannot move yet.  Scanning only
    # that window makes the scheduler O(total_tasks + rounds * in_flight)
    # instead of O(rounds * nsweeps) — the difference between milliseconds
    # and seconds at n ~ 1000, for identical output.
    first_active = 0  # every sweep below this index is finished
    started_count = 0  # sweeps 0..started_count-1 have started
    in_flight = 0  # started and unfinished, as of the round snapshot

    while done_tasks < stats.total_tasks:
        lo = first_active
        hi = min(started_count + 1, nsweeps)  # only sweep started_count may start
        snapshot = completed[lo:hi]
        this_round: list[BCTask] = []
        stalled = False
        finished_this_round = 0
        for i in range(lo, hi):
            t = snapshot[i - lo]
            if t >= ntasks[i]:
                continue
            # Dependency on the predecessor sweep (law 1 / gCom rule);
            # predecessors below the window are finished and impose none.
            if i > lo or lo > 0:
                prev_done = snapshot[i - 1 - lo] if i > lo else ntasks[i - 1]
                if prev_done < ntasks[i - 1] and prev_done < t + SAFETY_TASKS:
                    continue
            # In-flight cap (law 3).
            if i == started_count:
                if in_flight >= S:
                    stalled = True
                    continue
                started_count += 1
                in_flight += 1
            this_round.append(all_sweeps[i][t])
            stats.task_rounds[(all_sweeps[i][t].sweep, t)] = len(rounds)
            completed[i] += 1
            if completed[i] == ntasks[i]:
                finished_this_round += 1
            done_tasks += 1
        if not this_round:  # pragma: no cover - schedule is deadlock-free
            raise RuntimeError("pipeline schedule deadlocked")
        # Finishes take effect at the next round's snapshot (law-3 slots
        # free up only once the flag array shows the sweep done).
        in_flight -= finished_this_round
        while first_active < nsweeps and completed[first_active] >= ntasks[first_active]:
            first_active += 1
        rounds.append(this_round)
        stats.occupancy.append(len(this_round))
        if stalled:
            stats.stall_rounds += 1

    stats.rounds = len(rounds)
    stats.max_parallel = max(stats.occupancy, default=0)
    return rounds, stats
