"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bc_back_transform import Q1_GROUP, q1_blocks
from repro.core.bc_pipeline import SAFETY_TASKS, PipelineStats, pipeline_schedule
from repro.core.bulge_chasing import (
    BCReflector,
    BCTask,
    BulgeChasingResult,
    apply_bc_task,
    sweep_tasks,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic per-test RNG."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def sym64(rng) -> np.ndarray:
    """A 64 x 64 GOE matrix — the workhorse input."""
    g = rng.standard_normal((64, 64))
    return (g + g.T) / 2.0


def make_symmetric(n: int, seed: int = 0) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((n, n))
    return (g + g.T) / 2.0


def reconstruction_error(A: np.ndarray, Q: np.ndarray, B: np.ndarray) -> float:
    """Relative ``||A - Q B Q^T||_F``."""
    return float(np.linalg.norm(A - Q @ B @ Q.T) / max(np.linalg.norm(A), 1e-300))


def orthogonality_error(Q: np.ndarray) -> float:
    n = Q.shape[0]
    return float(np.linalg.norm(Q.T @ Q - np.eye(n)))


def blocks_from_log(bc, b: int, group: int = Q1_GROUP):
    """Pack a scalar reflector log into the builder's ``(N, b)`` stack."""
    refl = bc.reflectors
    V = np.zeros((len(refl), b))
    for k, r in enumerate(refl):
        V[k, : r.v.size] = r.v
    return q1_blocks(
        np.array([r.sweep for r in refl], dtype=np.int64),
        np.array([r.step for r in refl], dtype=np.int64),
        V,
        np.array([r.tau for r in refl]),
        group=group,
    )


#: Schedule grid the closed-form recurrence is checked on against
#: :func:`round_by_round_schedule`: n x b x in-flight cap S.
SCHEDULE_GRID = [
    (n, b, S)
    for n in (3, 4, 5, 7, 10, 20, 33, 64, 100, 151)
    for b in (2, 3, 4, 8, 16)
    for S in (None, 1, 2, 3, 5, 8)
]


def round_by_round_schedule(
    n: int, b: int, max_sweeps: int | None = None, safety: int = SAFETY_TASKS
) -> tuple[list[list[BCTask]], PipelineStats]:
    """Independent schedule oracle: simulate the spin-lock pipeline round
    by round, task by task.

    Each round snapshots how many tasks every sweep has committed; sweep
    ``i``'s next task ``t`` runs if sweep ``i-1`` has finished or
    committed ``t + safety`` tasks, and a sweep may start only while
    fewer than ``max_sweeps`` are in flight.  Nothing here assumes the
    closed-form recurrence of :func:`repro.core.bc_pipeline.sweep_starts`
    — that a started sweep never stalls, or that sweeps finish in order —
    so equality with it is evidence.  Returns ``rounds[r]`` (the tasks of
    round ``r``, sweeps ascending) and the statistics it observed, with
    ``task_rounds`` recorded as executed.
    """
    all_sweeps = [sweep_tasks(n, b, i) for i in range(max(n - 2, 0))]
    all_sweeps = [s for s in all_sweeps if s]
    nsweeps = len(all_sweeps)
    ntasks = [len(s) for s in all_sweeps]
    S = max_sweeps if max_sweeps is not None else max(nsweeps, 1)
    if S < 1:
        raise ValueError("max_sweeps must be >= 1")

    completed = [0] * nsweeps  # tasks committed per sweep
    rounds: list[list[BCTask]] = []
    stats = PipelineStats(total_tasks=sum(ntasks))
    done_tasks = 0

    # Sweeps start strictly in order (sweep i's task 0 is blocked until
    # sweep i-1 is >= safety ahead, which implies it started), so the
    # live region is the window [first_active, started_count]: everything
    # below is finished, everything above cannot move yet.
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
                if prev_done < ntasks[i - 1] and prev_done < t + safety:
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
        if not this_round:
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


def schedule_fields(stats: PipelineStats) -> tuple:
    """Everything a schedule reports, for comparing two of them."""
    return (stats.rounds, stats.occupancy, stats.stall_rounds,
            stats.max_parallel, stats.total_tasks, stats.task_rounds)


def chase_in_schedule(band: np.ndarray, b: int, max_sweeps: int | None = None):
    """Schedule-safety oracle: run the sequential chase's task kernel in
    the round-major task order of :func:`pipeline_schedule` on a dense
    copy of ``band``.

    Rounds only reorder data-disjoint tasks, so the result must be
    bit-identical to :func:`repro.core.bulge_chasing.bulge_chase`.
    Returns ``(BulgeChasingResult, PipelineStats)``.
    """
    A = np.array(band, dtype=np.float64, copy=True)
    n = A.shape[0]
    reflectors: list[BCReflector] = []
    stats = PipelineStats()
    if b >= 2 and n >= 3:
        sweeps, steps, stats = pipeline_schedule(n, b, max_sweeps)
        tasks = [sweep_tasks(n, b, i) for i in range(n - 2)]
        for sweep, step in zip(sweeps.tolist(), steps.tolist()):
            task = tasks[sweep][step]
            off, v, tau = apply_bc_task(A, b, task)
            reflectors.append(
                BCReflector(
                    sweep=task.sweep,
                    step=task.step,
                    offset=off,
                    v=v,
                    tau=tau,
                    seq=len(reflectors),
                )
            )
    d = np.diagonal(A).copy()
    e = np.diagonal(A, -1).copy()
    return BulgeChasingResult(d=d, e=e, reflectors=reflectors), stats
