"""Executor for the pipelined bulge-chasing schedule.

Models the GPU execution of Algorithm 2 exactly as launched in the paper:
sweeps are thread blocks dispatched in order; at most ``S`` are resident
(law 3 of Section 3.3); a resident sweep executes its tasks back-to-back,
except that task ``t`` must wait for the predecessor sweep's task ``t+2``
(the ``gCom + 2b`` spin-lock, law 1).  Task durations come from the kernel
cost models.

With a constant task duration ``dt`` the completion times obey

    C[i][t] = max(C[i][t-1], C[i-1][t+2], launch_gate_i) + dt

and a launched sweep never waits again, so every time is ``dt`` times
the start round of :func:`repro.core.bc_pipeline.sweep_starts` — the same
recurrence the numeric wavefront chase executes.  A full ``n = 65536``
run (hundreds of millions of tasks) therefore simulates in one ``O(n)``
pass.  The executor also accounts bytes moved, yielding the
achieved-memory-throughput curve of Figure 12 and the utilization
timeline used by the trace tools.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bc_pipeline import SAFETY_TASKS, sweep_starts, tasks_per_sweep

__all__ = ["BCSimResult", "tasks_per_sweep", "simulate_bc_pipeline"]


@dataclass
class BCSimResult:
    """Outcome of one simulated pipelined bulge-chasing run."""

    n: int
    b: int
    max_sweeps: int
    task_time_s: float
    total_time_s: float
    total_tasks: int
    sweep_start: np.ndarray
    sweep_end: np.ndarray
    bytes_per_task: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.total_tasks * self.bytes_per_task

    @property
    def throughput_gbs(self) -> float:
        """Achieved memory throughput (GB/s) — the Figure 12 metric."""
        if self.total_time_s <= 0:
            return 0.0
        return self.total_bytes / self.total_time_s / 1e9

    @property
    def mean_parallel_sweeps(self) -> float:
        """Time-averaged number of in-flight sweeps."""
        busy = float(np.sum(self.sweep_end - self.sweep_start))
        return busy / self.total_time_s if self.total_time_s > 0 else 0.0

    def concurrency_profile(self, samples: int = 512) -> tuple[np.ndarray, np.ndarray]:
        """(times, active sweep counts) sampled over the run."""
        ts = np.linspace(0.0, self.total_time_s, samples)
        starts = np.sort(self.sweep_start)
        ends = np.sort(self.sweep_end)
        active = np.searchsorted(starts, ts, side="right") - np.searchsorted(
            ends, ts, side="right"
        )
        return ts, active.astype(np.int64)


def simulate_bc_pipeline(
    n: int,
    b: int,
    max_sweeps: int | None,
    task_time_s: float,
    bytes_per_task: float = 0.0,
    safety_tasks: int = SAFETY_TASKS,
) -> BCSimResult:
    """Simulate the pipelined schedule with constant per-task duration.

    Parameters
    ----------
    n, b : int
        Matrix size and bandwidth.
    max_sweeps : int or None
        In-flight sweep cap ``S`` (None = unbounded).
    task_time_s : float
        Duration of one bulge task (from the kernel models).
    bytes_per_task : float
        Memory traffic per task (for throughput accounting).
    safety_tasks : int
        Pipeline delay between consecutive sweeps (paper: 3 bulges).

    Returns
    -------
    BCSimResult
    """
    starts, counts = sweep_starts(n, b, max_sweeps, safety_tasks)
    dt = float(task_time_s)
    return BCSimResult(
        n=n,
        b=b,
        max_sweeps=counts.size if max_sweeps is None else int(max_sweeps),
        task_time_s=dt,
        total_time_s=dt * float(np.max(starts + counts, initial=0)),
        total_tasks=int(np.sum(counts)),
        sweep_start=dt * starts,
        sweep_end=dt * (starts + counts),
        bytes_per_task=bytes_per_task,
    )
