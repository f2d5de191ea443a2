"""Thread-safe service metrics: counters, histograms, stage-time rollups.

The serving layer is judged by distributions, not means — a batcher that
halves mean latency while exploding p99 is a regression.  Every metric
here is cheap enough to record per request on the worker threads:

* :class:`Counter` — monotonic event counts (submitted, completed, ...);
* :class:`ValueHistogram` — latency-style samples with a bounded
  reservoir (the most recent ``max_samples`` observations) from which
  :meth:`~ValueHistogram.snapshot` computes percentiles;
* :class:`CountHistogram` — exact counts over small integer values
  (batch sizes, queue depths at dequeue);
* :class:`StageTimes` — per-stage wall-time accumulation fed by the
  :class:`~repro.backend.context.StageEvent` hooks of each worker's
  :class:`~repro.backend.ExecutionContext`, so ``service.stats()``
  decomposes exactly like the benchmark harness does (band reduction vs
  bulge chasing vs solver vs back transform vs the stacked dense tier).

Everything is guarded by a per-object lock; contention is negligible at
the request rates an in-process service sees.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = [
    "Counter",
    "ValueHistogram",
    "CountHistogram",
    "StageTimes",
    "ServiceMetrics",
]


class Counter:
    """Monotonic thread-safe event counter."""

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class ValueHistogram:
    """Streaming summary of a float-valued series (latencies, waits).

    Keeps exact ``count``/``sum``/``min``/``max`` over the full stream
    plus a sliding reservoir of the most recent ``max_samples`` values
    for percentile estimation — bounded memory no matter how long the
    service runs.
    """

    def __init__(self, max_samples: int = 2048) -> None:
        self._samples: deque[float] = deque(maxlen=max(1, int(max_samples)))
        self._count = 0
        self._total = 0.0
        self._min = np.inf
        self._max = -np.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._samples.append(value)
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def snapshot(self, percentiles: tuple[float, ...] = (50.0, 90.0, 99.0)) -> dict:
        """Summary dict; percentiles come from the retained window."""
        with self._lock:
            count = self._count
            if count == 0:
                return {"count": 0}
            window = list(self._samples)
            out = {
                "count": count,
                "mean": self._total / count,
                "min": self._min,
                "max": self._max,
            }
        pcts = np.percentile(np.asarray(window), percentiles)
        for p, v in zip(percentiles, np.atleast_1d(pcts)):
            out[f"p{p:g}"] = float(v)
        return out


class CountHistogram:
    """Exact histogram over small integer observations (batch sizes)."""

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: int) -> None:
        with self._lock:
            self._counts[int(value)] = self._counts.get(int(value), 0) + 1

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {str(k): v for k, v in sorted(self._counts.items())}

    @property
    def total_observations(self) -> int:
        with self._lock:
            return sum(self._counts.values())


class StageTimes:
    """Wall-time accumulation per pipeline stage across all workers."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def hook(self, event) -> None:
        """A :class:`StageEvent` hook to install on worker contexts."""
        if event.phase != "end" or event.duration_s is None:
            return
        with self._lock:
            self._seconds[event.stage] = (
                self._seconds.get(event.stage, 0.0) + event.duration_s
            )
            self._counts[event.stage] = self._counts.get(event.stage, 0) + 1

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            return {
                stage: {"seconds": self._seconds[stage], "count": self._counts[stage]}
                for stage in sorted(self._seconds)
            }


class ServiceMetrics:
    """The full metric set of one :class:`~repro.serve.SolverService`."""

    def __init__(self, max_samples: int = 2048) -> None:
        self.submitted = Counter()
        self.completed = Counter()
        self.failed = Counter()
        self.rejected = Counter()
        self.cancelled = Counter()
        self.coalesced = Counter()
        self.batches = Counter()
        self.stacked_batches = Counter()
        self.latency_s = ValueHistogram(max_samples)
        self.queue_wait_s = ValueHistogram(max_samples)
        self.batch_sizes = CountHistogram()
        self.queue_depth_at_dequeue = CountHistogram()
        self.stage_times = StageTimes()
        # Resilience: verification, fallback, fault-tolerance events.
        self.verifications = Counter()
        self.verification_failures = Counter()
        self.escalations = Counter()
        self.fallback_exhausted = Counter()
        self.worker_crashes = Counter()
        self.worker_respawns = Counter()
        self.crash_requeues = Counter()
        self.deadline_expired = Counter()
        self.backend_faults = Counter()
        self.breaker_fallbacks = Counter()
        self.residuals = ValueHistogram(max_samples)
        self.orth_errors = ValueHistogram(max_samples)
        # Mixed precision: refinement sweep counts of non-fp64 requests
        # and how many of them escalated to the full fp64 pipeline.
        self.refinement_iterations = CountHistogram()
        self.precision_escalations = Counter()

    def snapshot(self) -> dict:
        return {
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "failed": self.failed.value,
            "rejected": self.rejected.value,
            "cancelled": self.cancelled.value,
            "coalesced": self.coalesced.value,
            "batches": self.batches.value,
            "stacked_batches": self.stacked_batches.value,
            "latency_s": self.latency_s.snapshot(),
            "queue_wait_s": self.queue_wait_s.snapshot(),
            "batch_sizes": self.batch_sizes.snapshot(),
            "queue_depth_at_dequeue": self.queue_depth_at_dequeue.snapshot(),
            "stage_times": self.stage_times.snapshot(),
            "resilience": {
                "verifications": self.verifications.value,
                "verification_failures": self.verification_failures.value,
                "escalations": self.escalations.value,
                "fallback_exhausted": self.fallback_exhausted.value,
                "worker_crashes": self.worker_crashes.value,
                "worker_respawns": self.worker_respawns.value,
                "crash_requeues": self.crash_requeues.value,
                "deadline_expired": self.deadline_expired.value,
                "backend_faults": self.backend_faults.value,
                "breaker_fallbacks": self.breaker_fallbacks.value,
                "residuals": self.residuals.snapshot(),
                "orth_errors": self.orth_errors.snapshot(),
            },
            "precision": {
                "refinement_iterations": self.refinement_iterations.snapshot(),
                "escalations": self.precision_escalations.value,
            },
        }
