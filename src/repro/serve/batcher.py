"""Bounded FIFO request queue with batched dequeue for the solver service.

The paper's central discipline — aggregate many small, inefficient
operations into one large, efficient one — applied at the request level:
a worker that pops a batchable request (the dense tier) takes the
compatible requests already queued behind it (same ``signature``) and
executes them together as one stacked ``(m, n, n)`` call
(:func:`repro.core.evd.eigh_stacked`).  It never waits for more to
arrive, so a lone request is served with no added latency.

Backpressure is the queue's second job: ``put`` on a full queue either
blocks (``"block"``), raises immediately (``"reject"``), or blocks up to
a deadline (``"timeout"``) — the three standard policies a caller can
pick from depending on whether it prefers latency, availability, or
bounded staleness.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

__all__ = [
    "RequestQueue",
    "QueueClosed",
    "QueueFull",
    "QueueTimeout",
]


class QueueClosed(RuntimeError):
    """The queue no longer accepts work (service closed)."""


class QueueFull(RuntimeError):
    """``reject`` backpressure: the queue is at capacity."""


class QueueTimeout(RuntimeError):
    """``timeout`` backpressure: capacity did not free up in time."""


class RequestQueue:
    """Bounded FIFO queue with batched dequeue.

    A plain deque under a condition variable — at serving depths
    (hundreds) the linear scan that collects a batch costs less than
    any index over the signatures.
    """

    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ValueError("queue limit must be >= 1")
        self.limit = int(limit)
        self._items: deque[Any] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._draining = True  # on close: serve out remaining items?

    # -- producer side -------------------------------------------------
    def put(self, item: Any, policy: str = "block",
            timeout_s: float | None = None) -> None:
        """Enqueue under the given backpressure policy.

        Raises :class:`QueueClosed`, :class:`QueueFull` (policy
        ``"reject"``) or :class:`QueueTimeout` (policy ``"timeout"``).
        """
        deadline = (
            time.monotonic() + timeout_s
            if (policy == "timeout" and timeout_s is not None)
            else None
        )
        with self._cond:
            while True:
                if self._closed:
                    raise QueueClosed("queue is closed to new work")
                if len(self._items) < self.limit:
                    break
                if policy == "reject":
                    raise QueueFull(
                        f"queue at capacity ({self.limit}); backpressure "
                        "policy 'reject' refuses the request"
                    )
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0 or not self._cond.wait(remaining):
                        if len(self._items) >= self.limit:
                            raise QueueTimeout(
                                f"queue stayed at capacity ({self.limit}) for "
                                f"{timeout_s:g}s (backpressure policy 'timeout')"
                            )
                else:
                    self._cond.wait()
            self._items.append(item)
            self._cond.notify_all()

    def requeue(self, items: list[Any]) -> None:
        """Put previously-dequeued items back at the front, in their
        original order (worker-crash recovery), so a retried request
        keeps its place.

        Bypasses the capacity limit — the items already held queue slots
        once, and blocking a crash-recovery path on backpressure could
        deadlock the supervisor.  Raises :class:`QueueClosed` only when
        the queue was closed *without* drain (a draining queue still
        serves requeued work).
        """
        with self._cond:
            if self._closed and not self._draining:
                raise QueueClosed("queue is closed and not draining")
            self._items.extendleft(reversed(items))
            self._cond.notify_all()

    # -- consumer side -------------------------------------------------
    def pop_batch(
        self,
        signature: Callable[[Any], Any],
        max_batch: int,
    ) -> tuple[list[Any], int] | None:
        """Dequeue the oldest request plus up to ``max_batch - 1``
        compatible ones (same ``signature``) already queued.

        Blocks while the queue is empty; returns ``None`` when the queue
        is closed and (in drain mode) emptied — the worker-exit signal —
        and otherwise ``(batch, queue_depth_at_dequeue)``.  A signature
        of ``None`` marks a request unbatchable: it is always returned
        alone.
        """
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                self._cond.wait()
            if self._closed and not self._draining:
                return None

            depth_at_dequeue = len(self._items)
            first = self._items.popleft()
            batch = [first]
            sig = signature(first)
            if sig is not None and self._items:
                kept: deque[Any] = deque()
                for item in self._items:
                    if len(batch) < max_batch and signature(item) == sig:
                        batch.append(item)
                    else:
                        kept.append(item)
                self._items = kept
            self._cond.notify_all()  # capacity freed: wake blocked producers
            return batch, depth_at_dequeue

    # -- shutdown ------------------------------------------------------
    def close(self, drain: bool = True) -> list[Any]:
        """Refuse new work.  With ``drain`` the queued items stay and are
        served out; without, they are removed and returned to the caller
        (who cancels their futures).  Returns the removed items."""
        with self._cond:
            self._closed = True
            self._draining = bool(drain)
            removed: list[Any] = []
            if not drain:
                removed = list(self._items)
                self._items.clear()
            self._cond.notify_all()
            return removed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)
