"""In-memory spans for the traced benchmark run, and their Chrome trace.

Two sources feed one :class:`SpanRecorder`:

* the stage events the program already emits — install
  :meth:`SpanRecorder.hook` on an ``ExecutionContext`` and each
  ``StageEvent`` start/end pair becomes a span, nested by start/end
  order;
* the benchmark's own timed calls (``with recorder.span(name): ...``).

Both share one stack, so a program stage that starts inside a benchmark
span becomes its child.  Spans are written out once, at the end of the
run, in the Chrome trace-event format (``ph: "X"``) that Perfetto and
``chrome://tracing`` open.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    name: str
    start: float
    depth: int
    parent: int | None
    tid: int = 0
    args: dict[str, Any] = field(default_factory=dict)
    end: float | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class SpanRecorder:
    """Nested spans on the calling thread plus free-standing lanes.

    Nested spans (``span``/``hook``) live on thread lane 0; concurrent
    intervals that do not nest, such as service requests, are added with
    :meth:`add_interval` on lanes of their own.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._lane_free: list[float] = []

    def _open(self, name: str, args: dict[str, Any]) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), len(self._stack), parent, args=args)
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, name: str) -> None:
        if not self._stack or self.spans[self._stack[-1]].name != name:
            open_name = self.spans[self._stack[-1]].name if self._stack else None
            raise RuntimeError(f"span {name!r} closed while {open_name!r} is open")
        self.spans[self._stack.pop()].end = time.perf_counter()

    def hook(self, event) -> None:
        """``ExecutionContext`` hook: one span per stage start/end pair."""
        if event.phase == "start":
            self._open(event.stage, {**event.meta, "backend": event.backend})
        elif event.phase == "end":
            self._close(event.stage)

    @contextmanager
    def span(self, name: str, **args: Any):
        """Time the enclosed block as a span nested under the open one;
        yields the span's index for :meth:`total` and :meth:`self_time`."""
        index = self._open(name, args)
        try:
            yield index
        finally:
            self._close(name)

    def add_interval(self, name: str, start: float, end: float, **args: Any) -> None:
        """Record ``[start, end]`` (``perf_counter`` instants) on the first
        lane above 0 that is free at ``start``."""
        lane = next(
            (i for i, free in enumerate(self._lane_free) if free <= start), None
        )
        if lane is None:
            lane = len(self._lane_free)
            self._lane_free.append(end)
        self._lane_free[lane] = end
        self.spans.append(
            Span(name, start, 0, None, tid=lane + 1, args=args, end=end)
        )

    # -- queries -------------------------------------------------------
    def subtree(self, index: int) -> list[int]:
        """Indices of every nested span below ``index``.  Nested spans are
        stored in start order, so a subtree is the run of deeper spans
        right after its root."""
        depth = self.spans[index].depth
        out = []
        for i in range(index + 1, len(self.spans)):
            span = self.spans[i]
            if span.tid != 0:
                continue
            if span.depth <= depth:
                break
            out.append(i)
        return out

    def total(self, index: int, name: str) -> float:
        """Summed duration of the spans called ``name`` below ``index``."""
        return sum(
            self.spans[i].duration for i in self.subtree(index)
            if self.spans[i].name == name
        )

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus that of its direct children."""
        children = sum(
            self.spans[i].duration for i in self.subtree(index)
            if self.spans[i].parent == index
        )
        return self.spans[index].duration - children

    def self_total(self, index: int, name: str) -> float:
        """Summed self time of the spans called ``name`` below ``index``."""
        return sum(
            self.self_time(i) for i in self.subtree(index)
            if self.spans[i].name == name
        )

    # -- export --------------------------------------------------------
    def chrome_events(self, process_name: str) -> list[dict]:
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": process_name}},
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "benchmark thread"}},
        ]
        for lane in range(len(self._lane_free)):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 0, "tid": lane + 1,
                 "args": {"name": f"requests lane {lane}"}}
            )
        for span in self.spans:
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": span.tid,
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": {k: _jsonable(v) for k, v in span.args.items()},
                }
            )
        return events

    def write_chrome_trace(self, path: Path, process_name: str, other: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "traceEvents": self.chrome_events(process_name),
            "displayTimeUnit": "ms",
            "otherData": other,
        }
        path.write_text(json.dumps(doc, indent=None, separators=(",", ":")) + "\n")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # NumPy scalars
        return value.item()
    return str(value)
