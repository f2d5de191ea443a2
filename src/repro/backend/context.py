"""ExecutionContext: backend + workspace pool + stage-event hooks.

One :class:`ExecutionContext` is constructed per top-level call
(:func:`repro.core.tridiag.tridiagonalize` / :func:`repro.core.evd.eigh`)
and threaded down through every stage — band reduction, bulge chasing,
tridiagonal solve, back transformation.  It carries the three things a
stage needs from its environment:

* **backend** — where array operations execute (see
  :mod:`repro.backend.base`);
* **workspace pool** — named, grow-only scratch buffers allocated on the
  backend, so steady-state inner loops allocate nothing (the wavefront
  kernel's round buffers live here);
* **event hooks** — callbacks receiving :class:`StageEvent`\\ s, the
  timing seam the benchmarks use instead of sprinkling
  ``perf_counter()`` calls through the kernels.  Per-stage wall time is
  also accumulated on the context (:attr:`ExecutionContext.stage_times`).

Passing ``ctx=None`` anywhere resolves to a fresh NumPy-backed context,
so every kernel keeps working standalone exactly as before.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .base import ArrayBackend
from .numpy_backend import NumpyBackend
from .registry import get_backend

__all__ = [
    "StageEvent",
    "WorkspacePool",
    "ExecutionContext",
    "resolve_context",
]

# One stateless instance serves every default context.
_NUMPY_BACKEND = NumpyBackend()


@dataclass(frozen=True)
class StageEvent:
    """One stage lifecycle notification delivered to context hooks.

    ``phase`` is ``"start"`` or ``"end"``; ``duration_s`` is set only on
    the end event.  ``meta`` carries stage-specific payload (problem
    size, method name, ...).
    """

    stage: str
    phase: str
    backend: str
    duration_s: float | None = None
    meta: dict = field(default_factory=dict)


class WorkspacePool:
    """Named grow-only scratch buffers on a backend.

    ``stack(tag, shape)`` returns a buffer of exactly ``shape`` served
    from a cached allocation: the cache entry is reused when its trailing
    dimensions match and its leading dimension is large enough (the
    wavefront kernel's stacks shrink with round occupancy, so the
    leading dimension is a high-water mark).  Buffers are *uninitialized*
    — callers must fully overwrite what they read, exactly as with
    ``np.empty``.

    A pool (and the :class:`ExecutionContext` that owns it) is **not**
    thread-safe: two threads sharing one pool would hand out overlapping
    scratch buffers and silently corrupt each other's intermediates.  The
    pool therefore binds to the first thread that uses it and raises a
    :class:`RuntimeError` on use from any other thread — give each thread
    its own context (what :class:`repro.serve.SolverService` workers do).
    """

    def __init__(self, backend: ArrayBackend):
        self._backend = backend
        self._buffers: dict[str, Any] = {}
        self._owner_thread: int | None = None
        self._owner_name: str = ""

    def _assert_owner(self, what: str = "WorkspacePool") -> None:
        """Bind to the calling thread on first use; fail loudly after."""
        ident = threading.get_ident()
        if self._owner_thread is None:
            self._owner_thread = ident
            self._owner_name = threading.current_thread().name
        elif self._owner_thread != ident:
            raise RuntimeError(
                f"{what} is owned by thread {self._owner_name!r} "
                f"(id {self._owner_thread}) but was used from thread "
                f"{threading.current_thread().name!r} (id {ident}). "
                "ExecutionContext and its WorkspacePool are not thread-safe "
                "— construct one context per thread (repro.serve workers do "
                "exactly this; see docs/serve.md)."
            )

    def stack(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> Any:
        self._assert_owner()
        # Buffers are keyed by (tag, dtype): a mixed-precision pipeline
        # interleaving fp32 kernel scratch with fp64 secular scratch must
        # never be handed a buffer of the other width.
        key = f"{tag}|{np.dtype(dtype).name}"
        buf = self._buffers.get(key)
        if (
            buf is None
            or tuple(buf.shape[1:]) != tuple(shape[1:])
            or buf.shape[0] < shape[0]
        ):
            buf = self._backend.xp.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf[: shape[0]]

    def matrix(self, tag: str, shape: tuple[int, ...], dtype=np.float64) -> Any:
        """Scratch matrix served from a *flat* high-water-mark buffer.

        Unlike :meth:`stack`, whose cache keys on the trailing dimensions
        matching exactly, this reshapes a 1-D buffer sized to the element
        count — so a sequence of ``(N, N)`` requests with varying ``N``
        (the divide-and-conquer merge wave) reuses one allocation once the
        largest merge has been seen.
        """
        count = 1
        for dim in shape:
            count *= int(dim)
        return self.stack(tag, (count,), dtype=dtype).reshape(shape)

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held (host backends only report exact)."""
        total = 0
        for buf in self._buffers.values():
            nb = getattr(buf, "nbytes", None)
            if nb is None:  # torch tensors
                nb = buf.numel() * buf.element_size()
            total += int(nb)
        return total


class ExecutionContext:
    """Execution environment threaded through the EVD pipeline.

    Parameters
    ----------
    backend : str or ArrayBackend or None
        Resolved through :func:`repro.backend.get_backend`.
    hooks : iterable of callables, optional
        Each is invoked with a :class:`StageEvent` at stage start/end.

    A context is single-threaded: it binds to the first thread that runs
    a stage or draws a workspace buffer, and any use from another thread
    raises ``RuntimeError`` (see :class:`WorkspacePool`).  Concurrent
    callers each construct their own context.
    """

    def __init__(
        self,
        backend: str | ArrayBackend | None = None,
        hooks: list[Callable[[StageEvent], None]] | None = None,
    ):
        self.backend = get_backend(backend)
        self.workspace = WorkspacePool(self.backend)
        self.hooks: list[Callable[[StageEvent], None]] = list(hooks or [])
        self.stage_times: dict[str, float] = {}

    # -- backend delegation -------------------------------------------
    @property
    def xp(self) -> Any:
        """The backend's NumPy-compatible operation namespace."""
        return self.backend.xp

    @property
    def is_numpy(self) -> bool:
        return self.backend.name == "numpy"

    def asarray(self, x) -> Any:
        return self.backend.asarray(x)

    def from_numpy(self, x: np.ndarray) -> Any:
        return self.backend.from_numpy(x)

    def to_numpy(self, x) -> np.ndarray:
        return self.backend.to_numpy(x)

    def to_numpy_copy(self, x) -> np.ndarray:
        """Host copy that never aliases backend storage (result arrays)."""
        out = self.backend.to_numpy(x)
        return np.array(out, dtype=np.float64, copy=True)

    # -- stage events --------------------------------------------------
    def emit(self, event: StageEvent) -> None:
        for hook in self.hooks:
            hook(event)

    @contextmanager
    def stage(self, name: str, **meta):
        """Time a pipeline stage and notify hooks.

        Device backends are synchronized before the end timestamp so
        asynchronous kernels are not under-counted.
        """
        self.workspace._assert_owner("ExecutionContext")
        self.emit(StageEvent(name, "start", self.backend.name, meta=meta))
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.backend.synchronize()
            dt = time.perf_counter() - t0
            self.stage_times[name] = self.stage_times.get(name, 0.0) + dt
            self.emit(
                StageEvent(name, "end", self.backend.name, duration_s=dt, meta=meta)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionContext backend={self.backend.name!r}>"


def resolve_context(
    ctx: ExecutionContext | ArrayBackend | str | None,
) -> ExecutionContext:
    """Coerce a user-facing ``backend=``/``ctx=`` argument to a context.

    Accepts an existing context (returned unchanged), a backend instance,
    a backend name, or ``None`` (fresh NumPy-backed context).  Keeping the
    ``None`` path allocation-light matters: every kernel calls this.
    """
    if isinstance(ctx, ExecutionContext):
        return ctx
    if ctx is None:
        fresh = ExecutionContext.__new__(ExecutionContext)
        fresh.backend = _NUMPY_BACKEND
        fresh.workspace = WorkspacePool(_NUMPY_BACKEND)
        fresh.hooks = []
        fresh.stage_times = {}
        return fresh
    return ExecutionContext(backend=ctx)
