"""In-process asynchronous EVD solver service.

:class:`SolverService` turns the library from a call-per-matrix API into
a request-serving engine:

* ``submit(A, **solver_opts)`` returns a :class:`concurrent.futures.Future`
  resolving to the same :class:`~repro.core.evd.EVDResult` a direct
  ``repro.eigh(A, **solver_opts)`` call would produce — **bit-identical**,
  regardless of how requests interleave, batch, or hit the cache (the
  service's determinism contract, property-tested);
* requests flow through a bounded FIFO queue with pluggable
  backpressure (``block`` / ``reject`` / ``timeout``,
  :mod:`repro.serve.batcher`);
* worker threads each own a long-lived
  :class:`~repro.backend.ExecutionContext`, so workspace pools and
  backend state amortize across requests instead of being rebuilt per
  call (contexts are single-threaded by contract — the pool's
  owning-thread assertion enforces it);
* a dense-tier request takes the compatible requests queued behind it
  and they execute as one stacked ``(m, n, n)`` call
  (:func:`~repro.core.evd.eigh_stacked`); everything else runs the full
  DBBR + wavefront-BC pipeline per item on the worker's warm context;
* results are cached content-addressed
  (:mod:`repro.serve.cache`) for bit-identical replay of repeated
  matrices, and identical in-flight requests are *coalesced*
  (single-flight): a duplicate submitted while its twin is queued or
  executing attaches to the twin's future instead of recomputing.  Both
  the cache key and the coalescing identity derive from the resolved
  plan's :meth:`~repro.plan.EVDPlan.cache_token`, so equivalent
  spellings — ``method="proposed"`` vs the same preset with its
  automatic ``bandwidth``/``second_block`` spelled out — share one entry;
* a failing request (non-finite input, bad shape, ...) fails only its
  own future — the workers and every other request keep going.

**Fault tolerance** (:mod:`repro.resilience`) hardens the loop for
production traffic — the contract is *no future is ever lost*: every
``submit()`` resolves to a verified result or a typed
:class:`~repro.resilience.ReproError` subclass.

* every computed result is run through
  :func:`~repro.resilience.verify_evd` at the size-scaled
  :func:`~repro.resilience.default_tolerances`: residual/orthogonality
  land in ``stats()`` histograms and a failing check fails the future
  with a typed
  :class:`~repro.resilience.VerificationError` — or escalates, when the
  request planned ``fallback="chain"``
  (:func:`~repro.resilience.execute_plan_with_fallback`); escalated
  results are *re-keyed* in the cache under the plan that actually
  produced them, never the submitted plan's token;
* per-request **deadlines** (``submit(..., deadline_s=...)``) are
  enforced cooperatively at execution boundaries: an expired request fails with
  :class:`~repro.resilience.DeadlineExceeded` instead of occupying a
  worker;
* **worker supervision**: a worker thread dying mid-batch (any
  ``BaseException``) re-enqueues its unfinished in-flight requests (up
  to ``_MAX_CRASH_RETRIES`` each, then a typed
  :class:`~repro.resilience.WorkerCrashError`) and respawns a
  replacement worker;
* a per-backend **circuit breaker**
  (:class:`~repro.resilience.CircuitBreaker`) counts consecutive
  :class:`~repro.resilience.BackendFault` failures per non-NumPy
  backend and, once open, reroutes that backend's requests to the NumPy
  reference backend until the reset timeout elapses.

A request runs with exactly the solver options it was submitted with:
the service never changes a request's ``method``, so a caller who wants
the stacked dense tier passes ``method="dense"``.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..backend.context import ExecutionContext
from ..core.evd import eigh as core_eigh
from ..core.evd import eigh_stacked
from ..core.validation import check_symmetric
from ..plan.config import EVDPlan
from ..plan.planner import plan_evd
from ..resilience.breaker import BreakerRegistry
from ..resilience.errors import (
    BackendFault,
    DeadlineExceeded,
    FallbackExhausted,
    VerificationError,
    WorkerCrashError,
)
from ..resilience.fallback import execute_plan_with_fallback
from ..resilience.faults import maybe_raise
from ..resilience.verify import verify_evd
from .batcher import QueueClosed, QueueFull, QueueTimeout, RequestQueue
from .cache import ResultCache, plan_cache_key
from .metrics import ServiceMetrics

__all__ = [
    "ServiceConfig",
    "SolverService",
    "ServiceClosed",
    "ServiceOverloaded",
    "SubmitTimeout",
]

_BACKPRESSURE_POLICIES = ("block", "reject", "timeout")
# Reservoir size for the latency percentile estimates.
_METRICS_SAMPLES = 2048
# Seconds an open backend circuit breaker waits before letting a probe
# through.
_BREAKER_RESET_S = 30.0
# Consecutive BackendFault failures that trip a non-NumPy backend's
# circuit breaker open.
_BREAKER_THRESHOLD = 3
# Most dense-tier requests stacked into one eigh_stacked call.
_MAX_BATCH = 16
# Result-cache capacity (LRU entries).
_CACHE_ENTRIES = 256
# Times a request orphaned by a worker crash is re-enqueued before it
# fails with WorkerCrashError.
_MAX_CRASH_RETRIES = 1


class ServiceClosed(RuntimeError):
    """submit() after close(), or a pending request cancelled by a
    non-draining shutdown."""


class ServiceOverloaded(RuntimeError):
    """``reject`` backpressure: the request queue is at capacity."""


class SubmitTimeout(RuntimeError):
    """``timeout`` backpressure: capacity did not free up within
    ``submit_timeout_s``."""


@dataclass
class ServiceConfig:
    """Settings of a :class:`SolverService`.

    Attributes
    ----------
    workers : int
        Worker threads; each owns one :class:`ExecutionContext`.
    backend : str
        Array backend name each worker context resolves
        (``"numpy"``/``"torch"``/``"cupy"``/``"auto"``).
    queue_limit : int
        Bounded queue capacity — the backpressure trigger.
    backpressure : {"block", "reject", "timeout"}
        Policy when the queue is full: block the submitter, raise
        :class:`ServiceOverloaded` immediately, or block up to
        ``submit_timeout_s`` then raise :class:`SubmitTimeout`.
    submit_timeout_s : float
        Deadline for the ``"timeout"`` policy.
    """

    workers: int = 4
    backend: str = "numpy"
    queue_limit: int = 256
    backpressure: str = "block"
    submit_timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backpressure not in _BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {_BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )


@dataclass
class _Request:
    """One queued solve: input, options, resolved plan, and its future.

    ``plan`` is the fully-resolved :class:`~repro.plan.EVDPlan` the solve
    executes through (``None`` when the request is unplannable — a
    non-square input destined to fail its future, or options pinning a
    live backend object).  The cache key and batch signature both derive
    from ``plan.cache_token()``, so equivalent spellings of the same
    pipeline share one cache entry and coalesce in flight.

    ``deadline`` is an absolute ``time.monotonic()`` instant (``None`` =
    unbounded); ``crashes`` counts worker-crash orphanings (bounded by
    ``_MAX_CRASH_RETRIES``); ``started`` records that the future
    already transitioned to RUNNING, so a crash-requeued request does
    not call ``set_running_or_notify_cancel`` twice."""

    A: np.ndarray
    solver_opts: dict[str, Any]
    n: int | None
    cache_key: str | None
    plan: EVDPlan | None = None
    future: Future = field(default_factory=Future)
    t_submit: float = 0.0
    t_enqueue: float = 0.0
    deadline: float | None = None
    crashes: int = 0
    started: bool = False


class SolverService:
    """Batched asynchronous symmetric-EVD solver (see module docstring).

    Use as a context manager for deterministic shutdown::

        with SolverService(ServiceConfig(workers=4)) as svc:
            futs = [svc.submit(A) for A in matrices]
            results = [f.result() for f in futs]
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics(_METRICS_SAMPLES)
        self.cache = ResultCache(_CACHE_ENTRIES)
        self.breakers = BreakerRegistry(
            failure_threshold=_BREAKER_THRESHOLD,
            reset_timeout_s=_BREAKER_RESET_S,
        )
        self._queue = RequestQueue(self.config.queue_limit)
        self._worker_ids = itertools.count()
        self._closed = False
        self._close_lock = threading.Lock()
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()
        self._threads_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        for _ in range(self.config.workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        t = threading.Thread(
            target=self._worker_main,
            name=f"repro-serve-worker-{next(self._worker_ids)}",
            daemon=True,
        )
        with self._threads_lock:
            self._threads.append(t)
        t.start()

    # -- request intake ------------------------------------------------
    def submit(self, A: np.ndarray, **solver_opts) -> Future:
        """Enqueue one solve; returns a future of the ``EVDResult``.

        ``solver_opts`` are the keyword arguments of :func:`repro.eigh`
        (``method``, ``compute_vectors``, ``fallback``, ``precision``, ...)
        plus the service-level ``deadline_s`` (float seconds from now;
        an expired request fails with
        :class:`~repro.resilience.DeadlineExceeded`).  Result arrays are
        shared with the cache and therefore read-only.

        Raises :class:`ServiceClosed` / :class:`ServiceOverloaded` /
        :class:`SubmitTimeout` per the configured backpressure policy,
        and :class:`~repro.plan.PlanError` for invalid solver options
        (unknown knobs, bad choices) — option validation is fail-fast at
        the submit boundary, exactly like a direct ``eigh`` call.
        Invalid *matrices* never raise here — they fail their own future
        at execution time.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        self.metrics.submitted.inc()
        deadline_s = solver_opts.pop("deadline_s", None)
        A = np.asarray(A)
        n = A.shape[0] if (A.ndim == 2 and A.shape[0] == A.shape[1]) else None
        plan = self._plan_for(n, solver_opts)
        cache_key = plan_cache_key(A, plan)
        t_submit = time.monotonic()
        req = _Request(
            A=A,
            solver_opts=solver_opts,
            n=n,
            cache_key=cache_key,
            plan=plan,
            t_submit=t_submit,
            deadline=(t_submit + float(deadline_s)) if deadline_s is not None else None,
        )
        if cache_key is not None:
            # Single-flight first: a request identical to one queued or
            # running attaches to it.  Otherwise the one cache lookup of
            # this request — a leader puts its result in the cache before
            # it completes, so nothing slips between the two.
            with self._inflight_lock:
                leader = self._inflight.get(cache_key)
                if leader is not None and not leader.done():
                    follower: Future = Future()
                    self.metrics.coalesced.inc()
                    leader.add_done_callback(
                        lambda lf, fut=follower, t0=req.t_submit: (
                            self._propagate(lf, fut, t0)
                        )
                    )
                    return follower
                cached = self.cache.get(cache_key)
                if cached is None:
                    self._inflight[cache_key] = req.future
                    req.future.add_done_callback(
                        lambda _f, key=cache_key, fut=req.future: (
                            self._inflight_pop(key, fut)
                        )
                    )
            if cached is not None:
                req.future.set_result(cached)
                self._finish(req)
                return req.future
        req.t_enqueue = time.monotonic()
        try:
            self._queue.put(
                req,
                policy=self.config.backpressure,
                timeout_s=self.config.submit_timeout_s,
            )
        except QueueClosed as exc:
            req.future.cancel()  # releases the in-flight slot + followers
            raise ServiceClosed("service is closed") from exc
        except QueueFull as exc:
            self.metrics.rejected.inc()
            req.future.cancel()
            raise ServiceOverloaded(str(exc)) from exc
        except QueueTimeout as exc:
            self.metrics.rejected.inc()
            req.future.cancel()
            raise SubmitTimeout(str(exc)) from exc
        return req.future

    def _plan_for(
        self, n: int | None, solver_opts: dict[str, Any]
    ) -> EVDPlan | None:
        """Resolve the request's solver options into an
        :class:`~repro.plan.EVDPlan` — the canonical identity used for
        caching, coalescing and batching, and the object the worker
        executes.  Returns ``None`` (unplannable; fall back to a raw
        ``eigh`` call that fails the future) for non-square inputs or a
        pinned non-string backend object, whose identity a plan cannot
        capture.  Invalid option values raise
        :class:`~repro.plan.PlanError` out of ``submit``."""
        if n is None:
            return None
        backend = solver_opts.get("backend", self.config.backend)
        if not isinstance(backend, str):
            return None
        opts = {k: v for k, v in solver_opts.items() if k != "backend"}
        return plan_evd(n, backend=backend, **opts)

    def _inflight_pop(self, key: str, fut: Future) -> None:
        with self._inflight_lock:
            if self._inflight.get(key) is fut:
                del self._inflight[key]

    def _propagate(self, leader: Future, follower: Future, t_submit: float) -> None:
        """Copy a completed leader's outcome onto a coalesced follower."""
        try:
            if leader.cancelled():
                follower.cancel()
                self.metrics.cancelled.inc()
                return
            exc = leader.exception()
            if exc is not None:
                follower.set_exception(exc)
                self.metrics.failed.inc()
            else:
                follower.set_result(leader.result())
                self.metrics.completed.inc()
                self.metrics.latency_s.observe(time.monotonic() - t_submit)
        except Exception:
            # The follower was cancelled by its caller in the meantime —
            # nothing left to deliver to.
            pass

    # -- worker side ---------------------------------------------------
    @staticmethod
    def _signature(req: _Request):
        """Batch-compatibility key: same ``n`` + same canonical plan
        token, for requests that gain from stacking — the dense tier.

        Everything else returns ``None`` (unbatchable): pipeline
        requests "fall through per item" by popping singly, which keeps
        the workers load-balanced (grouping them would pin a run of
        sequential ``O(n^3)`` solves to one worker while the others
        starve — batching only pays where the arithmetic itself stacks).
        """
        if req.plan is None or not req.plan.is_dense:
            return None
        if "backend" in req.solver_opts:
            return None
        return (req.n, req.plan.cache_token())

    def _worker_main(self) -> None:
        """Thread target: the worker loop under supervision.

        A worker dying on a ``BaseException`` (a real thread-killing
        condition, or the injected ``serve.worker`` crash fault) has its
        in-flight batch rescued by :meth:`_handle_worker_crash` inside
        :meth:`_worker_loop`; here the replacement worker is spawned so
        service capacity survives the crash.
        """
        try:
            self._worker_loop()
        except BaseException:
            with self._close_lock:
                closed = self._closed
            if not closed:
                self.metrics.worker_respawns.inc()
                self._spawn_worker()

    def _worker_loop(self) -> None:
        # Each worker constructs its context *in its own thread*: the
        # workspace pool binds to this thread and amortizes across every
        # request the worker serves.  An unavailable configured backend
        # must not kill the worker before it serves anything (that would
        # strand queued futures and spin the supervisor respawning
        # stillborn threads) — fall back to a NumPy context; requests
        # whose plan pins the unavailable backend then fail individually
        # with the backend's own typed error at execution time.
        try:
            ctx = ExecutionContext(
                backend=self.config.backend,
                hooks=[self.metrics.stage_times.hook],
            )
        except Exception:
            ctx = ExecutionContext(
                backend="numpy",
                hooks=[self.metrics.stage_times.hook],
            )
        while True:
            popped = self._queue.pop_batch(self._signature, _MAX_BATCH)
            if popped is None:
                return
            batch, depth = popped
            now = time.monotonic()
            self.metrics.batches.inc()
            self.metrics.batch_sizes.observe(len(batch))
            self.metrics.queue_depth_at_dequeue.observe(depth)
            for req in batch:
                self.metrics.queue_wait_s.observe(now - req.t_enqueue)
            try:
                self._execute_batch(ctx, batch)
            except BaseException as exc:
                # Worker crash: rescue the in-flight batch, then let the
                # exception kill this thread (supervision respawns it).
                self._handle_worker_crash(batch, exc)
                raise

    def _handle_worker_crash(self, batch: list[_Request], exc: BaseException) -> None:
        """No future is ever lost: every unfinished request of a crashed
        worker's batch goes back to the front of the queue, or fails
        with a typed :class:`WorkerCrashError` once its retry budget is
        spent."""
        self.metrics.worker_crashes.inc()
        retry: list[_Request] = []
        for req in batch:
            if req.future.done():
                continue
            req.crashes += 1
            if req.crashes > _MAX_CRASH_RETRIES or self._closed:
                self._fail(req, WorkerCrashError(
                    f"worker thread died while executing this request "
                    f"(crash {req.crashes}, retry budget "
                    f"{_MAX_CRASH_RETRIES}): {exc!r}"
                ))
            else:
                retry.append(req)
        if not retry:
            return
        try:
            self._queue.requeue(retry)
            self.metrics.crash_requeues.inc(len(retry))
        except QueueClosed:
            for req in retry:
                self._fail(req, WorkerCrashError(
                    f"worker thread died and the service is closed: {exc!r}"
                ))

    def _fail(self, req: _Request, exc: BaseException) -> None:
        self.metrics.failed.inc()
        req.future.set_exception(exc)

    def _begin(self, req: _Request) -> bool:
        """Transition the request's future to RUNNING (idempotent across
        crash re-executions); False when it was cancelled or already
        resolved."""
        if req.started:
            return not req.future.done()
        req.started = True
        if req.future.set_running_or_notify_cancel():
            return True
        self.metrics.cancelled.inc()
        return False

    def _expired(self, req: _Request) -> bool:
        if req.deadline is None or time.monotonic() <= req.deadline:
            return False
        self.metrics.deadline_expired.inc()
        self._fail(req, DeadlineExceeded(
            f"request deadline expired before execution "
            f"(deadline was {req.deadline - req.t_submit:.3f}s after submit)"
        ))
        return True

    def _execute_batch(self, ctx: ExecutionContext, batch: list[_Request]) -> None:
        if self._signature(batch[0]) is not None:
            self._execute_dense_stacked(ctx, batch)
        else:
            for req in batch:
                self._execute_single(ctx, req)

    def _execute_single(self, ctx: ExecutionContext, req: _Request) -> None:
        if not self._begin(req):
            return
        if self._expired(req):
            return
        # Injected worker death: a BaseException that sails past every
        # handler below, exactly like a genuine thread-killing failure.
        maybe_raise("serve.worker")

        # Circuit breaker: an open breaker reroutes this request's plan
        # to the NumPy reference backend instead of burning another
        # attempt against a failing accelerator backend.
        plan = req.plan
        breaker = None
        rerouted = False
        if plan is not None and plan.backend != "numpy":
            breaker = self.breakers.get(plan.backend)
            if not breaker.allow():
                self.metrics.breaker_fallbacks.inc()
                plan = dataclasses.replace(plan, backend="numpy")
                breaker = None
                rerouted = True
        outcome = None
        try:
            maybe_raise("serve.backend")
            if plan is None:
                # Unplannable (non-square input or a live backend object
                # pinned in the options): replay the raw call so the
                # failure / backend identity semantics match direct eigh.
                result = core_eigh(req.A, **req.solver_opts)
            else:
                # A pinned backend, a breaker reroute, or a worker whose
                # configured backend was unavailable all mean the worker
                # context's substrate does not match the plan; step
                # aside and let the runner resolve a context from
                # plan.backend (raising its typed unavailability error
                # on this request's future alone).
                use_ctx = (
                    ctx
                    if (
                        "backend" not in req.solver_opts
                        and not rerouted
                        and plan.backend == ctx.backend.name
                    )
                    else None
                )
                outcome = execute_plan_with_fallback(req.A, plan, ctx=use_ctx)
                result = outcome.result
        except BackendFault as exc:
            self.metrics.backend_faults.inc()
            if breaker is not None:
                breaker.record_failure()
            self._fail(req, exc)
            return
        except Exception as exc:
            if isinstance(exc, VerificationError):
                self.metrics.verification_failures.inc()
            if isinstance(exc, FallbackExhausted):
                self.metrics.fallback_exhausted.inc()
            self._fail(req, exc)
            return
        if breaker is not None:
            breaker.record_success()
        self._record_outcome(outcome)
        refinement = getattr(result, "refinement", None)
        if refinement is not None:
            self.metrics.refinement_iterations.observe(refinement.iterations)
            if refinement.escalated:
                self.metrics.precision_escalations.inc()
        if outcome is not None and (outcome.escalated or rerouted):
            # Produced by a fallback link or the NumPy reroute, not the
            # submitted plan: cache only under the plan that actually
            # ran, never under the submitted plan's token.
            self.cache.put(plan_cache_key(req.A, outcome.plan), result)
        else:
            self.cache.put(req.cache_key, result)
        req.future.set_result(result)
        self._finish(req)

    def _record_outcome(self, outcome) -> None:
        """Verification / escalation accounting for a fallback-executor
        outcome (``None`` for an unplannable request's raw call)."""
        if outcome is None:
            return
        self._record_report(outcome.report)
        if outcome.escalated:
            self.metrics.escalations.inc(len(outcome.escalations))
            for rec in outcome.escalations:
                if rec.error_type == "VerificationError":
                    self.metrics.verification_failures.inc()

    def _record_report(self, report) -> None:
        self.metrics.verifications.inc()
        if report.residual is not None:
            self.metrics.residuals.observe(report.residual)
        if report.orth_error is not None:
            self.metrics.orth_errors.observe(report.orth_error)

    def _execute_dense_stacked(
        self, ctx: ExecutionContext, batch: list[_Request]
    ) -> None:
        """The dense tier: one stacked ``(m, n, n)`` solve.

        Validation runs per item first so a bad matrix fails its own
        future and drops out of the stack; ``eigh_stacked`` is
        batch-invariant, so survivors get bits identical to a lone
        ``eigh(A, method="dense")`` call.
        """
        started: list[_Request] = []
        clean: list[np.ndarray] = []
        for req in batch:
            if not self._begin(req):
                continue
            if self._expired(req):
                continue
            try:
                clean.append(check_symmetric(req.A))
                started.append(req)
            except Exception as exc:
                self._fail(req, exc)
        if not started:
            return
        maybe_raise("serve.worker")
        plan0 = started[0].plan
        compute_vectors = plan0.solver.compute_vectors
        # A worker running on its fallback context (configured backend
        # unavailable) must not silently substitute another substrate's
        # bits — resolve from the plan's backend name and let its typed
        # unavailability error fail the batch.
        exec_backend = ctx if plan0.backend == ctx.backend.name else plan0.backend
        try:
            maybe_raise("serve.backend")
            results = eigh_stacked(
                np.stack(clean), compute_vectors=compute_vectors, backend=exec_backend
            )
        except Exception as exc:
            if isinstance(exc, BackendFault):
                self.metrics.backend_faults.inc()
            for req in started:
                self._fail(req, exc)
            return
        self.metrics.stacked_batches.inc()
        for req, A_clean, result in zip(started, clean, results):
            report = verify_evd(A_clean, result, ctx=ctx)
            self._record_report(report)
            try:
                report.raise_if_failed()
            except VerificationError as exc:
                self.metrics.verification_failures.inc()
                self._fail(req, exc)
                continue
            self.cache.put(req.cache_key, result)
            req.future.set_result(result)
            self._finish(req)

    def _finish(self, req: _Request) -> None:
        self.metrics.completed.inc()
        self.metrics.latency_s.observe(time.monotonic() - req.t_submit)

    # -- lifecycle -----------------------------------------------------
    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting requests and shut the workers down.

        With ``drain`` (default) every queued request is still executed
        before the workers exit; without it, queued requests are
        cancelled (their futures raise ``CancelledError``) and workers
        stop after their in-flight batch.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            removed = self._queue.close(drain=drain)
        for req in removed:
            if req.future.cancel():
                self.metrics.cancelled.inc()
        # The thread list can grow while we join (a crash just before
        # close respawns a worker) — join snapshots until quiescent.
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            with self._threads_lock:
                alive = [t for t in self._threads if t.is_alive()]
            if not alive:
                return
            for t in alive:
                if deadline is None:
                    t.join()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return
                    t.join(remaining)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """Full service snapshot: config, queue, cache, metric histograms."""
        return {
            "workers": self.config.workers,
            "backend": self.config.backend,
            "closed": self._closed,
            "queue_depth": len(self._queue),
            "queue_limit": self.config.queue_limit,
            "backpressure": self.config.backpressure,
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "resilience": {"breakers": self.breakers.stats()},
        }
