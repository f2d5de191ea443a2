"""Run one workload of the EVD benchmark in this process.

Started by ``bench_evd.py``, which pins the BLAS threads and points
``PYTHONPATH`` at the checkout's ``src`` before this process imports
NumPy.  Protocol on standard output: the line ``READY`` once set-up is
done (the parent times set-up from process start to that line), then,
for ``--role measure``, one JSON line with the run record.  Progress
goes to standard error.

Every solve is checked: ``verify_evd`` must pass and the eigenvalues
must match LAPACK's (``numpy.linalg.eigh``/``eigvalsh`` on the same
matrix) within ``200 * n * eps * ||A||_F``.  A solve that raises or
fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro
from repro import (
    ExecutionContext,
    ServiceConfig,
    SolverService,
    dc_eigh,
    execute_plan,
    plan_evd,
    verify_evd,
)
from repro.bench.workloads import clustered_spectrum, goe, symmetric_with_spectrum
from repro.core.back_transform import apply_sbr_q
from repro.models.flops import (
    bc_back_transform_flops,
    dbbr_flops,
    sbr_back_transform_flops,
)
from repro.plan import predicted_stage_times, solve_tridiagonal_planned
from repro.precision import resolve_policy

from evd_trace import SpanRecorder
from evd_workloads import WORKLOADS, EVDWorkload, ServeWorkload, nproc

SRC = Path(__file__).resolve().parents[2] / "src"
EPS = float(np.finfo(np.float64).eps)
#: Eigenvalues may miss LAPACK's by this many ``n * eps * ||A||_F`` — the
#: factor ``verify_evd`` applies to residual and orthogonality.
EIGVAL_FACTOR = 200.0
#: Matrix index of the set-up solve, apart from the indices of timed ones.
SETUP_INDEX = 1_000_000
#: Calls averaged into one ``plan_evd`` timing (one call takes ~40 us).
PLAN_CALLS = 200
#: LAPACK calls per service request matrix; the fastest is the reference.
SERVE_LAPACK_REPEATS = 3


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def evd_matrix(w: EVDWorkload, n: int, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng((seed if w.pool_key is None else w.pool_key, index))
    if w.matrix == "goe":
        return goe(n, rng)
    spectrum = clustered_spectrum(n, clusters=8, spread=1e-9, seed=rng)
    return symmetric_with_spectrum(spectrum, seed=rng)


class Checker:
    """Correctness of every solve, and the LAPACK reference line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.lapack_s: list[float] = []
        self.verify_s: list[float] = []
        self.escalations = 0
        self.worst = {"residual_neps": 0.0, "orth_neps": 0.0, "eigval_err_neps": 0.0}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def error(self, label: str, exc: BaseException) -> None:
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def reference(
        self, A: np.ndarray, vectors: bool, repeats: int = 1
    ) -> tuple[np.ndarray, float]:
        """LAPACK's eigenvalues of ``A`` and its fastest wall time over
        ``repeats`` calls, the reference line (with eigenvectors when the
        workload computes them)."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            lam = np.linalg.eigh(A)[0] if vectors else np.linalg.eigvalsh(A)
            times.append(time.perf_counter() - t0)
        self.lapack_s.append(min(times))
        return lam, min(times)

    def check(self, A: np.ndarray, result, lam_ref: np.ndarray, label: str) -> bool:
        n = A.shape[0]
        t0 = time.perf_counter()
        report = verify_evd(A, result)
        self.verify_s.append(time.perf_counter() - t0)
        unit = n * EPS
        # Eigenvalues-only results have no residual; the trace check is
        # the residual they can be held to.
        residual = report.residual if report.residual is not None else report.trace_error
        eig_err = float(np.max(np.abs(result.eigenvalues - lam_ref))) / (
            unit * float(np.linalg.norm(A))
        )
        worst = self.worst
        worst["residual_neps"] = max(worst["residual_neps"], (residual or 0.0) / unit)
        worst["orth_neps"] = max(worst["orth_neps"], (report.orth_error or 0.0) / unit)
        worst["eigval_err_neps"] = max(worst["eigval_err_neps"], eig_err)
        refinement = getattr(result, "refinement", None)
        if refinement is not None and refinement.escalated:
            self.escalations += 1
        if not report.ok:
            self.failures.append(f"{label}: verify_evd failed {report.failures}")
            return False
        if eig_err > EIGVAL_FACTOR:
            self.failures.append(
                f"{label}: eigenvalues miss LAPACK's by {eig_err:.1f} n*eps*||A||_F"
            )
            return False
        return True


class Tracer:
    """Traced solves: the program's stage events plus the benchmark's own
    replay of the back transform, summed over every traced solve.

    The replay recomputes ``U`` with ``solve_tridiagonal_planned`` on the
    solve's ``(d, e)`` and applies ``Q1`` then ``Q_sbr`` to
    ``np.array(U, copy=True)`` exactly as ``execute_plan`` does.  The
    operand keeps ``U``'s strided layout, and the back transform's cost
    depends on the operand's layout, so a replay on ``np.eye(n)`` would
    time a different program.  For fp64 the replay must reproduce the
    solve's eigenvectors bit for bit.
    """

    STAGES = (
        "band_reduction",
        "bulge_chasing",
        "dc_leaf",
        "dc_deflate",
        "dc_secular",
        "dc_gemm",
        "back_transform",
        "refine_evd",
    )

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.sums: dict[str, float] = defaultdict(float)
        self.solves = 0
        self.workspace_bytes = 0
        self.replay_identical: list[bool] = []

    def solve(self, A: np.ndarray, plan, ctx: ExecutionContext, label: str):
        rec, sums = self.rec, self.sums
        policy = resolve_policy(plan.precision)
        mixed = plan.precision != "fp64"
        with rec.span("sample", matrix=label, n=plan.n, precision=plan.precision):
            ctx.hooks = [rec.hook]
            try:
                with rec.span("execute_plan", n=plan.n) as ep:
                    t0 = time.perf_counter()
                    res = execute_plan(A, plan, ctx=ctx)
                    dt = time.perf_counter() - t0
            finally:
                ctx.hooks = []
            tri = res.tridiag
            d = np.asarray(tri.d, dtype=np.float64)
            e = np.asarray(tri.e, dtype=np.float64)
            vector_dtype = policy.solver_dtype if mixed else None
            with rec.span("replay.tridiag_solver"):
                _, U = solve_tridiagonal_planned(d, e, plan.solver, vector_dtype=vector_dtype)
            if plan.solver.compute_vectors:
                if mixed:
                    X = np.array(U, dtype=policy.back_transform_dtype, copy=True)
                else:
                    X = np.array(U, copy=True)
                with rec.span("replay.bc_back", layout=str(U.strides)) as bc:
                    tri.bc_result.apply_q1(X)
                with rec.span("replay.sbr_back", method=tri.back_transform_method) as sb:
                    apply_sbr_q(
                        tri.band_result.blocks,
                        X,
                        method=tri.back_transform_method,
                        group_width=tri.back_transform_group,
                        ctx=tri.ctx,
                    )
                sums["bc_back"] += rec.spans[bc].duration
                sums["sbr_back"] += rec.spans[sb].duration
                sums["bc_back_flops"] += bc_back_transform_flops(plan.n, tri.bandwidth)
                sums["sbr_back_flops"] += sbr_back_transform_flops(plan.n)
                if not mixed:
                    # Mixed results are refined after the back transform,
                    # so only fp64 eigenvectors can be matched bit for bit.
                    self.replay_identical.append(bool(np.array_equal(X, res.eigenvectors)))
            with rec.span("replay.dc_stats"):
                _, _, dc_stats = dc_eigh(
                    d,
                    e,
                    compute_vectors=plan.solver.compute_vectors,
                    return_stats=True,
                    vector_dtype=vector_dtype,
                )

        self.solves += 1
        sums["execute_plan"] += rec.spans[ep].duration
        for stage in self.STAGES:
            sums[stage] += rec.total(ep, stage)
        sums["tridiagonalize_self"] += rec.self_total(ep, "tridiagonalize")
        sums["tridiag_solver_self"] += rec.self_total(ep, "tridiag_solver")
        t = plan.tridiag
        sums["band_reduction_flops"] += dbbr_flops(plan.n, t.bandwidth, t.second_block)
        sums["rounds"] += tri.pipeline_stats.rounds
        sums["reflectors"] += tri.bc_result.num_reflectors
        sums["dc_merges"] += dc_stats.merges
        sums["dc_deflation_fraction"] += dc_stats.deflation_fraction
        if res.refinement is not None:
            sums["refine_iterations"] += res.refinement.iterations
        self.workspace_bytes = max(self.workspace_bytes, ctx.workspace.nbytes)
        return res, dt

    def seconds(self) -> dict[str, float]:
        """Mean seconds per traced solve for each layer (``execute_plan``
        wall time included), the absolute figures behind the shares."""
        k = max(self.solves, 1)
        s = self.sums
        out = {
            name: s[name] / k
            for name in ("execute_plan", *self.STAGES, "bc_back", "sbr_back",
                         "tridiagonalize_self", "tridiag_solver_self")
        }
        out["back_transform_self"] = (s["back_transform"] - s["bc_back"] - s["sbr_back"]) / k
        return out

    def metrics(self) -> dict[str, float]:
        k = max(self.solves, 1)
        s = self.sums
        sec = self.seconds()
        total = s["execute_plan"]
        return {
            "core.band_reduction_s": sec["band_reduction"],
            "core.band_reduction_gflops": ratio(s["band_reduction_flops"], s["band_reduction"]) / 1e9,
            "core.bulge_chasing_s": sec["bulge_chasing"],
            "core.bulge_chasing_rounds": s["rounds"] / k,
            "core.bulge_chasing_reflectors": s["reflectors"] / k,
            "core.tridiagonalize_self_s": sec["tridiagonalize_self"],
            "core.bc_back_gflops": ratio(s["bc_back_flops"], s["bc_back"]) / 1e9,
            "core.bc_back_share": ratio(s["bc_back"], total),
            "core.sbr_back_gflops": ratio(s["sbr_back_flops"], s["sbr_back"]) / 1e9,
            "core.sbr_back_share": ratio(s["sbr_back"], total),
            "core.back_transform_self_share": ratio(
                s["back_transform"] - s["bc_back"] - s["sbr_back"], total
            ),
            "eig.dc_leaf_s": sec["dc_leaf"],
            "eig.dc_deflate_s": sec["dc_deflate"],
            "eig.dc_secular_s": sec["dc_secular"],
            "eig.dc_gemm_s": sec["dc_gemm"],
            "eig.tridiag_solver_self_s": sec["tridiag_solver_self"],
            "eig.dc_merges": s["dc_merges"] / k,
            "eig.dc_deflation_fraction": s["dc_deflation_fraction"] / k,
            "precision.refine_share": ratio(s["refine_evd"], total),
            "precision.refine_iterations": s["refine_iterations"] / k,
            "backend.workspace_mb": self.workspace_bytes / 1e6,
        }


def plan_seconds(requests: list[tuple[int, dict]]) -> float:
    """Median wall time of one ``plan_evd`` call over the workload's
    request kinds."""
    times = []
    for i in range(PLAN_CALLS):
        n, opts = requests[i % len(requests)]
        t0 = time.perf_counter()
        plan_evd(n, **opts)
        times.append(time.perf_counter() - t0)
    return median(times)


def end_to_end(solve_s: float, vs_lapack: float, times: list[float], throughput: float) -> dict:
    """The end-to-end metrics of a run (``setup_s`` is added by the
    parent).

    ``times`` are the user-visible times of its solves or paced requests,
    ``solve_s`` their typical value and ``vs_lapack`` the same over
    LAPACK's time on the same matrices, timed next to them: the host's
    speed drifts for minutes at a time, which moves raw seconds between
    runs but LAPACK's time with them.  ``solve_s``, the 90th percentile
    (on the EVD workloads the slowest of 2-3 solves) and the throughput
    are recorded but not gated (``evd_workloads.UNGATED``).
    """
    return {
        "solve_s": solve_s,
        "vs_lapack": vs_lapack,
        "peak_rss_mb": rss_mb(),
        "latency_p90_s": float(np.percentile(times, 90)),
        "throughput_rps": throughput,
    }


def overhead(pairs: list[tuple[float, float]]) -> float:
    """Tracing overhead from (untraced, traced) times of the same matrices."""
    return ratio(sum(t for _, t in pairs), sum(u for u, _ in pairs)) - 1.0


def finish_per_layer(
    metrics: dict,
    checker: Checker,
    trace_overhead: float,
    plan_s: float,
    serve: dict | None = None,
) -> dict:
    """Complete the per-layer metric set shared by every workload."""
    serve = serve or {}
    metrics.update(
        {
            "precision.escalations": float(checker.escalations),
            "resilience.verify_s": median(checker.verify_s),
            **{f"resilience.{k}": v for k, v in checker.worst.items()},
            "plan.plan_s": plan_s,
            "serve.queue_wait_frac": serve.get("queue_wait_frac", 0.0),
            "serve.cache_hit_rate": serve.get("cache_hit_rate", 0.0),
            "serve.coalesced": serve.get("coalesced", 0.0),
            "serve.batch_size_mean": serve.get("batch_size_mean", 0.0),
            "serve.stacked_batches": serve.get("stacked_batches", 0.0),
            "ref.lapack_s": median(checker.lapack_s),
            "trace.overhead_frac": trace_overhead,
        }
    )
    return metrics


# -- the three single-client EVD workloads -------------------------------
def evd_sample(w: EVDWorkload, A: np.ndarray, plan, ctx: ExecutionContext,
               checker: Checker, tracer: Tracer | None, label: str):
    """Solve and check one matrix; returns (solve seconds, LAPACK seconds),
    or ``None`` when the solve raised.  The result dies with the call."""
    checker.attempted += 1
    try:
        if tracer is not None:
            res, dt = tracer.solve(A, plan, ctx, label)
        else:
            t0 = time.perf_counter()
            res = execute_plan(A, plan, ctx=ctx)
            dt = time.perf_counter() - t0
    except Exception as exc:  # a failing solve is counted, the run goes on
        checker.error(label, exc)
        return None
    lam_ref, lapack_s = checker.reference(A, w.vectors)
    checker.check(A, res, lam_ref, label)
    log(f"{w.name} {label}: {dt:.3f} s{' (traced)' if tracer is not None else ''}")
    return dt, lapack_s


def run_evd(w: EVDWorkload, args, ready) -> dict | None:
    n = w.smoke_n if args.smoke else w.n
    plan_opts = dict(method="proposed", compute_vectors=w.vectors, precision=w.precision)
    plan = plan_evd(n, **plan_opts)
    ctx = ExecutionContext()
    execute_plan(evd_matrix(w, n, args.seed, SETUP_INDEX), plan, ctx=ctx)
    ready()
    if args.role == "setup":
        return None

    checker = Checker()
    tracer = Tracer() if args.trace else None
    solve_s: list[float] = []
    lapack_s: list[float] = []
    pairs: list[tuple[float, float]] = []
    order = np.random.default_rng(args.seed).permutation(w.matrices)
    t_end = time.perf_counter() + args.seconds
    i = 0
    while i % w.matrices or time.perf_counter() < t_end:
        index = int(order[i % w.matrices])
        i += 1
        A = evd_matrix(w, n, args.seed, index)
        sample = evd_sample(w, A, plan, ctx, checker, None, f"matrix {index}")
        if sample is not None:
            solve_s.append(sample[0])
            lapack_s.append(sample[1])
        if tracer is not None:
            # The same matrix again, traced: the pair gives the overhead.
            traced = evd_sample(w, A, plan, ctx, checker, tracer, f"matrix {index}")
            if sample is not None and traced is not None:
                pairs.append((sample[0], traced[0]))
        del A
        # Garbage held in reference cycles is freed here, not whenever the
        # collector next runs, so peak memory does not depend on that.
        gc.collect()

    record = base_record(w, args, checker, {"n": n, "matrices": w.matrices})
    record["samples"].update(
        solve_s=solve_s, vs_lapack=[s / r for s, r in zip(solve_s, lapack_s)]
    )
    if tracer is None:
        # Means over whole passes: each matrix of the pool counts once per
        # pass, so a solve that escalates weighs in at its share of the pool.
        total = sum(solve_s)
        record["metrics"] = end_to_end(
            total / len(solve_s), ratio(total, sum(lapack_s)), solve_s, ratio(len(solve_s), total)
        )
        return record
    record["metrics"] = finish_per_layer(
        tracer.metrics(), checker, overhead(pairs), plan_seconds([(n, plan_opts)])
    )
    add_trace(record, tracer, args, {"model": predicted_stage_times(plan)})
    return record


# -- the service workload ------------------------------------------------
def serve_mix(w: ServeWorkload, smoke: bool) -> tuple[tuple[int, str], ...]:
    shrink = w.smoke_shrink if smoke else 1
    return tuple((n // shrink, method) for n, method in w.mix)


def serve_pool(mix, count: int, rng) -> list[tuple[np.ndarray, str]]:
    """``count`` matrices following ``mix`` in order, so the composition is
    the same for every seed and only the entries change."""
    return [
        (goe(mix[i % len(mix)][0], rng), mix[i % len(mix)][1]) for i in range(count)
    ]


class Requests:
    """One phase's requests: start and completion instants, then checks.

    :meth:`check` releases the results, so the process's peak memory is
    the service's (its result cache), not results the benchmark holds.
    """

    def __init__(self, checker: Checker, phase: str) -> None:
        self.checker = checker
        self.phase = phase
        self.starts: list[float] = []
        self.labels: list[str] = []
        self.done_at: dict[int, float] = {}
        #: LAPACK's time on the matrix of every request that succeeded.
        self.lapack_s: dict[int, float] = {}
        #: LAPACK's eigenvalues and time per pool index.
        self.refs: dict[int, tuple[np.ndarray, float]] = {}
        self._pending: list[tuple[int, int, object]] = []  # (request, pool index, future)

    def reference(self, pool, j: int) -> None:
        """Time LAPACK on ``pool[j]`` now.  LAPACK takes about a
        millisecond at these sizes, so its time is the fastest of
        ``SERVE_LAPACK_REPEATS`` calls."""
        self.refs[j] = self.checker.reference(pool[j][0], True, SERVE_LAPACK_REPEATS)

    def submit(self, svc: SolverService, pool, j: int, t0: float) -> None:
        A, method = pool[j]
        k = len(self.starts)
        self.starts.append(t0)
        self.labels.append(f"{self.phase} n={A.shape[0]} {method}")
        self.checker.attempted += 1
        try:
            fut = svc.submit(A, method=method)
        except Exception as exc:  # refused requests count as failed
            self.checker.error(f"{self.phase} request {k}", exc)
            return
        fut.add_done_callback(lambda _f, k=k: self.done_at.__setitem__(k, time.perf_counter()))
        self._pending.append((k, j, fut))

    def wait(self) -> None:
        for _, _, fut in self._pending:
            fut.exception()

    def check(self, pool) -> None:
        """Check every result against LAPACK on its matrix, timed here
        once per distinct matrix unless :meth:`reference` timed it."""
        for k, j, fut in self._pending:
            label = f"{self.phase} request {k}"
            exc = fut.exception()
            if exc is not None:
                self.checker.error(label, exc)
                continue
            A = pool[j][0]
            if j not in self.refs:
                self.reference(pool, j)
            if self.checker.check(A, fut.result(), self.refs[j][0], label):
                self.lapack_s[k] = self.refs[j][1]
        self._pending = []

    def latencies(self) -> list[float]:
        """Completion minus start (the due time when paced) of every
        request that succeeded."""
        return [self.done_at[k] - self.starts[k] for k in self.lapack_s]

    def vs_lapack(self) -> list[float]:
        return [(self.done_at[k] - self.starts[k]) / s for k, s in self.lapack_s.items()]

    def trace_into(self, rec: SpanRecorder) -> None:
        for k, end in sorted(self.done_at.items()):
            rec.add_interval(self.labels[k], self.starts[k], end)


def service_config(w: ServeWorkload) -> ServiceConfig:
    return ServiceConfig(
        workers=nproc(), queue_limit=w.queue_limit, backpressure="block"
    )


def run_burst(w: ServeWorkload, mix, n_req: int, n_unique: int, seed, checker: Checker):
    """A closed loop behind the bounded queue (submit blocks while it is
    full) over a pool of repeated matrices, so the cache and in-flight
    coalescing work.  Each burst gets a fresh service, so bursts are
    alike.  Returns the requests, the wall time and the service stats."""
    rng = np.random.default_rng(seed)
    pool = serve_pool(mix, n_unique, rng)
    order = np.concatenate(
        [rng.permutation(n_unique) for _ in range(math.ceil(n_req / n_unique))]
    )[:n_req]
    reqs = Requests(checker, f"burst {seed[-1]}")
    gc.collect()  # start every phase from the same heap, outside the timing
    with SolverService(service_config(w)) as svc:
        t0 = time.perf_counter()
        for j in order:
            reqs.submit(svc, pool, int(j), time.perf_counter())
        reqs.wait()
        wall = time.perf_counter() - t0
        stats = svc.stats()
    reqs.check(pool)
    return reqs, wall, stats


def run_paced(w: ServeWorkload, pool, checker: Checker):
    """An open loop of unique requests sent on a fixed schedule whatever
    the service does; latency runs from each due time, so a stall also
    charges the requests queued behind it.  Returns the requests, how
    late the generator sent each one, and the service stats.

    The generator times LAPACK on each request's matrix just before
    sending it.  The host slows down for seconds at a time; a reference
    timed in a later phase missed such stretches or caught them alone,
    which spread ``vs_lapack`` by up to 14% between runs.
    """
    paced = Requests(checker, "paced")
    lateness = []
    gc.collect()
    with SolverService(service_config(w)) as svc:
        start = time.perf_counter() + 0.05
        for k in range(len(pool)):
            paced.reference(pool, k)
            due = start + k / w.paced_rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            paced.submit(svc, pool, k, due)
        paced.wait()
        stats = svc.stats()
    paced.check(pool)
    return paced, lateness, stats


def run_serve(w: ServeWorkload, args, ready) -> dict | None:
    mix = serve_mix(w, args.smoke)
    sizes = sorted({n for n, _ in mix})
    scale = w.smoke_scale if args.smoke else 1.0
    setup_rng = np.random.default_rng((args.seed, SETUP_INDEX))
    with SolverService(service_config(w)) as svc:
        svc.submit(goe(max(sizes), setup_rng), method="proposed").result()
        ready()
    if args.role == "setup":
        return None

    checker = Checker()
    tracer = Tracer() if args.trace else None
    stats: list[dict] = []
    n_req = max(8, round(w.burst_requests * scale))
    n_unique = max(4, round(w.burst_unique * scale))
    throughput, phases = [], []
    for b in range(w.bursts):
        reqs, wall, burst_stats = run_burst(w, mix, n_req, n_unique, (args.seed, 1, b), checker)
        throughput.append(n_req / wall)
        phases.append(reqs)
        stats.append(burst_stats)
        log(f"{w.name} burst {b}: {n_req} requests in {wall:.3f} s")
    n_paced = max(20, round(w.paced_requests * scale))
    pool = serve_pool(mix, n_paced, np.random.default_rng((args.seed, 2)))
    paced, lateness, paced_stats = run_paced(w, pool, checker)
    phases.append(paced)
    latency, vs_lapack = paced.latencies(), paced.vs_lapack()
    log(f"{w.name} paced: {n_paced} requests at {w.paced_rate:g}/s, "
        f"p50 {median(latency) * 1e3:.1f} ms")

    record = base_record(w, args, checker, {"mix": [list(m) for m in mix]})
    record["samples"].update(
        latency_s=latency, vs_lapack=vs_lapack, throughput_rps=throughput, lateness_s=lateness
    )
    record["generator_lateness_s"] = {"p50": median(lateness), "max": max(lateness)}
    if tracer is None:
        record["metrics"] = end_to_end(
            median(latency), median(vs_lapack), latency, median(throughput)
        )
        return record

    for reqs in phases:
        reqs.trace_into(tracer.rec)
    trace_overhead, model = trace_direct_solves(sizes, pool, tracer, checker)
    all_stats = stats + [paced_stats]
    batches = [
        (int(size), count)
        for s in all_stats
        for size, count in s["metrics"]["batch_sizes"].items()
    ]
    hits = sum(s["cache"]["hits"] for s in stats)
    lookups = hits + sum(s["cache"]["misses"] for s in stats)
    qwait = paced_stats["metrics"]["queue_wait_s"]
    plat = paced_stats["metrics"]["latency_s"]
    serve_metrics = {
        "queue_wait_frac": ratio(qwait.get("p50", 0.0), plat.get("p50", 0.0)),
        "cache_hit_rate": ratio(hits, lookups),
        "coalesced": float(sum(s["metrics"]["coalesced"] for s in stats)),
        "batch_size_mean": ratio(sum(z * c for z, c in batches), sum(c for _, c in batches)),
        "stacked_batches": float(sum(s["metrics"]["stacked_batches"] for s in all_stats)),
    }
    record["metrics"] = finish_per_layer(
        tracer.metrics(), checker, trace_overhead,
        plan_seconds([(n, {"method": m}) for n, m in mix]), serve_metrics,
    )
    add_trace(record, tracer, args, {"model": model})
    return record


def trace_direct_solves(sizes, pool, tracer: Tracer, checker: Checker):
    """Per-layer split for the service's pipeline requests: the service
    hides its worker contexts, so the pipeline matrices of the paced pool
    (at most four per size) are solved directly, each traced and then
    untraced on a warm per-size context."""
    per_size: dict[int, list[np.ndarray]] = defaultdict(list)
    for A, method in pool:
        if method == "proposed" and len(per_size[A.shape[0]]) < 4:
            per_size[A.shape[0]].append(A)
    pairs, model = [], {}
    for n in sizes:
        plan = plan_evd(n, method="proposed")
        model[str(n)] = predicted_stage_times(plan)
        ctx = ExecutionContext()
        for k, A in enumerate(per_size[n]):
            if k == 0:
                execute_plan(A, plan, ctx=ctx)  # warm the context
            label = f"direct n={n} matrix {k}"
            checker.attempted += 1
            try:
                res, traced_s = tracer.solve(A, plan, ctx, label)
                t0 = time.perf_counter()
                execute_plan(A, plan, ctx=ctx)
                pairs.append((time.perf_counter() - t0, traced_s))
            except Exception as exc:  # counted as a failed solve
                checker.error(label, exc)
                continue
            checker.check(A, res, checker.reference(A, True)[0], label)
    return overhead(pairs), model


# -- records ---------------------------------------------------------------
def base_record(w, args, checker: Checker, shape: dict) -> dict:
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        **shape,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures[:10],
        "escalations": checker.escalations,
        "samples": {"lapack_s": checker.lapack_s, "verify_s": checker.verify_s},
        "reference": {"lapack_s": median(checker.lapack_s)},
        "environment": environment(),
    }


def add_trace(record: dict, tracer: Tracer, args, extra: dict) -> None:
    record["per_layer_seconds"] = tracer.seconds()
    record["replay_bit_identical"] = (
        all(tracer.replay_identical) if tracer.replay_identical else None
    )
    record.update(extra)
    if args.trace_file:
        tracer.rec.write_chrome_trace(
            Path(args.trace_file),
            f"bench_evd {record['workload']} seed={record['seed']}",
            {
                "workload": record["workload"],
                "seed": record["seed"],
                "per_layer": record["metrics"],
                "per_layer_seconds": record["per_layer_seconds"],
                "model": record["model"],
            },
        )


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "repro": repro.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        log(f"repro was imported from {repro.__file__}, not from {SRC}")
        return 3
    w = WORKLOADS[args.workload]

    def ready() -> None:
        print("READY", flush=True)

    runner = run_serve if isinstance(w, ServeWorkload) else run_evd
    record = runner(w, args, ready)
    if record is not None:
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
