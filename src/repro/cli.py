"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``evd``          run a full symmetric EVD on a random matrix and verify it
                 (``--save`` writes the result + matrix to a ``.npz``,
                 ``--faults`` injects deterministic faults, ``--fallback
                 chain`` escalates failures down the fallback chain)
``verify``       re-verify a saved ``.npz`` EVD result against its source
                 matrix (residual + orthogonality, exit 1 on failure)
``plan``         resolve an EVD plan and print it (``--explain`` adds the
                 model-predicted per-stage time breakdown)
``tridiag``      run just the tridiagonalization (dbbr, sbr or direct)
``figure``       regenerate a paper figure's data from the calibrated model
``simulate-bc``  simulate the GPU bulge-chasing pipeline at any scale
``devices``      list the calibrated device presets

Examples
--------
::

    python -m repro evd --n 400 --method proposed
    python -m repro evd --n 400 --save result.npz && python -m repro verify result.npz
    python -m repro evd --n 200 --faults "dc.merge:convergence" --fallback chain
    python -m repro plan --n 4096 --method proposed --explain
    python -m repro tridiag --n 300 --method dbbr --bandwidth 8 --second-block 32
    python -m repro figure fig15
    python -m repro simulate-bc --n 65536 --bandwidth 32 --sweeps 128
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Improving Tridiagonalization Performance "
        "on GPU Architectures' (PPoPP 2025)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    evd = sub.add_parser("evd", help="full symmetric EVD on a random matrix")
    evd.add_argument("--n", type=int, default=300)
    evd.add_argument("--method", default="proposed",
                     choices=["proposed", "magma", "cusolver"])
    evd.add_argument("--no-vectors", action="store_true")
    evd.add_argument("--seed", type=int, default=0)
    evd.add_argument("--backend", default="numpy",
                     choices=["numpy", "cupy", "torch", "auto"],
                     help="array backend for the hot-path kernels")
    evd.add_argument("--precision", default="fp64", choices=["fp64", "mixed"],
                     help="working-precision policy: fp64 (bit-identical "
                          "default) or mixed (fp32 pipeline + fp64 iterative "
                          "refinement, escalating to fp64 if it stalls)")
    evd.add_argument("--fallback", default="none", choices=["none", "chain"],
                     help="'chain' escalates a failed or unverifiable solve "
                          "down the fallback chain (to the dense tier)")
    evd.add_argument("--save", metavar="PATH", default=None,
                     help="write the result and source matrix to a .npz "
                          "archive readable by 'repro verify'")
    evd.add_argument("--faults", metavar="SPECS", default=None,
                     help="inject deterministic faults: "
                          "'site:kind[:times[:probability[:seed]]][;...]' "
                          "(see repro.resilience; overrides REPRO_FAULTS); "
                          "exits 1 if no injected fault fired")

    ver = sub.add_parser(
        "verify",
        help="re-verify a saved .npz EVD result against its source matrix",
    )
    ver.add_argument("result", help=".npz archive written by 'repro evd --save' "
                                    "or repro.core.save_evd")
    ver.add_argument("--matrix", metavar="PATH", default=None,
                     help="source matrix (.npy/.npz with 'source_matrix' or "
                          "'A') when the archive does not embed one")
    ver.add_argument("--tol-residual", type=float, default=None,
                     help="relative residual tolerance (default: 200*n*eps)")
    ver.add_argument("--tol-orth", type=float, default=None,
                     help="orthogonality tolerance (default: 200*n*eps)")

    pl = sub.add_parser(
        "plan",
        help="resolve an EVD plan and print it (no matrix is solved)",
    )
    pl.add_argument("--n", type=int, default=1024)
    pl.add_argument("--method", default="proposed",
                    help="pipeline preset (proposed, magma, cusolver, dense)")
    pl.add_argument("--no-vectors", action="store_true")
    pl.add_argument("--backend", default="numpy",
                    choices=["numpy", "cupy", "torch", "auto"])
    pl.add_argument("--precision", default="fp64", choices=["fp64", "mixed"],
                    help="working-precision policy (see 'repro evd')")
    pl.add_argument("--bandwidth", type=int, default=None)
    pl.add_argument("--second-block", type=int, default=None)
    pl.add_argument("--max-sweeps", type=int, default=None)
    pl.add_argument("--device", default="h100",
                    help="device preset for --explain")
    pl.add_argument("--explain", action="store_true",
                    help="add the model-predicted per-stage time breakdown")
    pl.add_argument("--json", action="store_true",
                    help="emit the resolved plan as JSON (plan.to_dict())")

    tri = sub.add_parser("tridiag", help="tridiagonalization only")
    tri.add_argument("--n", type=int, default=300)
    tri.add_argument("--method", default="dbbr", choices=["dbbr", "sbr", "direct"])
    tri.add_argument("--bandwidth", type=int, default=None)
    tri.add_argument("--second-block", type=int, default=None)
    tri.add_argument("--serial", action="store_true",
                     help="one sweep in flight (max_sweeps=1, MAGMA's order)")
    tri.add_argument("--seed", type=int, default=0)
    tri.add_argument("--backend", default="numpy",
                     choices=["numpy", "cupy", "torch", "auto"],
                     help="array backend for the hot-path kernels")

    fig = sub.add_parser("figure", help="regenerate a paper figure's data")
    fig.add_argument("name", help="table1, fig4, fig5, fig8, fig9, fig11, "
                                  "fig12, fig14, fig15, fig16")
    fig.add_argument("--plot", action="store_true",
                     help="draw an ASCII chart instead of listing values")
    fig.add_argument("--log", action="store_true", help="log-scale y axis")

    bc = sub.add_parser("simulate-bc", help="simulate the BC pipeline")
    bc.add_argument("--n", type=int, default=65536)
    bc.add_argument("--bandwidth", type=int, default=32)
    bc.add_argument("--sweeps", type=int, default=None,
                    help="pipeline cap S (default: hardware limit)")
    bc.add_argument("--device", default="h100")
    bc.add_argument("--naive", action="store_true",
                    help="one thread block per sweep, no L2 packing")

    sub.add_parser("devices", help="list calibrated device presets")
    return p


def _cmd_evd(args) -> int:
    import repro
    from repro.resilience import clear_faults, install_faults, parse_fault_specs

    faults = install_faults(parse_fault_specs(args.faults)) if args.faults else None
    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    A = (A + A.T) / 2.0
    t0 = time.perf_counter()
    try:
        res = repro.eigh(A, method=args.method,
                         compute_vectors=not args.no_vectors,
                         backend=args.backend, fallback=args.fallback,
                         precision=args.precision)
    except repro.ReproError as exc:
        print(f"EVD failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if faults is not None:
            clear_faults()
    if faults is not None and not any(st["fired"] for st in faults.stats()):
        # A fault test whose site was never reached tests nothing.
        print(f"no injected fault fired ({args.faults}): the faulted "
              "site was not reached", file=sys.stderr)
        return 1
    dt = time.perf_counter() - t0
    tri_backend = res.tridiag.backend if res.tridiag is not None else args.backend
    print(f"EVD ({args.method}) of {args.n} x {args.n} "
          f"in {dt:.2f} s  [backend: {tri_backend}]")
    if res.refinement is not None:
        ref = res.refinement
        state = "escalated to fp64" if ref.escalated else (
            "converged" if ref.converged else "stalled")
        print(f"  precision {args.precision}: {ref.iterations} refinement "
              f"sweep(s), {state}")
    print(f"  eigenvalue range: [{res.eigenvalues[0]:.6g}, "
          f"{res.eigenvalues[-1]:.6g}]")
    err = np.max(np.abs(res.eigenvalues - np.linalg.eigvalsh(A)))
    print(f"  max eigenvalue error vs numpy: {err:.2e}")
    if res.eigenvectors is not None:
        print(f"  residual ||AV - VL||/||A||: {res.residual(A):.2e}")
        n = args.n
        orth = np.linalg.norm(res.eigenvectors.T @ res.eigenvectors - np.eye(n))
        print(f"  orthogonality: {orth:.2e}")
    if args.save:
        from repro.core import save_evd

        save_evd(args.save, res, A=A)
        print(f"wrote {args.save}")
    return 0


def _cmd_verify(args) -> int:
    from repro.core import load_evd
    from repro.resilience import verify_evd

    result, A = load_evd(args.result)
    if args.matrix is not None:
        loaded = np.load(args.matrix, allow_pickle=False)
        if isinstance(loaded, np.ndarray):
            A = loaded
        else:
            with loaded as z:
                for key in ("source_matrix", "A"):
                    if key in z:
                        A = z[key]
                        break
                else:
                    print(f"{args.matrix}: no 'source_matrix' or 'A' array",
                          file=sys.stderr)
                    return 2
    if A is None:
        print(f"{args.result} embeds no source matrix; pass --matrix",
              file=sys.stderr)
        return 2
    report = verify_evd(A, result, tol_residual=args.tol_residual,
                        tol_orth=args.tol_orth)
    print(f"verify {args.result}: n={report.n}  "
          f"{'OK' if report.ok else 'FAILED'}")
    if report.residual is not None:
        print(f"  residual ||AV - VL||/||A||: {report.residual:.3e} "
              f"(tol {report.tol_residual:.3e})")
    if report.orth_error is not None:
        print(f"  orthogonality ||V'V - I||:  {report.orth_error:.3e} "
              f"(tol {report.tol_orth:.3e})")
    if report.trace_error is not None:
        print(f"  trace error: {report.trace_error:.3e}")
    for name, ok in sorted(report.checks.items()):
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    return 0 if report.ok else 1


def _cmd_plan(args) -> int:
    from repro.plan import PlanError, explain_plan, plan_evd

    knobs = {}
    if args.bandwidth is not None:
        knobs["bandwidth"] = args.bandwidth
    if args.second_block is not None:
        knobs["second_block"] = args.second_block
    if args.max_sweeps is not None:
        knobs["max_sweeps"] = args.max_sweeps
    try:
        plan = plan_evd(
            args.n,
            args.method,
            compute_vectors=not args.no_vectors,
            backend=args.backend,
            precision=args.precision,
            **knobs,
        )
    except PlanError as exc:
        print(f"plan error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    if args.explain:
        print(explain_plan(plan, device=args.device))
    else:
        print(plan.describe())
    return 0


def _cmd_tridiag(args) -> int:
    import repro

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    A = (A + A.T) / 2.0
    t0 = time.perf_counter()
    res = repro.tridiagonalize(
        A,
        method=args.method,
        bandwidth=args.bandwidth,
        second_block=args.second_block,
        max_sweeps=1 if args.serial else None,
        backend=args.backend,
    )
    dt = time.perf_counter() - t0
    print(f"tridiagonalize ({args.method}) of {args.n} x {args.n} in {dt:.2f} s"
          f"  [backend: {res.backend}]")
    print(f"  intermediate bandwidth: {res.bandwidth}")
    if res.pipeline_stats is not None:
        s = res.pipeline_stats
        print(f"  BC pipeline: {s.total_tasks} tasks in {s.rounds} rounds "
              f"(mean parallel {s.mean_parallel:.1f})")
    from scipy.linalg import eigh_tridiagonal

    lam = eigh_tridiagonal(res.d, res.e, eigvals_only=True)
    err = np.max(np.abs(lam - np.linalg.eigvalsh(A)))
    print(f"  spectrum error vs numpy: {err:.2e}")
    return 0


def _cmd_figure(args) -> int:
    from repro.models.figures import make_figure

    data = make_figure(args.name)
    print(f"{data.figure}  ({data.xlabel} vs {data.ylabel})")
    if data.notes:
        print(f"  {data.notes}")
    if getattr(args, "plot", False):
        from repro.bench.plotting import line_chart

        chart = line_chart(
            [(s.name, s.points) for s in data.series],
            logy=getattr(args, "log", False),
            title="",
        )
        print(chart.text)
        return 0
    for s in data.series:
        print(f"\n  {s.name}:")
        for x, y in s.points:
            print(f"    {x:>12g}  {y:.4g}")
    return 0


def _cmd_simulate_bc(args) -> int:
    from repro.gpusim import (
        bc_task_bytes,
        bc_task_time_gpu,
        device_by_name,
        simulate_bc_pipeline,
    )
    from repro.gpusim.trace import utilization

    dev = device_by_name(args.device)
    dt, s_hw = bc_task_time_gpu(dev, args.n, args.bandwidth,
                                optimized=not args.naive)
    S = min(args.sweeps, s_hw) if args.sweeps else s_hw
    sim = simulate_bc_pipeline(args.n, args.bandwidth, S, dt,
                               bc_task_bytes(args.bandwidth))
    mode = "naive" if args.naive else "optimized"
    print(f"{mode} GPU bulge chasing on {dev.name}: n={args.n}, "
          f"b={args.bandwidth}, S={S}")
    print(f"  per-task time:   {dt * 1e6:8.2f} us")
    print(f"  total tasks:     {sim.total_tasks}")
    print(f"  makespan:        {sim.total_time_s:8.3f} s")
    print(f"  mean parallel:   {sim.mean_parallel_sweeps:8.1f} sweeps")
    print(f"  throughput:      {sim.throughput_gbs:8.0f} GB/s")
    print(f"  slot utilization {utilization(sim):8.1%}")
    return 0


def _cmd_devices(args) -> int:
    from repro.gpusim import CPU_8_CORE, H100, RTX4090

    for d in (H100, RTX4090):
        print(f"{d.name}: {d.sm_count} SMs, {d.fp64_tflops} TFLOPs FP64, "
              f"{d.mem_bw_gbs:.0f} GB/s, L2 {d.l2_mb:.0f} MB "
              f"(ridge {d.ridge_flops_per_byte:.1f} flops/byte)")
    c = CPU_8_CORE
    print(f"{c.name}: {c.threads} threads, LLC {c.llc_mb:.0f} MB")
    return 0


_COMMANDS = {
    "evd": _cmd_evd,
    "verify": _cmd_verify,
    "plan": _cmd_plan,
    "tridiag": _cmd_tridiag,
    "figure": _cmd_figure,
    "simulate-bc": _cmd_simulate_bc,
    "devices": _cmd_devices,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # REPRO_FAULTS in the environment arms the deterministic fault
    # harness for any command (an explicit `evd --faults` overrides it).
    from repro.resilience import faults_from_env, install_faults

    env_plan = faults_from_env()
    if env_plan is not None and getattr(args, "faults", None) is None:
        install_faults(env_plan)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `python -m repro figure fig15 | head`
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
