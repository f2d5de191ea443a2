"""Wavefront-batched vs sequential bulge chasing.

Both engines chase the same bulges with the same task kernel geometry;
the scalar oracle (:func:`repro.core.bulge_chasing.bulge_chase`, the
reference the tests compare against; no preset runs it) issues one tiny
NumPy call per bulge on a dense copy, the wavefront engine
(:mod:`repro.core.bc_wavefront`, which every preset runs — ``magma`` and
``plasma`` with one sweep in flight) one stacked operation per pipeline
round on band storage.  ``[measured]`` wall time only — this is a pure
software-architecture comparison, no simulator involved.
Acceptance gate: >= 3x at n = 1024, b = 16.

Run directly (CI smoke mode finishes in a few seconds):

    PYTHONPATH=src python benchmarks/bench_wavefront_bc.py [--smoke]

Writes ``benchmarks/out/BENCH_wavefront_bc.json`` (full mode only, or
with ``--json`` forced) so the headline number is a checked-in artifact.
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from repro.backend import get_backend
from repro.backend.context import ExecutionContext
from repro.band.ops import random_symmetric_band
from repro.band.storage import LowerBandStorage
from repro.bench.reporting import banner, print_table, write_json_artifact
from repro.bench.timing import measure
from repro.core.bc_wavefront import bulge_chase_wavefront
from repro.core.bulge_chasing import bulge_chase

OUT_DIR = pathlib.Path(__file__).parent / "out"

FULL_CASES = [(256, 8), (512, 16), (1024, 16)]
SMOKE_CASES = [(128, 4), (192, 8)]
HEADLINE = (1024, 16)  # the >= 3x acceptance case


def run_case(n: int, b: int, reps: int, backend: str = "numpy") -> dict:
    """Time both engines on one band matrix and cross-check numerics."""
    A = random_symmetric_band(n, b, np.random.default_rng(1234 + n))
    lb = LowerBandStorage.from_dense(A, b)
    ctx = ExecutionContext(backend=get_backend(backend))

    t_wf = measure(lambda: bulge_chase_wavefront(lb, ctx=ctx), reps=reps)
    t_sq = measure(lambda: bulge_chase(A, b), reps=reps)

    wf, stats = bulge_chase_wavefront(lb, ctx=ctx)
    sq = bulge_chase(A, b)
    scale = max(np.max(np.abs(sq.d)), 1.0)
    dev = max(np.max(np.abs(wf.d - sq.d)), np.max(np.abs(wf.e - sq.e))) / scale

    return {
        "n": n,
        "b": b,
        "sequential_best_s": t_sq.best,
        "sequential_mean_s": t_sq.mean,
        "wavefront_best_s": t_wf.best,
        "wavefront_mean_s": t_wf.mean,
        "speedup_best": t_sq.best / t_wf.best,
        "speedup_mean": t_sq.mean / t_wf.mean,
        "max_rel_deviation": float(dev),
        "rounds": stats.rounds,
        "max_parallel": stats.max_parallel,
        "total_tasks": stats.total_tasks,
    }


def run(
    smoke: bool = False,
    reps: int = 3,
    write_json: bool | None = None,
    backend: str = "numpy",
) -> dict:
    cases = SMOKE_CASES if smoke else FULL_CASES
    backend_name = get_backend(backend).name
    print(banner(
        f"Wavefront-batched vs sequential bulge chasing [backend: {backend_name}]",
        "measured",
    ))
    rows = [run_case(n, b, reps, backend=backend_name) for n, b in cases]

    print_table(
        ["n", "b", "sequential best", "wavefront best", "speedup", "max rel dev"],
        [
            [
                r["n"],
                r["b"],
                f"{r['sequential_best_s'] * 1e3:9.1f} ms",
                f"{r['wavefront_best_s'] * 1e3:9.1f} ms",
                f"{r['speedup_best']:5.2f}x",
                f"{r['max_rel_deviation']:.2e}",
            ]
            for r in rows
        ],
    )

    headline = next(
        (r for r in rows if (r["n"], r["b"]) == HEADLINE), rows[-1]
    )
    payload = {
        "provenance": "measured",
        "reps": reps,
        "smoke": smoke,
        "backend": backend_name,
        "headline": {
            "n": headline["n"],
            "b": headline["b"],
            "speedup_best": headline["speedup_best"],
            "target_speedup": 3.0 if not smoke else None,
        },
        "cases": rows,
    }
    if write_json if write_json is not None else not smoke:
        path = write_json_artifact(OUT_DIR, "wavefront_bc", payload, backend=backend_name)
        print(f"\nartifact: {path}")
    print(
        f"\nheadline: n={headline['n']}, b={headline['b']}: "
        f"{headline['speedup_best']:.2f}x (best-of-{reps})"
    )
    return payload


def test_wavefront_speedup_smoke(report):
    """Benchmark-suite entry: even at smoke scale the batched engine must
    beat the sequential chase while agreeing numerically."""
    r = run_case(*SMOKE_CASES[-1], reps=2)
    report(
        f"n={r['n']} b={r['b']}: {r['speedup_best']:.2f}x, "
        f"max rel dev {r['max_rel_deviation']:.2e}"
    )
    assert r["speedup_best"] > 1.0
    assert r["max_rel_deviation"] < 1e-10


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="small cases only, no JSON artifact (CI gate)",
    )
    ap.add_argument("--reps", type=int, default=3, help="timed repetitions")
    ap.add_argument(
        "--json",
        action="store_true",
        help="write the JSON artifact even in smoke mode",
    )
    ap.add_argument(
        "--backend",
        default="numpy",
        choices=["numpy", "cupy", "torch", "auto"],
        help="array backend for the wavefront engine",
    )
    args = ap.parse_args(argv)
    run(smoke=args.smoke, reps=args.reps, write_json=args.json or None,
        backend=args.backend)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
