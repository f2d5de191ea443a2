"""One EVD benchmark: four workloads, a LAPACK reference line and a traced
per-stage split.

Run from the repository root::

    python3 benchmarks/evd/bench_evd.py                    # every workload
    python3 benchmarks/evd/bench_evd.py --workload evd_vec_n1024 --seed 3 --trace 0
    python3 benchmarks/evd/bench_evd.py --smoke            # n <= 256, a few seconds

With ``--workload`` the benchmark makes one run of one workload and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Without ``--workload`` it makes one run of every
workload, and with ``--trace 1`` one traced run of each as well, and
prints a table.  Only ``--out PATH`` writes anything: the artifact with
every run's raw samples at ``PATH``, and beside it, for each traced run,
``trace_<workload>.json`` in Chrome trace-event format.  ``--smoke``
writes nothing.

Each run executes in fresh worker processes (``evd_worker.py``) whose
BLAS threads are pinned so that compute threads never exceed ``nproc``.
``setup_s`` is the median over ``SETUP_REPEATS`` fresh processes of the
time from process start to the end of set-up (imports, ``plan_evd``, an
execution context and one cold solve; for the service, service start plus
one request).  This process imports no NumPy.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from evd_workloads import UNGATED, WORKLOADS, blas_threads, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKER = HERE / "evd_worker.py"

SETUP_REPEATS = 3
#: Wall-clock budget of one run (set-ups plus measurement).
RUN_BUDGET_S = 175.0
SMOKE_SECONDS = 2.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(RuntimeError):
    """A worker process failed, timed out or printed no record."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env(name: str) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(blas_threads(WORKLOADS[name]))
    for var in BLAS_ENV:
        env[var] = threads
    # The checkout's own sources, never an installed copy.
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from start to its ``READY``
    line, the JSON record it printed last or ``None``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready_s, last = None, None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "READY" and ready_s is None:
                ready_s = time.perf_counter() - t0
            elif line:
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready_s, json.loads(last) if last else None


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
             trace_file: Path | None = None) -> dict:
    """One run of one workload: extra set-up-only processes (untraced
    runs), then the measuring process."""
    deadline = time.monotonic() + RUN_BUDGET_S
    env = worker_env(name)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            ready_s, _ = run_worker(common + ["--role", "setup"], env, deadline)
            setups.append(ready_s)
    if trace_file is not None:
        common += ["--trace-file", str(trace_file)]
    ready_s, record = run_worker(common + ["--role", "measure"], env, deadline)
    if record is None:
        raise RunFailed(f"worker for {name} printed no record")
    setups.append(ready_s)
    record["samples"]["setup_s"] = setups
    record["blas_threads"] = int(env[BLAS_ENV[0]])
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(setups)
    return record


def result_line(record: dict, wanted: list[dict]) -> dict:
    """The result line of a single run: exactly the metrics in ``wanted``."""
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def print_run(record: dict, wanted: list[dict]) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{record['attempted']} attempted, {record['failed']} failed")
    for m in wanted:
        print(f"  {m['name']:<34} {record['metrics'][m['name']]:>14.6g} {m['unit']}")
    if not record["trace"]:
        for name, (unit, _) in UNGATED.items():
            print(f"  {name:<34} {record['metrics'][name]:>14.6g} {unit} (not gated)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


# -- the artifact ----------------------------------------------------------
def git_state() -> dict:
    def git(*cmd: str) -> str | None:
        try:
            out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src")
    return {"commit": commit or "unknown",
            "source_dirty": bool(status) if status is not None else None}


def host_environment() -> dict:
    env: dict = {"nproc": nproc(), "cpu_model": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}{'d' if level == '1' else ''}"] = size
    return env


def write_artifact(path: Path, bench: dict, args, runs: dict, traced: dict) -> None:
    names = [name for name in WORKLOADS if name in runs or name in traced]
    first = next(iter(traced.values()), None) or next(iter(runs.values()))[0]
    doc = {
        "schema": 1,
        "benchmark": "benchmarks/evd",
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git": git_state(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": False,
        "environment": {**host_environment(), **first["environment"]},
        "units": {
            **{m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
            **{name: unit for name, (unit, _) in UNGATED.items()},
        },
        "workloads": {
            name: {
                "why": WORKLOADS[name].why,
                "blas_threads": blas_threads(WORKLOADS[name]),
                "runs": runs.get(name, []),
                "traced": traced.get(name),
            }
            for name in names
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def summary_line(runs: dict, traced: dict, bench: dict) -> dict:
    """The last line of a run of every workload: its end-to-end metrics
    as ``<workload>.<metric>``."""
    every = [r for rs in runs.values() for r in rs] + list(traced.values())
    failed = sum(r["failed"] for r in every)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in every),
        "failed": failed,
        "metrics": {
            f"{name}.{m['name']}": {"value": rs[0]["metrics"][m["name"]], "unit": m["unit"]}
            for name, rs in runs.items()
            for m in bench["end_to_end"]
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="make one run of this workload and print its result line "
                         "(default: one run of every workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="make the traced run (without --workload: as well)")
    ap.add_argument("--smoke", action="store_true",
                    help="n <= 256 and a few seconds per run")
    ap.add_argument("--out", type=Path,
                    help="write the artifact here and the traced runs' Chrome traces beside it")
    args = ap.parse_args(argv)
    if args.smoke and args.out:
        ap.error("smoke runs write no artifact")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_evd: no repro sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    try:
        if args.workload is None or not args.trace:
            for name in names:
                runs[name] = [run_once(name, args.seed, args.seconds, False, args.smoke)]
                print_run(runs[name][0], bench["end_to_end"])
        if args.trace:
            for name in names:
                trace_file = args.out.parent / f"trace_{name}.json" if args.out else None
                traced[name] = run_once(name, args.seed, args.seconds, True, args.smoke,
                                        trace_file)
                print_run(traced[name], bench["per_layer"])
    except RunFailed as exc:
        print(f"bench_evd: {exc}", file=sys.stderr)
        return 1
    if args.out:
        write_artifact(args.out, bench, args, runs, traced)
        print(f"artifact: {args.out}")
    if args.workload is None:
        line = summary_line(runs, traced, bench)
        print(json.dumps(line))
        return 0 if line["correct"] else 1
    record, wanted = (
        (traced[args.workload], bench["per_layer"]) if args.trace
        else (runs[args.workload][0], bench["end_to_end"])
    )
    print(json.dumps(result_line(record, wanted)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
