"""Smoke tests of the EVD benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest benchmarks/evd/test_bench_evd.py -q

Every workload runs at smoke size (n <= 256, two seconds).  The tests
check that every metric named in ``BENCHMARK.json`` is printed with its
unit, that no solve fails, that the traced replay of the back transform
is bit-identical to ``execute_plan``, and that a run without ``--out``
writes nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_evd
from compare import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: ``None`` where there is nothing to match bit for bit: no eigenvectors
#: (novec), or eigenvectors refined after the back transform (mixed).
REPLAY_MATCHES = {
    "evd_vec_n1024": True,
    "evd_novec_n2048": None,
    "evd_mixed_clustered_n1024": None,
    "serve_stream": True,
}


def bench_files():
    return {p: p.stat().st_mtime_ns for p in HERE.rglob("*") if "__pycache__" not in p.parts}


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_evd.py"), "--workload", workload,
         "--seed", "0", "--smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert_metrics(result, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_replays_bit_identically(workload, tmp_path):
    trace_file = tmp_path / "trace.json"
    record = bench_evd.run_once(workload, 0, 2.0, True, True, trace_file)
    assert_metrics(bench_evd.result_line(record, BENCH["per_layer"]), BENCH["per_layer"])
    assert record["replay_bit_identical"] is REPLAY_MATCHES[workload]

    events = json.loads(trace_file.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    solve = next(e for e in spans if e["name"] == "execute_plan")
    inner = [e for e in spans if e["name"] == "band_reduction" and e["tid"] == solve["tid"]]
    assert any(solve["ts"] <= e["ts"] and e["ts"] + e["dur"] <= solve["ts"] + solve["dur"]
               for e in inner)


def test_smoke_set_runs_every_workload_and_writes_nothing():
    before = bench_files()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_evd.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {
        f"{w}.{m['name']}" for w in WORKLOADS for m in BENCH["end_to_end"]
    }
    for m in BENCH["end_to_end"]:
        assert all(result["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"] for w in WORKLOADS)
    assert result["failed"] == 0 and result["correct"]
    assert bench_files() == before


def test_fails_without_the_program(tmp_path):
    """Alone with its own files the benchmark must fail without a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "evd",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/evd/bench_evd.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([1.0, 1.01, 0.99, 1.0], [1.0, 0.99, 1.01, 1.0], "lower", "unchanged"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "regressed"),
        ([1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5], "lower", "improved"),
        ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "higher", "improved"),
        ([1.0, 2.0, 0.5, 1.5], [1.0, 1.2, 0.9, 1.1], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert verdict(a, b, better, 0.1) == expected


def test_compare_gain_does_not_count_with_more_failures():
    a, b = [1.0, 1.01, 0.99, 1.0], [0.5, 0.51, 0.49, 0.5]
    assert verdict(a, b, "lower", 0.1, more_failures=True) == "unchanged"
    assert verdict(b, a, "lower", 0.1, more_failures=True) == "regressed"
