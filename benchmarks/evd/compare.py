"""Compare two EVD benchmark artifacts: parent ``A`` against change ``B``.

Usage, from the repository root::

    python3 benchmarks/evd/compare.py A.json B.json
    python3 benchmarks/evd/compare.py parent_runs/ change_runs/

A directory stands for every artifact in it, merged in file-name order.
One row per workload and end-to-end metric gives each side's median and
quartiles over its runs and a verdict, with the bounds of
``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread (as a share of its
  median) exceeds the bound, and not every run of B beats every run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least nine tenths of the pairs (runs paired in
  order, ties count for neither) and the medians differ by more than A's
  own quartile spread, or every run of B beats every run of A;
* ``unchanged`` — otherwise.

A gain does not count when more solves or requests fail in B than in A:
such a workload's ``improved`` rows read ``unchanged``, and its failure
row reads ``regressed``.  Each workload also gets ungated rows for the
raw solve time, the 90th-percentile latency and the throughput every run
records, judged against the widest bound.

Below the table, the traced runs' per-layer seconds are diffed to show
where a saving landed, and a move of LAPACK's time on the same matrices
by more than 10% is flagged as machine drift: the two artifacts were
then not measured under the same conditions.  Exits 1 when any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from evd_workloads import UNGATED

ROOT = Path(__file__).resolve().parents[2]
#: LAPACK on the same matrices moving more than this means the machine moved.
DRIFT = 0.10
#: The rows of the metrics ``BENCHMARK.json`` does not gate use the widest
#: allowed bound.
UNGATED_BAND = 0.25


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float,
            more_failures: bool = False) -> str:
    v = _verdict(a, b, better, bound)
    return "unchanged" if more_failures and v == "improved" else v


def _verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    def beats(y: float, x: float) -> bool:
        return y < x if better == "lower" else y > x

    qa, qb = quartiles(a), quartiles(b)
    ma, mb = statistics.median(a), statistics.median(b)
    spread = max((qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb)
    all_better = all(beats(y, x) for x in a for y in b)
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(beats(y, x) for x, y in pairs)
    if all_better or (wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]):
        return "improved"
    return "unchanged"


def metric_runs(doc: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric] for run in doc["workloads"][workload]["runs"]]


def lapack_median(doc: dict, workload: str) -> float:
    return statistics.median(
        run["reference"]["lapack_s"] for run in doc["workloads"][workload]["runs"]
    )


def failed(doc: dict, workload: str) -> int:
    return sum(run["failed"] for run in doc["workloads"][workload]["runs"])


def compare(a: dict, b: dict, bench: dict, out=print) -> int:
    regressed = 0
    common = [w for w in a["workloads"]
              if w in b["workloads"] and a["workloads"][w]["runs"] and b["workloads"][w]["runs"]]
    out(f"A: {a['git']['commit'][:12]} ({a['created_utc']})   "
        f"B: {b['git']['commit'][:12]} ({b['created_utc']})")
    header = (f"{'workload':<27} {'metric':<15} {'A median':>11} {'A q1..q3':>23} "
              f"{'B median':>11} {'B q1..q3':>23} {'B/A':>7}  verdict")
    out(header)
    out("-" * len(header))
    for w in common:
        fa, fb = failed(a, w), failed(b, w)
        rows = [(m["name"], m["better"], m["bound"], "") for m in bench["end_to_end"]]
        rows += [(name, better, UNGATED_BAND, " (not gated)")
                 for name, (_, better) in UNGATED.items()]
        for name, better, bound, note in rows:
            va, vb = metric_runs(a, w, name), metric_runs(b, w, name)
            qa, qb = quartiles(va), quartiles(vb)
            v = verdict(va, vb, better, bound, more_failures=fb > fa)
            regressed += v == "regressed" and not note
            out(f"{w:<27} {name:<15} {qa[1]:>11.5g} {qa[0]:>11.5g}..{qa[2]:<10.5g} "
                f"{qb[1]:>11.5g} {qb[0]:>11.5g}..{qb[2]:<10.5g} "
                f"{statistics.median(vb) / statistics.median(va):>7.3f}  {v}{note}")
        if fa or fb:
            regressed += fb > fa
            out(f"{w:<27} failed solves: A {fa}, B {fb}"
                f"{'  regressed' if fb > fa else ''}")

    for w in common:
        ta, tb = a["workloads"][w].get("traced"), b["workloads"][w].get("traced")
        if not ta or not tb:
            continue
        sa, sb = ta["per_layer_seconds"], tb["per_layer_seconds"]
        rows = sorted(
            (name for name in sa if name in sb),
            key=lambda name: -abs(sb[name] - sa[name]),
        )
        out(f"\n{w}: per-layer seconds per solve (traced runs), largest move first")
        for name in rows:
            delta = sb[name] - sa[name]
            pct = f"{delta / sa[name]:+8.1%}" if sa[name] else "        "
            out(f"  {name:<22} A {sa[name]:>10.4f}  B {sb[name]:>10.4f}  "
                f"delta {delta:>+9.4f} s {pct}")

    for w in common:
        la, lb = lapack_median(a, w), lapack_median(b, w)
        if abs(lb / la - 1.0) > DRIFT:
            out(f"\nDRIFT {w}: LAPACK on the same matrices took {la:.4g} s in A and "
                f"{lb:.4g} s in B ({lb / la - 1.0:+.1%}); the machine changed "
                "between the two artifacts")
    return 1 if regressed else 0


def load(path: Path) -> dict:
    """One artifact, or a directory of artifacts merged in file-name order
    (the Chrome traces beside them are skipped): their runs are
    concatenated, so the i-th runs of two such directories form the i-th
    pair, and the first traced run of each workload is kept."""
    if not path.is_dir():
        return json.loads(path.read_text())
    docs = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))
            if not p.name.startswith("trace_")]
    merged = docs[0]
    for doc in docs[1:]:
        for name, entry in doc["workloads"].items():
            into = merged["workloads"].setdefault(name, {**entry, "runs": [], "traced": None})
            into["runs"] += entry["runs"]
            into["traced"] = into["traced"] or entry["traced"]
    return merged


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="parent artifact, or a directory of them")
    ap.add_argument("b", type=Path, help="change artifact, or a directory of them")
    args = ap.parse_args(argv)
    docs = [load(p) for p in (args.a, args.b)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(*docs, bench)


if __name__ == "__main__":
    sys.exit(main())
