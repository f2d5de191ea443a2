"""Regenerate every paper table/figure and write REPORT.md.

A standalone (no pytest) reproduction driver: runs each figure generator
from ``repro.models.figures``, formats the series next to the paper's
published anchors where available, appends the calibration-sensitivity
verdicts, and writes everything to ``REPORT.md`` at the repo root.

    python scripts/reproduce_all.py [output.md]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from repro.models.figures import figure_registry
from repro.models.sensitivity import conclusions_hold, headline_metrics
from repro.models.syr2k_model import PAPER_TABLE1


def render_figure(name: str, gen) -> list[str]:
    t0 = time.perf_counter()
    data = gen()
    dt = time.perf_counter() - t0
    lines = [f"## {data.figure}", ""]
    if data.notes:
        lines.append(f"*{data.notes}*  ")
    lines.append(f"*(generated in {dt:.1f} s, simulated device scale)*")
    lines.append("")
    xs = sorted({x for s in data.series for x, _ in s.points})
    header = f"| {data.xlabel} | " + " | ".join(s.name for s in data.series) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(data.series) + 1))
    for x in xs:
        row = [f"{x:g}"]
        for s in data.series:
            match = [y for px, y in s.points if px == x]
            row.append(f"{match[0]:.4g}" if match else "—")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return lines


def render_headlines() -> list[str]:
    m = headline_metrics()
    lines = [
        "## Headline reproduction (H100 model, n = 49152)",
        "",
        "| Quantity | Paper | Reproduced |",
        "|---|---|---|",
        f"| Proposed tridiagonalization rate | 19.6 TFLOPs | {m.tridiag_tflops:.1f} TFLOPs |",
        f"| Speedup vs cuSOLVER | up to 9.3x | {m.speedup_vs_cusolver:.1f}x |",
        f"| Speedup vs MAGMA | up to 5.2x | {m.speedup_vs_magma:.1f}x |",
        f"| Optimized GPU BC vs MAGMA | 12.5x | {m.bc_speedup_optimized:.1f}x |",
        f"| EVD (eigenvalues) vs cuSOLVER | up to 6.1x | {m.evd_novec_speedup:.1f}x |",
        f"| EVD (vectors) vs cuSOLVER | slight edge | {m.evd_vec_speedup:.1f}x |",
        "",
    ]
    return lines


def render_sensitivity() -> list[str]:
    verdicts = conclusions_hold(factor=0.75)
    lines = [
        "## Calibration robustness (every fitted constant perturbed ±25%)",
        "",
        "| Ordinal claim | survives |",
        "|---|---|",
    ]
    for claim, ok in sorted(verdicts.items()):
        lines.append(f"| {claim.replace('_', ' ')} | {'yes' if ok else 'NO'} |")
    lines.append("")
    return lines


def main(out_path: str = "REPORT.md") -> None:
    lines = [
        "# Reproduction report",
        "",
        "Auto-generated by `scripts/reproduce_all.py`.  All numbers below",
        "are **simulated** at device scale by the calibrated model",
        "(see docs/simulator.md); the numerics behind them are verified",
        "separately by the test suite.  Paper anchors: see EXPERIMENTS.md.",
        "",
    ]
    lines += render_headlines()
    for name, gen in figure_registry().items():
        print(f"generating {name} ...")
        lines += render_figure(name, gen)
    lines += render_sensitivity()
    n_cells = sum(len(v) for v in PAPER_TABLE1.values())
    lines.append(f"*Table 1 calibration: {n_cells} published cells, "
                 "all within 35% (test-enforced).*")
    Path(out_path).write_text("\n".join(lines) + "\n")
    print(f"wrote {out_path} ({len(lines)} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "REPORT.md")
