"""Table/series printers shared by the benchmark harness.

Every benchmark prints the paper's reported values next to the reproduced
ones, with an explicit ``[measured]`` / ``[simulated]`` provenance tag —
the honesty contract of DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Series",
    "print_table",
    "print_series",
    "banner",
    "format_time",
]


def banner(title: str, provenance: str) -> str:
    """Header line for a benchmark section.

    ``provenance`` is ``"measured"`` (real NumPy wall time at laptop
    scale) or ``"simulated"`` (device-scale performance model).
    """
    line = "=" * 78
    return f"{line}\n{title}   [{provenance}]\n{line}"


def format_time(seconds: float) -> str:
    """Human-scaled time: us / ms / s."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:8.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:8.2f} ms"
    return f"{seconds:8.2f} s "


@dataclass
class Series:
    """One plotted line: (x, y) pairs plus an optional paper reference."""

    name: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)
    paper: dict[float, float] = field(default_factory=dict)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)


def print_table(
    headers: list[str], rows: list[list[str]], title: str = "", out=print
) -> None:
    """Fixed-width table printer."""
    widths = [
        max(len(str(headers[c])), *(len(str(r[c])) for r in rows)) if rows else len(str(headers[c]))
        for c in range(len(headers))
    ]
    if title:
        out(title)
    out("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    out("  ".join("-" * w for w in widths))
    for r in rows:
        out("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


def print_series(series: list[Series], xlabel: str = "x", out=print) -> None:
    """Print aligned multi-series data with paper references inline."""
    xs = sorted({x for s in series for x in s.xs})
    headers = [xlabel] + [s.name for s in series]
    rows = []
    for x in xs:
        row = [f"{x:g}"]
        for s in series:
            if x in s.xs:
                y = s.ys[s.xs.index(x)]
                ref = s.paper.get(x)
                row.append(f"{y:.3g}" + (f" (paper {ref:.3g})" if ref is not None else ""))
            else:
                row.append("-")
        rows.append(row)
    print_table(headers, rows, out=out)
