"""Report formatting shared by the benchmark harness.

Every benchmark section carries an explicit ``[measured]`` /
``[simulated]`` provenance tag — the honesty contract of DESIGN.md §2.
"""

from __future__ import annotations

__all__ = [
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
