"""Benchmark-harness support: workload generators, ASCII charts and the
banner every benchmark section uses to tag its numbers as measured or
simulated."""

from .plotting import AsciiChart, bar_chart, line_chart
from .reporting import banner, format_time
from .workloads import (
    clustered_spectrum,
    geometric_spectrum,
    goe,
    laplacian_1d,
    random_band,
    symmetric_with_spectrum,
    uniform_spectrum,
    wilkinson_tridiagonal,
)

__all__ = [
    "AsciiChart",
    "banner",
    "bar_chart",
    "clustered_spectrum",
    "format_time",
    "geometric_spectrum",
    "goe",
    "laplacian_1d",
    "line_chart",
    "random_band",
    "symmetric_with_spectrum",
    "uniform_spectrum",
    "wilkinson_tridiagonal",
]
