"""Benchmark-harness support: workload generators and the table/series
printers every benchmark uses to show paper-vs-reproduced values with
explicit measured/simulated provenance."""

from .plotting import AsciiChart, bar_chart, line_chart
from .reporting import (
    Series,
    banner,
    format_time,
    print_series,
    print_table,
)
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
    "Series",
    "banner",
    "bar_chart",
    "clustered_spectrum",
    "format_time",
    "geometric_spectrum",
    "goe",
    "laplacian_1d",
    "line_chart",
    "print_series",
    "print_table",
    "random_band",
    "symmetric_with_spectrum",
    "uniform_spectrum",
    "wilkinson_tridiagonal",
]
