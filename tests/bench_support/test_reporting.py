"""Unit tests for the benchmark reporting helpers."""

from __future__ import annotations

from repro.bench.reporting import Series, banner, format_time, print_series, print_table


class TestFormatting:
    def test_banner_contains_provenance(self):
        text = banner("My figure", "simulated")
        assert "My figure" in text and "[simulated]" in text

    def test_format_time_units(self):
        assert "us" in format_time(5e-6)
        assert "ms" in format_time(5e-3)
        assert "s" in format_time(5.0)

    def test_print_table_alignment(self):
        lines = []
        print_table(["a", "bb"], [["1", "2"], ["333", "4"]], out=lines.append)
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows same width


class TestSeries:
    def test_add_and_paper_refs(self):
        s = Series("model", paper={10.0: 1.5})
        s.add(10.0, 1.4)
        s.add(20.0, 2.8)
        lines = []
        print_series([s], xlabel="n", out=lines.append)
        joined = "\n".join(lines)
        assert "paper 1.5" in joined
        assert "2.8" in joined

    def test_missing_points_dashed(self):
        s1 = Series("a")
        s1.add(1.0, 10.0)
        s2 = Series("b")
        s2.add(2.0, 20.0)
        lines = []
        print_series([s1, s2], out=lines.append)
        assert any("-" in line for line in lines[2:])
