"""Unit tests for the benchmark reporting helpers."""

from __future__ import annotations

from repro.bench.reporting import banner, format_time


class TestFormatting:
    def test_banner_contains_provenance(self):
        text = banner("My figure", "simulated")
        assert "My figure" in text and "[simulated]" in text

    def test_format_time_units(self):
        assert "us" in format_time(5e-6)
        assert "ms" in format_time(5e-3)
        assert "s" in format_time(5.0)
