"""Tests for the console table rendering."""

from repro.experiments.reporting import format_percentage, format_table


class TestRendering:
    def test_format_percentage(self):
        assert format_percentage(0.427).strip() == "42.7%"

    def test_table_alignment_and_title(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 2 + 1 + 2  # title + header + separator + 2 rows
