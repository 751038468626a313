"""Tests for the markdown reproduction report generator."""

from __future__ import annotations

import pytest

from repro.experiments.base import Comparison, ExperimentResult
from repro.experiments.report import build_report


def make_results():
    result = ExperimentResult(
        experiment_id="figY",
        title="synthetic experiment",
        headers=["x", "y"],
        rows=[(i, float(i) * 2) for i in range(15)],
        comparisons=[
            Comparison("anchor", 1.0, 1.01, True, "close"),
            Comparison("shape", None, 1.0, True, ""),
        ],
    )
    return {"figY": result}


class TestBuildReport:
    def test_structure(self):
        text = build_report(results=make_results())
        assert text.startswith("# Reproduction report")
        assert "## Scoreboard" in text
        assert "## figY — synthetic experiment" in text
        assert "Paper vs measured" in text

    def test_scoreboard_counts(self):
        text = build_report(results=make_results())
        assert "**1/1 experiments satisfied all reproduction "
        assert "1/1 experiments" in text
        assert "| figY |" in text

    def test_row_truncation(self):
        text = build_report(results=make_results(), max_rows=5)
        assert "10 more rows omitted" in text

    def test_failed_criteria_marked(self):
        results = make_results()
        results["figY"].comparisons.append(
            Comparison("broken", 2.0, 9.0, False, ""))
        text = build_report(results=results)
        assert "DEVIATES" in text
        assert "0/1 experiments" in text

    def test_markdown_tables_well_formed(self):
        text = build_report(results=make_results())
        table_lines = [line for line in text.splitlines()
                       if line.startswith("|")]
        assert table_lines
        for line in table_lines:
            assert line.endswith("|")
