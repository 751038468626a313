"""One-shot markdown reproduction report.

Generates a self-contained markdown document from the experiment results:
per-figure data tables, paper-vs-measured comparisons, and a summary
scoreboard — the artifact a reviewer reads without running anything.
"""

from __future__ import annotations

import io

from .runner import run_all


def _markdown_table(headers, rows, float_format=".4g"):
    """Render a markdown table."""
    def fmt(cell):
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return format(cell, float_format)
        return str(cell)

    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


def build_report(results=None, include_extensions=True, max_rows=10):
    """Build the markdown report text.

    Parameters
    ----------
    results:
        ``{experiment_id: ExperimentResult}``; runs everything when
        omitted.
    include_extensions:
        Include the extension experiments when running fresh.
    max_rows:
        Data rows shown per experiment.

    Returns
    -------
    str — the markdown document.
    """
    if results is None:
        results = run_all(include_extensions=include_extensions)

    out = io.StringIO()
    out.write("# Reproduction report\n\n")
    out.write("Wu et al., *Impact of Magnetic Coupling and Density on "
              "STT-MRAM Performance* (DATE 2020) — generated by "
              "`repro.experiments.report`.\n\n")

    n_passed = sum(1 for r in results.values() if r.all_passed)
    out.write("## Scoreboard\n\n")
    score_rows = [
        (r.experiment_id, r.title,
         "pass" if r.all_passed else "DEVIATES",
         f"{sum(c.passed for c in r.comparisons)}/{len(r.comparisons)}")
        for r in results.values()
    ]
    out.write(_markdown_table(
        ["experiment", "title", "status", "criteria"], score_rows))
    out.write(f"\n\n**{n_passed}/{len(results)} experiments satisfied "
              "all reproduction criteria.**\n\n")

    for result in results.values():
        out.write(f"## {result.experiment_id} — {result.title}\n\n")
        rows = result.rows[:max_rows]
        out.write(_markdown_table(result.headers, rows))
        if len(result.rows) > max_rows:
            out.write(f"\n\n*({len(result.rows) - max_rows} more rows "
                      "omitted)*")
        out.write("\n\n")
        if result.comparisons:
            headers, comp_rows = result.comparison_table()
            out.write("**Paper vs measured:**\n\n")
            out.write(_markdown_table(headers, comp_rows))
            out.write("\n\n")
    return out.getvalue()
