"""Run and render all figure reproductions.

``run_all()`` executes every experiment and returns the results keyed by
figure id — serially by default, or fanned out over a process pool with
``jobs`` (each figure is one sweep point of the :mod:`repro.sweep`
engine). ``render(result)`` pretty-prints one result (data table,
paper-vs-measured table, ASCII plot); the module is runnable::

    python -m repro.experiments.runner [output_dir] [--jobs N]

which prints everything and, if an output directory is given, exports every
series and table to CSV/JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..reporting import ascii_plot, format_table, write_csv, write_json
from . import (
    ext_neighborhood,
    ext_random_data,
    ext_temperature,
    ext_wer,
    fig2a,
    fig2b,
    fig3c,
    fig3d,
    fig4a,
    fig4b,
    fig4c,
    fig5,
    fig6a,
    fig6b,
)

#: The experiment modules in paper order.
EXPERIMENTS = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig3c": fig3c,
    "fig3d": fig3d,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
}

#: Extension experiments beyond the paper's figures.
EXTENSIONS = {
    "ext_neighborhood": ext_neighborhood,
    "ext_random_data": ext_random_data,
    "ext_temperature": ext_temperature,
    "ext_wer": ext_wer,
}


def _run_experiment(name):
    """Run one experiment by registry name (picklable sweep point).

    Kernel persistence needs no handling here: pool workers flush
    their stores at pool shutdown and ``SweepRunner.run`` flushes for
    in-process executors.
    """
    modules = {**EXPERIMENTS, **EXTENSIONS}
    return modules[name].run()


def run_all(include_extensions=False, jobs=None, executor=None):
    """Run every experiment; returns ``{figure_id: ExperimentResult}``.

    With ``include_extensions=True`` the extension experiments (beyond
    the paper's figures) are appended. ``jobs`` > 1 (or an explicit
    ``executor``) runs the figures in parallel worker processes; the
    returned dict is keyed and ordered identically either way. With
    the on-disk kernel cache enabled (see
    :mod:`repro.arrays.kernel_disk`), every figure's kernels are
    persisted, so repeat reproductions — CI in particular — start
    warm.
    """
    from ..sweep import SweepRunner, SweepSpec, executor_for_jobs
    modules = dict(EXPERIMENTS)
    if include_extensions:
        modules.update(EXTENSIONS)
    names = list(modules)
    spec = SweepSpec.zipped(name=names)
    # No n_points hint here: keeping small grids serial suits cheap
    # field-bound points, but a figure is a whole experiment pipeline
    # — worker processes stay the right default for --jobs > 1.
    executor = executor or executor_for_jobs(jobs)
    result = SweepRunner(_run_experiment, executor=executor,
                         jobs=jobs).run(spec)
    return dict(zip(names, result.values))


def render(result, max_rows=12, plot=True):
    """Render one :class:`ExperimentResult` to a string."""
    lines = []
    lines.append("=" * 72)
    lines.append(f"{result.experiment_id}: {result.title}")
    lines.append("=" * 72)
    rows = result.rows[:max_rows]
    lines.append(format_table(result.headers, rows))
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    if result.comparisons:
        lines.append("")
        lines.append("paper vs measured:")
        headers, comp_rows = result.comparison_table()
        lines.append(format_table(headers, comp_rows))
    if plot and result.series:
        lines.append("")
        try:
            lines.append(ascii_plot(result.series, title=result.title))
        except Exception as exc:  # pragma: no cover - rendering fallback
            lines.append(f"(plot unavailable: {exc})")
    lines.append("")
    return "\n".join(lines)


def export(result, output_dir):
    """Export a result's table and comparisons to ``output_dir``."""
    base = os.path.join(output_dir, result.experiment_id)
    write_csv(base + ".csv", result.headers, result.rows)
    headers, rows = result.comparison_table()
    write_csv(base + "_comparison.csv", headers, rows)
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "series": {name: {"x": x, "y": y}
                   for name, (x, y) in result.series.items()},
        "all_passed": result.all_passed,
    }
    write_json(base + "_series.json", payload)


def main(argv=None):
    """CLI entry point: run, print, optionally export everything."""
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(prog="repro.experiments.runner")
    parser.add_argument("output_dir", nargs="?", default=None,
                        help="directory for CSV/JSON exports")
    from ..sweep import add_sweep_arguments
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)
    output_dir = args.output_dir
    results = run_all(include_extensions=True, jobs=args.jobs,
                      executor=args.executor)
    n_passed = 0
    for result in results.values():
        print(render(result))
        if result.all_passed:
            n_passed += 1
        if output_dir:
            export(result, output_dir)
    print(f"{n_passed}/{len(results)} experiments satisfied all "
          "reproduction criteria")
    return 0 if n_passed == len(results) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
