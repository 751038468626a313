"""Benchmark-suite configuration.

Every figure bench regenerates one paper figure end to end inside the
benchmark timer, asserts the reproduction criteria, and prints the headline
series (visible with ``pytest -s``).
"""

from __future__ import annotations

import os
import sys

import pytest

# The engine benches time the per-cell Monte-Carlo reference that lives
# with the tier-1 tests (``tests/memsys_reference.py``).
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))


def pytest_collection_modifyitems(items):
    """Tag benchmark items with the ``bench`` marker.

    The tier-1 suite (`python -m pytest`) collects ``tests/`` only (see
    ``pyproject.toml``); the marker lets `-m bench` select or deselect
    the benchmark suite when both paths are given explicitly. The hook
    receives the whole session's items, so guard on the path — marking
    everything would deselect the tier-1 suite under `-m "not bench"`.
    """
    bench_dir = os.path.dirname(__file__)
    for item in items:
        if str(item.path).startswith(bench_dir + os.sep):
            item.add_marker(pytest.mark.bench)


@pytest.fixture(autouse=True)
def isolated_kernel_store(monkeypatch):
    """Give every bench a cold, memory-only process-wide kernel store.

    The store is process-wide by design, so without this reset a bench
    that runs after another would time warm lookups (and read polluted
    hit/miss stats) instead of the cold-start behavior it claims to
    measure. Disk backing is stripped too: an operator's
    ``REPRO_KERNEL_CACHE`` must not turn a cold-path bench into a disk
    read. Benches that want a warm store warm it themselves.
    """
    from repro.arrays.kernel_store import get_kernel_store
    monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
    store = get_kernel_store()
    store.detach_disk()
    store.clear()
    yield store
    store.clear()


def print_result(result, max_rows=8):
    """Print an experiment's headline table and comparisons."""
    from repro.experiments import render
    print()
    print(render(result, max_rows=max_rows, plot=False))


@pytest.fixture
def figure_bench(benchmark):
    """Run a figure generator under the benchmark timer (few rounds).

    Returns the ExperimentResult of the last round after asserting that
    every paper-vs-measured criterion passed.
    """

    def run(generator, rounds=3, **kwargs):
        result = benchmark.pedantic(
            lambda: generator(**kwargs), rounds=rounds, iterations=1)
        assert result.all_passed, [
            c.metric for c in result.comparisons if not c.passed]
        print_result(result)
        return result

    return run
