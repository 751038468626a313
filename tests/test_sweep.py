"""Tests for the generic sweep engine (spec, runner, result).

The determinism tests are the acceptance criterion of the subsystem:
parallel and serial executors must produce identical results for the
same spec and seeds, including for the seeded memsys sweep and the
figure runner.
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np
import pytest

from repro.errors import ParameterError, RunAborted
from repro.sweep import (
    EXECUTORS,
    SWEEP_EXECUTOR_ENV,
    SweepResult,
    SweepRunner,
    SweepSpec,
    executor_for_jobs,
    run_sweep,
)
from repro.validation import require_positive


class TestSweepSpec:
    def test_product_order_first_axis_slowest(self):
        spec = SweepSpec.product(a=(1, 2), b=(10, 20, 30))
        assert len(spec) == 6
        assert spec.shape == (2, 3)
        assert spec.point(0) == {"a": 1, "b": 10}
        assert spec.point(3) == {"a": 2, "b": 10}

    def test_zipped_pairs_elementwise(self):
        spec = SweepSpec.zipped(x=(1, 2, 3), label=("a", "b", "c"))
        assert len(spec) == 3
        assert spec.shape == (3,)
        assert spec.point(1) == {"x": 2, "label": "b"}

    def test_zipped_rejects_unequal_lengths(self):
        with pytest.raises(ParameterError):
            SweepSpec.zipped(x=(1, 2), y=(1,))

    def test_compose_product(self):
        grid = SweepSpec.product(a=(1, 2)) * SweepSpec.zipped(
            b=(3, 4), c=("p", "q"))
        assert len(grid) == 4
        assert grid.shape == (2, 2)
        assert grid.point(1) == {"a": 1, "b": 4, "c": "q"}
        assert grid.names == ("a", "b", "c")

    def test_compose_rejects_shared_axes(self):
        with pytest.raises(ParameterError):
            SweepSpec.product(a=(1,)) * SweepSpec.product(a=(2,))

    def test_empty_axis_rejected(self):
        with pytest.raises(ParameterError):
            SweepSpec.product(a=())
        with pytest.raises(ParameterError):
            SweepSpec.product()

    def test_points_are_copies(self):
        spec = SweepSpec.product(a=(1,))
        spec.points()[0]["a"] = 99
        assert spec.point(0) == {"a": 1}


class TestSweepResult:
    def test_values_array_reshapes_to_grid(self):
        spec = SweepSpec.product(a=(1, 2, 3), b=(10, 20))
        result = run_sweep(require_positive_product, spec)
        grid = result.values_array()
        assert grid.shape == (3, 2)
        assert grid[2, 1] == 60

    def test_tuple_values_get_trailing_axis(self):
        spec = SweepSpec.product(a=(1.0, 2.0))
        result = SweepResult(spec=spec, values=[(1.0, 2.0), (3.0, 4.0)])
        assert result.values_array(dtype=float).shape == (2, 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            SweepResult(spec=SweepSpec.product(a=(1, 2)), values=[1])


def require_positive_product(a, b):
    """Module-level picklable point function: a * b."""
    require_positive(a, "a")
    require_positive(b, "b")
    return a * b


def slow_marked_point(i, directory):
    """Module-level picklable point function: sleep, then leave one
    file per evaluated point in ``directory``."""
    time.sleep(0.2)
    open(os.path.join(directory, str(i)), "w").close()
    return i


#: ``executor_for_jobs(jobs, n_points)`` under each value of the
#: executor override, without and with a spool: rows are jobs
#: None/1/2, columns n_points (work units) None/32/33/63/64. The
#: override wins at every ``jobs`` value; an invalid one is ignored by
#: serial-sized runs and raises with ``jobs > 1``. With a spool, grids
#: of >= 64 units go distributed at any ``jobs``.
_S, _P, _D, _E = "serial", "process", "distributed", ParameterError
_EXECUTOR_PICKS = {
    (None, False): [(_S,) * 5, (_S,) * 5, (_P, _S, _P, _P, _P)],
    (None, True): [(_S, _S, _S, _S, _D), (_S, _S, _S, _S, _D),
                   (_P, _S, _P, _P, _D)],
    ("process", False): [(_P,) * 5] * 3,
    ("process", True): [(_P,) * 5] * 3,
    ("serial", True): [(_S,) * 5] * 3,
    ("thread", False): [(_S,) * 5, (_S,) * 5, (_E,) * 5],
    ("bogus", True): [(_S, _S, _S, _S, _D), (_S, _S, _S, _S, _D),
                      (_E,) * 5],
}


class TestSweepRunner:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ParameterError):
            SweepRunner(require_positive_product, executor="threads")
        # Retired names: process runs on the same chunk schedule, and
        # serial is the one in-process path.
        assert EXECUTORS == ("serial", "process", "distributed")
        for name in ("chunked", "thread"):
            with pytest.raises(ParameterError) as err:
                SweepRunner(require_positive_product, executor=name)
            for valid in EXECUTORS:
                assert valid in str(err.value)

    @pytest.mark.parametrize("chunk_size", (None, 5))
    def test_pool_progress_once_per_chunk(self, chunk_size):
        """The process pool reports once per schedule_chunks chunk,
        in points, ending at (total, total); an explicit chunk_size
        is a uniform split."""
        from repro.sweep import schedule_chunks
        spec = SweepSpec.product(a=tuple(range(1, 38)), b=(1,))
        calls = []
        result = run_sweep(require_positive_product, spec,
                           executor="process", jobs=2,
                           chunk_size=chunk_size,
                           progress=lambda d, t: calls.append((d, t)))
        assert result.values == list(range(1, 38))
        bounds = schedule_chunks(37, 2, chunk_size=chunk_size)
        assert len(calls) == len(bounds)
        dones = [done for done, _ in calls]
        assert all(b > a for a, b in zip(dones, dones[1:]))
        assert calls[-1] == (37, 37)
        assert {total for _, total in calls} == {37}
        steps = sorted(np.diff([0] + dones).tolist())
        assert steps == sorted(stop - start for start, stop in bounds)
        if chunk_size == 5:
            assert steps == [2] + [5] * 7

    def test_rejects_non_callable(self):
        with pytest.raises(ParameterError):
            SweepRunner(42)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_all_executors_agree(self, executor):
        spec = SweepSpec.product(a=(1, 2, 3, 4, 5), b=(2, 3))
        result = run_sweep(require_positive_product, spec,
                           executor=executor, jobs=2, chunk_size=3)
        assert result.values == [a * b for a in (1, 2, 3, 4, 5)
                                 for b in (2, 3)]
        assert result.executor == executor

    @pytest.mark.parametrize("env,spool", list(_EXECUTOR_PICKS))
    def test_executor_for_jobs_table(self, monkeypatch, tmp_path, env,
                                     spool):
        from repro.sweep import (DISTRIBUTED_MIN_UNITS, SMALL_SWEEP_UNITS,
                                 SWEEP_SPOOL_ENV)
        assert (SMALL_SWEEP_UNITS, DISTRIBUTED_MIN_UNITS) == (32, 64)
        if env is None:
            monkeypatch.delenv(SWEEP_EXECUTOR_ENV, raising=False)
        else:
            monkeypatch.setenv(SWEEP_EXECUTOR_ENV, env)
        if spool:
            monkeypatch.setenv(SWEEP_SPOOL_ENV, str(tmp_path))
        else:
            monkeypatch.delenv(SWEEP_SPOOL_ENV, raising=False)
        for jobs, row in zip((None, 1, 2), _EXECUTOR_PICKS[env, spool]):
            for n_points, want in zip((None, 32, 33, 63, 64), row):
                if want is ParameterError:
                    with pytest.raises(ParameterError,
                                       match=SWEEP_EXECUTOR_ENV):
                        executor_for_jobs(jobs, n_points=n_points)
                else:
                    assert executor_for_jobs(
                        jobs, n_points=n_points) == want, (jobs,
                                                           n_points)

    @pytest.mark.parametrize("n_points,side,want", [
        (18, 64, "serial"), (18, 128, "serial"), (18, 256, "serial"),
        (18, 512, "process"), (18, 1024, "process"),
        (2, 1024, "serial")])
    def test_size_rule_weighs_array_points_by_cells(
            self, monkeypatch, n_points, side, want):
        """An array point counts ``max(1, cells // 65536)`` units:
        18-point grids pool from 512² up, and two 1024² points (32
        units) stay serial. ``jobs`` None or 1 is serial at any
        size."""
        from repro.sweep import SWEEP_SPOOL_ENV, array_work_units
        monkeypatch.delenv(SWEEP_EXECUTOR_ENV, raising=False)
        monkeypatch.delenv(SWEEP_SPOOL_ENV, raising=False)
        units = array_work_units(n_points, side, side)
        assert units == n_points * max(1, side * side // 65536)
        assert executor_for_jobs(2, n_points=units) == want
        for jobs in (None, 1):
            assert executor_for_jobs(jobs, n_points=units) == "serial"

    def test_executor_for_jobs_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            executor_for_jobs(0)
        with pytest.raises(ParameterError):
            executor_for_jobs(4, n_points=-1)

    def test_aborted_pool_sweep_cancels_queued_chunks(self, tmp_path):
        """RunAborted from ``progress`` propagates, and the chunks
        still queued never start: only those in flight finish."""
        def abort(done, total):
            raise RunAborted("abandoned")

        spec = SweepSpec.product(i=tuple(range(20)))
        with pytest.raises(RunAborted):
            run_sweep(partial(slow_marked_point,
                              directory=str(tmp_path)),
                      spec, executor="process", jobs=2, chunk_size=1,
                      progress=abort)
        assert 1 <= len(os.listdir(tmp_path)) < 20

    def test_worker_error_propagates(self):
        spec = SweepSpec.product(a=(1, -1), b=(2,))
        with pytest.raises(ParameterError):
            run_sweep(require_positive_product, spec)
        with pytest.raises(ParameterError):
            run_sweep(require_positive_product, spec,
                      executor="process", jobs=2)


@pytest.mark.integration
class TestSeededSweepDeterminism:
    """Acceptance: serial == process == distributed for
    every seeded consumer sweep."""

    def test_memsys_uber_sweep_all_executors_equal(self):
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import uber_sweep
        device = MTJDevice(PAPER_EVAL_DEVICE)
        kwargs = dict(pitch_ratios=(3.0, 1.5), patterns=("solid0",),
                      rows=16, cols=16, seed=3)
        serial = uber_sweep(device, **kwargs)
        for executor in ("process", "distributed"):
            result = uber_sweep(device, executor=executor, jobs=2,
                                **kwargs)
            assert result.rows == serial.rows, executor
            assert result.extras["uber"] == serial.extras["uber"], \
                executor

    def test_distributed_dispatch_retries_spool_oserror(
            self, monkeypatch):
        """A library distributed sweep whose first dispatch raises
        ``OSError`` retries and returns the serial table."""
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import uber_sweep
        from repro.sweep import distributed
        device = MTJDevice(PAPER_EVAL_DEVICE)
        kwargs = dict(pitch_ratios=(3.0, 1.5), patterns=("solid0",),
                      rows=16, cols=16, seed=3)
        serial = uber_sweep(device, **kwargs)
        real = distributed.run_distributed
        calls = []

        def flaky(*args, **kw):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("spool vanished mid-dispatch")
            return real(*args, **kw)

        monkeypatch.setattr(distributed, "run_distributed", flaky)
        result = uber_sweep(device, executor="distributed", jobs=2,
                            **kwargs)
        assert len(calls) == 2
        assert result.rows == serial.rows
        assert result.extras["sweep"]["executor"] == "distributed"

    def test_design_space_all_executors_equal(self):
        from repro.apps import DesignSpaceExplorer
        from repro.device import PAPER_EVAL_DEVICE
        explorer = DesignSpaceExplorer(PAPER_EVAL_DEVICE)
        serial = explorer.sweep([30e-9, 35e-9], [2.0, 3.0])
        for executor in ("process", "distributed"):
            result = explorer.sweep([30e-9, 35e-9], [2.0, 3.0], jobs=2,
                                    executor=executor)
            # DesignPoint is a frozen dataclass: == is exact equality.
            assert result == serial, executor

    def test_disk_backed_store_matches_fresh_compute(self, tmp_path):
        """Parity: a sweep over disk-cached kernels is bit-identical
        to one that computes every kernel fresh."""
        from repro.arrays.kernel_disk import DiskKernelCache
        from repro.arrays.kernel_store import KernelStore
        from repro.stack import build_reference_stack
        stack = build_reference_stack(45e-9)
        offsets = [(d * 67.5e-9, 0.0) for d in (1, 2)] + [
            (67.5e-9, 67.5e-9), (0.0, 135e-9)]

        disk = DiskKernelCache(tmp_path / "kc")
        warm = KernelStore(disk=disk)
        fresh_values = {}
        for kind in ("fixed", "fl"):
            for off in offsets:
                fresh_values[(kind, off)] = warm.kernel(stack, off,
                                                        kind)
        warm.flush_disk()

        cold = KernelStore(disk=disk)
        for (kind, off), expected in fresh_values.items():
            assert cold.kernel(stack, off, kind) == expected
        stats = cold.stats()
        assert stats["misses"] == 0
        assert stats["disk_hits"] == len(fresh_values)

    def test_run_all_parallel_equals_serial(self, monkeypatch):
        # Shrink the registry to two real figures to keep this fast;
        # workers resolve the names against the full registry, so the
        # patched subset only narrows what the parent schedules.
        from repro.experiments import runner
        subset = {k: runner.EXPERIMENTS[k] for k in ("fig4a", "fig4b")}
        monkeypatch.setattr(runner, "EXPERIMENTS", subset)
        serial = runner.run_all()
        parallel = runner.run_all(jobs=2)
        assert list(serial) == list(parallel) == ["fig4a", "fig4b"]
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.rows == b.rows
            assert a.comparisons == b.comparisons
            assert set(a.series) == set(b.series)
            for key in a.series:
                np.testing.assert_array_equal(a.series[key][1],
                                              b.series[key][1])
