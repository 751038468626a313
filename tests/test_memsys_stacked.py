"""The stacked driver: every shard of a banked run in one lockstep loop.

A banked run in process advances all subarray shards at once over one
stacked state, yet every shard draws only from its own child generator
in the order a lone run does. The load-bearing claims pinned here:

* stacked serial == the process executor (which runs each shard alone),
  counter for counter, across topology kinds, scrub, shard
  counts, uneven shares and batch sizes;
* ``jobs=2`` alone on a banked run of few shards takes the stacked
  path and says so in ``extras["topology"]["executor"]``;
* resume is exact when shards stopped at different batch boundaries,
  and shard checkpoints written by one-shard runs (what process
  workers execute) resume under the stacked driver;
* the stacked class maps equal per-shard maps, incrementally too, at
  shard edges;
* a profiled banked run carries one stacked profile.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RunAborted
from repro.memsys import ScrubPolicy, build_engine
from repro.memsys.bitplane import BitPlane
from repro.memsys.controller import neighborhood_class_map
from repro.memsys.engine import PhaseProfiler, _occurrence_rank
from repro.memsys.sampling import (
    N_CLASSES,
    class_index,
    stacked_class_maps,
)
from repro.resilience import CheckpointManager


def _engine(device, kind="banked", banks=2, subarrays=2, rows=32,
            cols=32, scrub=2e-5, **kwargs):
    return build_engine(
        device, pitch=60e-9, rows=rows, cols=cols,
        workload=kwargs.pop("workload", "random"), nominal_wer=1e-3,
        read_voltage=0.3, backend="numpy", topology=kind, banks=banks,
        subarrays=subarrays,
        scrub=ScrubPolicy(scrub) if scrub else None, **kwargs)


def _counters(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.name not in ("config", "extras")}


class _KillAfter:
    """Progress callback that aborts after ``n`` calls."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def __call__(self, done, total):
        self.calls += 1
        if self.calls >= self.n:
            raise RunAborted("injected crash")


class TestStackedEqualsProcess:
    @pytest.mark.parametrize("kind", ["banked", "cross-point"])
    @pytest.mark.parametrize("banks,subarrays,rows,cols",
                             [(2, 2, 32, 32), (4, 4, 64, 64)])
    def test_stacked_serial_equals_process(self, eval_device, kind,
                                           banks, subarrays, rows, cols):
        # 4001 transactions never split evenly over 4 or 16 shards,
        # and batches of 300 divide none of the shares.
        engine = _engine(eval_device, kind=kind, banks=banks,
                         subarrays=subarrays, rows=rows, cols=cols,
                         scrub=5e-6)
        kwargs = dict(rng=21, batch_size=300)
        serial = engine.run(4001, executor="serial", **kwargs)
        process = engine.run(4001, executor="process", jobs=2, **kwargs)
        assert _counters(serial) == _counters(process)
        assert (serial.extras["topology"]["per_shard_transactions"]
                == process.extras["topology"]["per_shard_transactions"])
        assert serial.n_scrubs > 0 and serial.write_errors > 0

    @pytest.mark.parametrize("workload", ["hot-row", "sequential",
                                          "checkerboard"])
    def test_geometry_aware_workloads(self, eval_device, workload):
        engine = _engine(eval_device, workload=workload, scrub=None)
        serial = engine.run(2500, rng=4, batch_size=256,
                            executor="serial")
        process = engine.run(2500, rng=4, batch_size=256,
                             executor="process", jobs=2)
        assert _counters(serial) == _counters(process)

    def test_more_shards_than_transactions(self, eval_device):
        engine = _engine(eval_device, scrub=None)
        serial = engine.run(3, rng=1, executor="serial")
        process = engine.run(3, rng=1, executor="process", jobs=2)
        assert _counters(serial) == _counters(process)
        assert serial.extras["topology"][
            "per_shard_transactions"] == [1, 1, 1]


class TestReportedExecutor:
    def test_small_jobs_run_stacked_and_report_it(self, eval_device):
        # 4 shards <= the small-sweep threshold: --jobs 2 alone keeps
        # the run in process, on the stacked path.
        engine = _engine(eval_device)
        serial = engine.run(3000, rng=8, executor="serial")
        picked = engine.run(3000, rng=8, jobs=2)
        assert picked.extras["topology"]["executor"] == "serial"
        assert _counters(picked) == _counters(serial)

    def test_process_reports_process(self, eval_device):
        engine = _engine(eval_device, scrub=None)
        result = engine.run(1000, rng=8, executor="process", jobs=2)
        assert result.extras["topology"]["executor"] == "process"


class TestStackedResume:
    N, BATCH = 6000, 500   # 1500 per shard: 3 batches each

    def test_lanes_killed_at_different_boundaries(self, eval_device,
                                                  tmp_path):
        base = _engine(eval_device).run(self.N, rng=3,
                                        batch_size=self.BATCH)
        manager = CheckpointManager(str(tmp_path))
        # Progress runs once per shard per batch: the 6th call lands
        # after shards 0 and 1 saved their second boundary, while
        # shards 2 and 3 still hold their first.
        with pytest.raises(RunAborted):
            _engine(eval_device).run(
                self.N, rng=3, batch_size=self.BATCH,
                checkpoint=manager, progress=_KillAfter(6))
        done = [manager.load(f"shard-{shard}")["done"]
                for shard in range(4)]
        assert done == [1000, 1000, 500, 500]
        resumed = _engine(eval_device).run(
            self.N, rng=3, batch_size=self.BATCH, checkpoint=manager,
            resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_one_shard_checkpoints_resume_stacked(self, eval_device,
                                                  tmp_path):
        """Shard checkpoints written by one-shard runs — what every
        process-executor worker runs — resume under the stacked
        driver: one shard finished, two mid-stream at different
        boundaries, one never started."""
        engine = _engine(eval_device)
        base = engine.run(self.N, rng=5, batch_size=self.BATCH)
        manager = CheckpointManager(str(tmp_path))
        children = np.random.default_rng(5).spawn(4)
        shares = engine.transaction_shares(self.N)
        for shard, kill in ((0, None), (1, 1), (2, 2)):
            progress = None if kill is None else _KillAfter(kill)
            try:
                engine.template.run_shards(
                    [(shares[shard], children[shard], f"shard-{shard}")],
                    batch_size=self.BATCH, progress=progress,
                    checkpoint=manager)
            except RunAborted:
                pass
        assert manager.load("shard-0")["complete"]
        assert [manager.load(f"shard-{s}")["done"]
                for s in (1, 2)] == [500, 1000]
        resumed = _engine(eval_device).run(
            self.N, rng=5, batch_size=self.BATCH, checkpoint=manager,
            resume=True)
        assert dataclasses.asdict(resumed) == dataclasses.asdict(base)

    def test_process_checkpoints_resume_stacked(self, eval_device,
                                                tmp_path):
        manager = CheckpointManager(str(tmp_path))
        first = _engine(eval_device).run(
            self.N, rng=6, batch_size=self.BATCH, checkpoint=manager,
            executor="process", jobs=2)
        saves = manager.saves
        again = _engine(eval_device).run(
            self.N, rng=6, batch_size=self.BATCH, checkpoint=manager,
            resume=True, executor="serial")
        assert _counters(again) == _counters(first)
        assert manager.saves == saves   # every shard answered outright


def _shard_bits(data, n_shards, rows, cols):
    return (np.asarray(data.draw(st.lists(
        st.integers(0, 1), min_size=n_shards * rows * cols,
        max_size=n_shards * rows * cols)), dtype=np.int8)
        .reshape(n_shards, rows * cols))


class TestStackedClassMaps:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 7), st.integers(1, 7),
           st.integers(1, 9), st.data())
    def test_equal_per_shard_maps_and_incremental_edges(
            self, n_shards, rows, cols, code_bits, data):
        if rows * cols < code_bits:
            code_bits = rows * cols
        words = rows * cols // code_bits
        bits = _shard_bits(data, n_shards, rows, cols)
        stacked = BitPlane(n_shards * words, code_bits,
                           n_shards * rows * cols)
        shards = stacked.split(n_shards)
        for shard, plane in enumerate(shards):
            one = BitPlane.from_bits(bits[shard], words, code_bits)
            plane.lanes[:] = one.lanes
            plane.tail[:] = one.tail
        maps, class_idx = stacked_class_maps(rows, cols, shards)

        def check():
            for shard, plane in enumerate(shards):
                local = plane.to_bits()
                nd, ng = neighborhood_class_map(local.reshape(rows, cols))
                ci = class_index(local, nd.reshape(-1), ng.reshape(-1))
                cells = slice(shard * rows * cols,
                              (shard + 1) * rows * cols)
                assert np.array_equal(class_idx[cells], ci)
                assert np.array_equal(maps[shard].class_idx, ci)
                assert np.array_equal(
                    maps[shard].hist, np.bincount(ci, minlength=N_CLASSES))

        check()
        # Flip a few cells on every shard's edge rows and columns, then
        # refresh: incrementally (huge threshold) or by full rebuild.
        edge = np.array([r * cols + c for r in range(rows)
                         for c in range(cols)
                         if r in (0, rows - 1) or c in (0, cols - 1)])
        for shard, plane in enumerate(shards):
            picks = data.draw(st.lists(st.sampled_from(list(edge)),
                                       max_size=4, unique=True))
            plane.toggle_cells(np.array(picks, dtype=np.int64))
            maps[shard].full_rebuild_fraction = data.draw(
                st.sampled_from([0.0, 1.0]))
            maps[shard].refresh(plane)
        check()

    def test_stacked_neighborhood_never_crosses_shards(self):
        bits = np.ones((3, 4, 5), dtype=np.int8)
        nd, ng = neighborhood_class_map(bits)
        for shard in range(3):
            nd1, ng1 = neighborhood_class_map(bits[shard])
            assert np.array_equal(nd[shard], nd1)
            assert np.array_equal(ng[shard], ng1)


class TestOccurrenceRankKeys:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 70000), max_size=200))
    def test_uint16_radix_keys_match_int64(self, words):
        w = np.asarray(words, dtype=np.int64)
        wide = _occurrence_rank(w, n_words=1 << 40)
        assert np.array_equal(_occurrence_rank(w), wide)
        small = w % 65536
        assert np.array_equal(_occurrence_rank(small, n_words=65536),
                              _occurrence_rank(small, n_words=1 << 40))


class TestStackedProfile:
    def test_one_stacked_profile_within_wall_time(self, eval_device):
        engine = _engine(eval_device)
        t0 = time.perf_counter()
        result = engine.run(4000, rng=3, profile=True)
        wall = time.perf_counter() - t0
        profile = result.extras["profile"]
        assert set(PhaseProfiler.PHASES) <= set(profile)
        assert 0.0 < profile["total"] <= wall
        phases = sum(v for k, v in profile.items() if k != "total")
        assert phases == pytest.approx(profile["total"], rel=1e-6)
