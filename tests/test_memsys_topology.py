"""Tests for the banked-array topology layer.

The parity matrix at the core: a seeded 1x1 banked run is
*byte-identical* to the flat engine across topology x scrub,
sharded runs are statistically equivalent and deterministic across
executors, and the hierarchical address map round-trips exactly
(hypothesis-driven). Also the regression home of the profile-merge fix:
``extras["profile"]`` survives :func:`repro.memsys.merge_results`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from memsys_reference import per_cell_reference

from repro.errors import ParameterError
from repro.memsys import (
    ArrayTopology,
    HierarchicalAddressMap,
    MemsysResult,
    ScrubPolicy,
    TOPOLOGIES,
    TopologyEngine,
    build_engine,
    merge_results,
    normalize_topology,
)


@pytest.fixture(scope="module")
def device():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    return MTJDevice(PAPER_EVAL_DEVICE)


#: Counter fields that must match bit-for-bit between equivalent runs.
COUNTERS = ("n_transactions", "n_reads", "n_writes", "n_scrubs",
            "bits_read", "bits_written", "write_errors",
            "disturb_flips", "retention_flips", "sneak_flips",
            "raw_bit_errors", "uncorrectable_bit_errors", "words_ok",
            "words_corrected", "words_detected", "words_silent",
            "scrub_corrected_words", "scrub_uncorrectable_words")


def counters(result):
    return {name: getattr(result, name) for name in COUNTERS}


class TestArrayTopology:
    def test_flat_default(self):
        topo = ArrayTopology()
        assert topo.kind == "flat"
        assert topo.n_shards == 1
        assert (topo.sub_rows, topo.sub_cols) == (64, 64)

    def test_shard_geometry(self):
        topo = ArrayTopology("banked", banks=4, subarrays=2,
                             rows=128, cols=64)
        assert topo.n_shards == 8
        assert (topo.sub_rows, topo.sub_cols) == (32, 32)
        assert topo.shard_index(3, 1) == 7
        assert topo.shard_coords(7) == (3, 1)

    def test_cross_point_dash_normalizes(self):
        topo = ArrayTopology("cross-point", banks=2, subarrays=2,
                             rows=64, cols=64)
        assert topo.kind == "cross_point"

    def test_normalize_topology_rejects_unknown(self):
        with pytest.raises(ParameterError):
            normalize_topology("toroidal")
        for kind in TOPOLOGIES:
            assert normalize_topology(kind) == kind

    def test_flat_cannot_shard(self):
        with pytest.raises(ParameterError):
            ArrayTopology("flat", banks=2)

    def test_non_divisible_rejected(self):
        with pytest.raises(ParameterError):
            ArrayTopology("banked", banks=3, rows=64, cols=64)
        with pytest.raises(ParameterError):
            ArrayTopology("banked", subarrays=5, rows=64, cols=64)

    def test_describe(self):
        topo = ArrayTopology("banked", banks=2, subarrays=4,
                             rows=64, cols=128)
        described = topo.describe()
        assert described["n_shards"] == 8
        assert described["sub_rows"] == 32
        assert described["sub_cols"] == 32


class TestHierarchicalAddressMap:
    def test_word_counts(self):
        topo = ArrayTopology("banked", banks=2, subarrays=2,
                             rows=48, cols=48)
        amap = topo.address_map(code_bits=72)
        assert amap.words_per_shard == (24 * 24) // 72
        assert amap.n_words == 4 * amap.words_per_shard

    def test_explicit_round_trip(self):
        topo = ArrayTopology("banked", banks=2, subarrays=3,
                             rows=36, cols=36)
        amap = HierarchicalAddressMap(topo, code_bits=12)
        bank, subarray, local = amap.decompose(0)
        assert (bank, subarray, local) == (0, 0, 0)
        last = amap.n_words - 1
        assert amap.compose(*amap.decompose(last)) == last
        assert amap.shard_of(last) == topo.n_shards - 1

    def test_vectorized_round_trip(self):
        topo = ArrayTopology("banked", banks=4, subarrays=2,
                             rows=64, cols=64)
        amap = topo.address_map(code_bits=72)
        words = np.arange(amap.n_words)
        bank, subarray, local = amap.decompose(words)
        np.testing.assert_array_equal(
            amap.compose(bank, subarray, local), words)

    def test_out_of_range_rejected(self):
        amap = ArrayTopology("banked", banks=2, rows=32,
                             cols=32).address_map(code_bits=8)
        with pytest.raises(ParameterError):
            amap.decompose(amap.n_words)
        with pytest.raises(ParameterError):
            amap.decompose(-1)
        with pytest.raises(ParameterError):
            amap.compose(2, 0, 0)

    def test_too_small_subarray_rejected(self):
        topo = ArrayTopology("banked", banks=8, subarrays=8,
                             rows=16, cols=16)
        with pytest.raises(ParameterError):
            topo.address_map(code_bits=72)

    def test_shard_cells_partition_small(self):
        topo = ArrayTopology("banked", banks=2, subarrays=2,
                             rows=4, cols=4)
        amap = topo.address_map(code_bits=4)
        np.testing.assert_array_equal(amap.shard_cells(0, 0),
                                      [0, 1, 4, 5])
        np.testing.assert_array_equal(amap.shard_cells(1, 1),
                                      [10, 11, 14, 15])


#: Small divisible geometries for the hypothesis properties.
_topologies = st.builds(
    ArrayTopology,
    st.sampled_from(["banked", "cross_point"]),
    banks=st.integers(min_value=1, max_value=4),
    subarrays=st.integers(min_value=1, max_value=4),
    rows=st.sampled_from([12, 24, 48]).map(lambda r: r),
    cols=st.sampled_from([12, 24, 48]),
).filter(lambda t: t.rows % t.banks == 0
         and t.cols % t.subarrays == 0)


class TestAddressMapProperties:
    @settings(max_examples=60, deadline=None)
    @given(_topologies, st.sampled_from([3, 8, 12]),
           st.data())
    def test_round_trip_exact(self, topo, code_bits, data):
        if topo.sub_rows * topo.sub_cols < code_bits:
            return
        amap = HierarchicalAddressMap(topo, code_bits)
        word = data.draw(st.integers(min_value=0,
                                     max_value=amap.n_words - 1))
        bank, subarray, local = amap.decompose(word)
        assert 0 <= bank < topo.banks
        assert 0 <= subarray < topo.subarrays
        assert 0 <= local < amap.words_per_shard
        assert amap.compose(bank, subarray, local) == word

    @settings(max_examples=40, deadline=None)
    @given(_topologies)
    def test_shards_partition_the_array(self, topo):
        amap = HierarchicalAddressMap(topo, code_bits=1)
        pieces = [amap.shard_cells(b, s)
                  for b in range(topo.banks)
                  for s in range(topo.subarrays)]
        union = np.concatenate(pieces)
        assert union.size == topo.rows * topo.cols
        np.testing.assert_array_equal(np.sort(union),
                                      np.arange(topo.rows * topo.cols))


class TestFlatBankedParity:
    """Seeded 1x1 banked runs are byte-identical to the flat engine."""

    @pytest.mark.parametrize("scrub_interval", [None, 2e-4])
    def test_monte_carlo_byte_identical(self, device, scrub_interval):
        def scrub():
            return (ScrubPolicy(scrub_interval)
                    if scrub_interval else None)
        kwargs = dict(pitch=70e-9, rows=16, cols=16,
                      workload="read-heavy")
        flat = build_engine(device, scrub=scrub(), **kwargs)
        banked = build_engine(device, scrub=scrub(), topology="banked",
                              banks=1, subarrays=1, **kwargs)
        assert isinstance(banked, TopologyEngine)
        assert counters(flat.run(3000, rng=7)) == counters(
            banked.run(3000, rng=7))

    def test_expected_rates_bit_identical(self, device):
        kwargs = dict(pitch=70e-9, rows=16, cols=16)
        flat = build_engine(device, **kwargs)
        banked = build_engine(device, topology="banked", banks=1,
                              subarrays=1, **kwargs)
        assert flat.expected_rates(rng=3) == banked.expected_rates(
            rng=3)

    def test_flat_topology_returns_flat_engine(self, device):
        from repro.memsys import ReliabilityEngine
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              topology="flat")
        assert isinstance(engine, ReliabilityEngine)


class TestShardedRuns:
    def test_statistical_equivalence_across_shard_counts(self, device):
        """Sharding redistributes the draws; the rates must agree."""
        rates = []
        for banks, subarrays in ((1, 1), (1, 2), (2, 2)):
            engine = build_engine(device, pitch=70e-9, rows=32,
                                  cols=32, topology="banked",
                                  banks=banks, subarrays=subarrays,
                                  workload="read-heavy")
            rates.append(engine.run(40_000, rng=5).raw_ber)
        base = rates[0]
        assert base > 0
        for other in rates[1:]:
            assert other == pytest.approx(base, rel=0.35)

    def test_expected_rates_equivalent_across_shard_counts(self,
                                                           device):
        rates = []
        for banks in (1, 2, 4):
            engine = build_engine(device, pitch=70e-9, rows=32,
                                  cols=32, topology="banked",
                                  banks=banks)
            rates.append(engine.expected_rates(rng=0))
        for other in rates[1:]:
            for key in rates[0]:
                assert other[key] == pytest.approx(rates[0][key],
                                                   rel=0.25)

    @pytest.mark.parametrize("executor", ["process"])
    def test_executors_byte_identical_to_serial(self, device,
                                                executor):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2)
        serial = engine.run(4000, rng=11, executor="serial")
        parallel = engine.run(4000, rng=11, executor=executor, jobs=2)
        assert counters(serial) == counters(parallel)

    @pytest.mark.parametrize("name", ["bogus", "chunked", "thread"])
    def test_unknown_executor_rejected_on_every_topology(self, device,
                                                         name):
        """A 1x1 engine (which never dispatches) validates the
        executor name exactly like a sharded one."""
        messages = []
        for shards in (1, 2):
            engine = build_engine(device, pitch=70e-9, rows=32,
                                  cols=32, topology="banked",
                                  banks=shards, subarrays=shards)
            with pytest.raises(ParameterError,
                               match="executor must be one of") as err:
                engine.run(100, rng=1, executor=name)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_transaction_shares(self, device):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2)
        assert engine.transaction_shares(10) == [3, 3, 2, 2]
        result = engine.run(3, rng=1)
        assert result.n_transactions == 3
        assert result.extras["topology"][
            "per_shard_transactions"] == [1, 1, 1]

    def test_progress_covers_the_run(self, device):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2)
        seen = []
        with_progress = engine.run(
            4000, rng=11, batch_size=512,
            progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (4000, 4000)
        assert all(total == 4000 for _, total in seen)
        assert counters(with_progress) == counters(
            engine.run(4000, rng=11, batch_size=512))

    def test_config_carries_topology(self, device):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2)
        result = engine.run(1000, rng=1)
        assert result.config["topology"] == "banked"
        assert result.config["rows"] == 32
        assert result.config["sub_rows"] == 16
        assert result.config["n_shards"] == 4

    def test_address_map_matches_engine_words(self, device):
        engine = build_engine(device, pitch=70e-9, rows=48, cols=48,
                              topology="banked", banks=2, subarrays=2)
        amap = engine.address_map()
        assert amap.words_per_shard == engine.controller.words.n_words
        assert amap.n_words == 4 * engine.controller.words.n_words


class TestCrossPoint:
    def test_sneak_flips_fire_under_read_stress(self, device):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="cross-point", banks=2,
                              subarrays=2, read_voltage=0.3)
        result = engine.run(20_000, rng=9)
        assert result.sneak_flips > 0
        assert result.config["topology"] == "cross_point"

    def test_banked_never_draws_sneak(self, device):
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2,
                              read_voltage=0.3)
        assert engine.run(20_000, rng=9).sneak_flips == 0
        assert engine.template.half_select_exposure == 0.0

    def test_samplers_statistically_agree_on_sneak(self, device):
        def sneak_flips():
            engine = build_engine(device, pitch=70e-9, rows=32,
                                  cols=32, topology="cross-point",
                                  banks=2, subarrays=2,
                                  read_voltage=0.3)
            return engine.run(20_000, rng=9).sneak_flips

        with per_cell_reference() as built:
            reference = sneak_flips()
        assert built.value == 1
        binomial = sneak_flips()
        assert reference > 0 and binomial > 0
        assert binomial == pytest.approx(reference, rel=0.8)

    def test_expected_rates_exceed_banked(self, device):
        kwargs = dict(pitch=70e-9, rows=32, cols=32, banks=2,
                      subarrays=2, read_voltage=0.3)
        cross = build_engine(device, topology="cross-point", **kwargs)
        banked = build_engine(device, topology="banked", **kwargs)
        assert cross.expected_rates(rng=0)["raw_ber"] > \
            banked.expected_rates(rng=0)["raw_ber"]

    def test_exposure_scales_inversely_with_shard_size(self):
        small = TopologyEngine.half_select_exposure(
            ArrayTopology("cross_point", banks=2, subarrays=2,
                          rows=32, cols=32))
        large = TopologyEngine.half_select_exposure(
            ArrayTopology("cross_point", banks=1, subarrays=1,
                          rows=32, cols=32))
        assert small == pytest.approx(2 / 16)
        assert large == pytest.approx(2 / 32)
        assert small > large


class TestMergeResults:
    def _result(self, **overrides):
        base = dict(config={"rows": 16}, n_transactions=10, n_reads=6,
                    n_writes=4, bits_read=432, raw_bit_errors=3,
                    simulated_time=1.5)
        base.update(overrides)
        return MemsysResult(**base)

    def test_counters_sum(self):
        merged = merge_results([self._result(),
                                self._result(n_transactions=20,
                                             raw_bit_errors=5)])
        assert merged.n_transactions == 30
        assert merged.raw_bit_errors == 8
        assert merged.bits_read == 864
        assert merged.raw_ber == pytest.approx(8 / 864)

    def test_simulated_time_is_max(self):
        merged = merge_results([self._result(simulated_time=1.5),
                                self._result(simulated_time=4.0)])
        assert merged.simulated_time == 4.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            merge_results([])
        with pytest.raises(ParameterError):
            merge_results([object()])

    def test_config_override(self):
        merged = merge_results([self._result()],
                               config={"rows": 32, "banks": 2})
        assert merged.config == {"rows": 32, "banks": 2}

    def test_profile_extras_preserved(self, device):
        """Regression: merging used to drop ``extras["profile"]``."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        parts = [engine.run(2000, rng=seed, profile=True)
                 for seed in (1, 2)]
        merged = merge_results(parts)
        profile = merged.extras["profile"]
        for phase in ("classify", "draw", "total"):
            assert profile[phase] == pytest.approx(
                sum(p.extras["profile"][phase] for p in parts))

    def test_partial_profile_not_fabricated(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        profiled = engine.run(1000, rng=1, profile=True)
        bare = engine.run(1000, rng=2)
        assert "profile" not in merge_results(
            [profiled, bare]).extras

    def test_topology_run_merges_profile(self, device):
        """Sharded profiled runs keep per-phase totals end to end."""
        engine = build_engine(device, pitch=70e-9, rows=32, cols=32,
                              topology="banked", banks=2, subarrays=2)
        result = engine.run(4000, rng=3, profile=True)
        profile = result.extras["profile"]
        assert profile["total"] > 0
        assert set(profile) >= {"classify", "draw", "place", "ecc"}
