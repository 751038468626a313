"""Engine-backend registry, kernel properties, and cross-backend parity.

The numba backend's kernels are plain Python functions wrapped by
``@njit`` only when numba imports, so this module exercises the exact
compiled logic on machines without numba: every kernel must reproduce
the vectorized numpy reference bit-for-bit, and seeded engine runs
must produce *identical* counters under either backend (the kernels
preserve draw-stream order by construction).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.memsys import backends as backends_mod
from repro.memsys.backends import (
    BACKENDS,
    ENGINE_BACKEND_ENV,
    get_backend,
    numba_available,
    resolve_backend,
    validate_backend,
)
from repro.memsys.backends.numba_backend import NumbaEngineBackend
from repro.memsys.backends.numpy_backend import NumpyEngineBackend
from repro.memsys.bitplane import BitPlane, popcount_rows
from repro.memsys.controller import neighborhood_class_map
from repro.memsys.engine import build_engine
from repro.memsys.sampling import (
    IncrementalClassMaps,
    N_CLASSES,
    class_index,
    sample_class_flips,
)


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Reset the registry's warn-once memory for this test."""
    monkeypatch.setattr(backends_mod, "_warned", set())


@pytest.fixture
def numba_py():
    """A numba backend instance running its kernels in python mode
    (or compiled, when numba happens to be installed)."""
    return NumbaEngineBackend()


class TestRegistry:
    def test_known_backends(self):
        assert BACKENDS == ("numpy", "numba")
        for name in BACKENDS:
            assert validate_backend(name) == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="unknown engine"):
            validate_backend("fortran")
        with pytest.raises(ParameterError):
            resolve_backend("fortran")

    def test_instances_are_singletons(self):
        assert get_backend("numpy") is get_backend("numpy")
        assert get_backend("numba") is get_backend("numba")

    def test_numpy_backend_is_identity(self):
        backend = NumpyEngineBackend()
        assert backend.ready()
        assert backend.unavailable_reason() is None
        assert backend.preferred_rebuild_fraction is None
        plane = BitPlane.from_bits(np.zeros(16, np.int8), 2, 8)
        assert backend.xor_popcount_rows(plane.lanes,
                                         plane.lanes) is None
        assert backend.rebuild_class_maps(None, plane) is None
        assert backend.apply_class_changes(None, None, None,
                                           None) is None
        assert backend.group_class_members(None, None) is None
        assert backend.toggle_and_count(None, None, None, None) is None
        assert backend.inject_and_count(None, None, None) is None

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(ENGINE_BACKEND_ENV, raising=False)
        assert resolve_backend().name == "numpy"
        assert resolve_backend(None).name == "numpy"

    def test_instance_passes_through(self, numba_py):
        assert resolve_backend(numba_py) is numba_py

    def test_env_selects_backend(self, monkeypatch, fresh_warnings):
        monkeypatch.setenv(ENGINE_BACKEND_ENV, "numba")
        if numba_available():
            assert resolve_backend().name == "numba"
        else:
            with pytest.warns(RuntimeWarning, match=r"\[fast\]"):
                assert resolve_backend().name == "numpy"

    def test_explicit_overrides_env(self, monkeypatch, fresh_warnings):
        monkeypatch.setenv(ENGINE_BACKEND_ENV, "numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numpy").name == "numpy"

    def test_invalid_env_ignored_with_one_warning(
            self, monkeypatch, fresh_warnings):
        monkeypatch.setenv(ENGINE_BACKEND_ENV, "cuda")
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            assert resolve_backend().name == "numpy"
        # Warn-once: the second resolve is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend().name == "numpy"

    def test_numba_fallback_warns_once(self, fresh_warnings):
        if numba_available():
            pytest.skip("numba installed: no fallback on this machine")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend("numba").name == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("numba").name == "numpy"

    def test_engine_resolves_env_backend(self, monkeypatch,
                                         fresh_warnings, eval_device):
        monkeypatch.setenv(ENGINE_BACKEND_ENV, "nonsense")
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            engine = build_engine(eval_device, pitch=70e-9, rows=16,
                                  cols=16)
        assert engine.backend.name == "numpy"
        assert engine._config()["backend"] == "numpy"


class TestSelfCheck:
    def test_self_check_passes_in_python_mode(self, numba_py):
        numba_py.self_check()

    def test_ready_reports_reason_without_numba(self, numba_py):
        if numba_available():
            assert numba_py.ready()
            assert numba_py.unavailable_reason() is None
        else:
            assert not numba_py.ready()
            assert "numba" in numba_py.unavailable_reason()


def _random_plane(rng, n_words, code_bits, n_cells):
    bits = rng.integers(0, 2, size=n_cells).astype(np.int8)
    return BitPlane.from_bits(bits, n_words, code_bits), bits


class TestKernelProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 12),
           st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_xor_popcount_matches_reference(self, seed, n, lanes):
        rng = np.random.default_rng(seed)
        backend = NumbaEngineBackend()
        a = rng.integers(0, 2**63, size=(n, lanes)).astype("<u8")
        b = a.copy()
        flip = rng.random(size=a.shape) < 0.5
        b[flip] ^= rng.integers(1, 2**63,
                                size=int(flip.sum())).astype("<u8")
        got = backend.xor_popcount_rows(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, popcount_rows(a ^ b))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_rebuild_matches_neighborhood_class_map(self, seed, rows,
                                                    cols):
        rng = np.random.default_rng(seed)
        backend = NumbaEngineBackend()
        plane, bits = _random_plane(rng, rows * cols // 5, 5,
                                    rows * cols)
        maps = IncrementalClassMaps(rows, cols, plane, backend=backend)
        nd_ref, ng_ref = neighborhood_class_map(
            bits.reshape(rows, cols))
        assert np.array_equal(maps.nd, nd_ref.reshape(-1))
        assert np.array_equal(maps.ng, ng_ref.reshape(-1))
        ci = maps.class_idx
        assert np.array_equal(
            ci, class_index(bits, nd_ref.reshape(-1),
                            ng_ref.reshape(-1)))
        hist = maps.hist
        assert np.array_equal(
            hist, np.bincount(ci, minlength=N_CLASSES))
        assert int(hist.sum()) == rows * cols

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10),
           st.integers(2, 10), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_incremental_update_matches_full_rebuild(
            self, seed, rows, cols, n_toggle):
        """Toggling cells and refreshing incrementally must land on
        exactly the maps a from-scratch rebuild produces."""
        rng = np.random.default_rng(seed)
        backend = NumbaEngineBackend()
        n_cells = rows * cols
        plane, _ = _random_plane(rng, n_cells // 8, 8, n_cells)
        # Force the incremental path regardless of the churn fraction.
        maps = IncrementalClassMaps(rows, cols, plane,
                                    full_rebuild_fraction=1.1,
                                    backend=backend)
        toggle = rng.choice(n_cells, size=min(n_toggle, n_cells),
                            replace=False)
        plane.toggle_cells(toggle)
        maps.refresh(plane)
        assert maps.incremental_refreshes == 1

        fresh = IncrementalClassMaps(rows, cols, plane)
        assert np.array_equal(maps.nd, fresh.nd)
        assert np.array_equal(maps.ng, fresh.ng)
        assert np.array_equal(maps.class_idx, fresh.class_idx)
        assert np.array_equal(maps.hist, fresh.hist)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 400))
    @settings(max_examples=40, deadline=None)
    def test_grouping_matches_stable_argsort(self, seed, n):
        rng = np.random.default_rng(seed)
        backend = NumbaEngineBackend()
        flat = rng.integers(0, N_CLASSES, size=n).astype(np.int8)
        hist = np.bincount(flat, minlength=N_CLASSES)
        order, bounds = backend.group_class_members(flat, hist)
        assert np.array_equal(order, np.argsort(flat, kind="stable"))
        assert np.array_equal(bounds,
                              np.concatenate([[0], np.cumsum(hist)]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_toggle_and_inject_match_reference_state(self, seed):
        from repro.memsys.engine import _PackedState

        rng = np.random.default_rng(seed)
        n_words, code_bits, n_cells = 6, 9, 58  # 54 mapped + 4 tail
        plane, bits = _random_plane(rng, n_words, code_bits, n_cells)

        class _Tables:
            def wer_class_probability(self):
                return np.full(N_CLASSES, 1e-3)

            def disturb_class_probability(self):
                return np.full(N_CLASSES, 1e-4)

        states = []
        for backend in (None, NumbaEngineBackend()):
            intended = BitPlane.from_bits(bits, n_words, code_bits)
            states.append(_PackedState(intended, intended.copy(),
                                       None, _Tables(),
                                       backend=backend))
        ref, fused = states

        mapped_idx = np.arange(ref.actual.n_mapped)
        for _ in range(4):
            k = int(rng.integers(0, 10))
            idx = rng.choice(n_cells, size=k, replace=False)
            ref.toggle(idx)
            fused.toggle(idx)
            # _inject's contract: the cells were just written clean,
            # so every injection creates a new wrong bit.
            clean = mapped_idx[ref.actual.get_cells(mapped_idx)
                               == ref.intended.get_cells(mapped_idx)]
            n_inj = min(int(rng.integers(0, 4)), clean.size)
            inj = rng.choice(clean, size=n_inj, replace=False)
            ref._inject(inj)
            fused._inject(inj)

        assert ref.wrong_bits == fused.wrong_bits
        assert np.array_equal(ref.err_count, fused.err_count)
        assert np.array_equal(ref.actual.lanes, fused.actual.lanes)
        assert np.array_equal(ref.actual.tail, fused.actual.tail)
        # The maintained counters agree with ground truth.
        assert np.array_equal(
            fused.err_count,
            fused.actual.diff_counts(fused.intended).astype(np.int16))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_grouped_draws_are_bit_identical(self, seed):
        """Counting-sort grouping must not perturb the draw stream."""
        numba_py = NumbaEngineBackend()
        rng = np.random.default_rng(seed)
        class_idx = rng.integers(0, N_CLASSES,
                                 size=500).astype(np.int8)
        p_class = np.full(N_CLASSES, 0.05)
        ref = sample_class_flips(class_idx, p_class,
                                 np.random.default_rng(seed + 1))
        got = sample_class_flips(class_idx, p_class,
                                 np.random.default_rng(seed + 1),
                                 backend=numba_py)
        assert np.array_equal(ref, got)


class TestBackendTuning:
    def test_numba_raises_rebuild_threshold(self, numba_py):
        plane = BitPlane.from_bits(np.zeros(64, np.int8), 8, 8)
        default = IncrementalClassMaps(8, 8, plane)
        tuned = IncrementalClassMaps(8, 8, plane, backend=numba_py)
        assert tuned.full_rebuild_fraction > default.full_rebuild_fraction
        assert (tuned.full_rebuild_fraction
                == numba_py.preferred_rebuild_fraction)

    def test_explicit_fraction_beats_backend_preference(self,
                                                        numba_py):
        plane = BitPlane.from_bits(np.zeros(64, np.int8), 8, 8)
        maps = IncrementalClassMaps(8, 8, plane,
                                    full_rebuild_fraction=0.5,
                                    backend=numba_py)
        assert maps.full_rebuild_fraction == 0.5

    def test_numpy_backend_keeps_default_threshold(self):
        plane = BitPlane.from_bits(np.zeros(64, np.int8), 8, 8)
        maps = IncrementalClassMaps(8, 8, plane,
                                    backend=get_backend("numpy"))
        assert (maps.full_rebuild_fraction
                == IncrementalClassMaps.full_rebuild_fraction)


class TestEngineParity:
    def _engine(self, device, backend, **kwargs):
        params = dict(pitch=45e-9, rows=48, cols=48, nominal_wer=5e-3,
                      workload="read-heavy", cycle_time=100e-9)
        params.update(kwargs)
        return build_engine(device, backend=backend, **params)

    _COUNTERS = ("write_errors", "disturb_flips", "retention_flips",
                 "raw_bit_errors", "uncorrectable_bit_errors",
                 "words_ok", "words_corrected", "words_detected",
                 "words_silent", "n_scrubs", "scrub_corrected_words",
                 "scrub_uncorrectable_words")

    def test_sampled_counters_identical(self, eval_device, numba_py):
        """Order-preserving kernels make the two backends not just
        statistically equivalent but draw-for-draw identical."""
        from repro.memsys.scrub import ScrubPolicy

        results = [
            self._engine(eval_device, backend,
                         scrub=ScrubPolicy(5e-4)).run(
                             20_000, rng=11, batch_size=1024)
            for backend in ("numpy", numba_py)]
        ref, fused = results
        for name in self._COUNTERS:
            assert getattr(ref, name) == getattr(fused, name), name
        assert ref.uber == fused.uber
        assert ref.config["backend"] == "numpy"
        assert fused.config["backend"] == "numba"

    def test_sampled_counters_identical_hot_retention(
            self, eval_device, numba_py):
        results = [
            build_engine(eval_device, pitch=52.5e-9, rows=24, cols=24,
                         workload="read-heavy",
                         temperature=420.0, cycle_time=10.0,
                         backend=backend).run(1500, rng=5,
                                              batch_size=256)
            for backend in ("numpy", numba_py)]
        ref, fused = results
        assert ref.retention_flips > 0
        for name in self._COUNTERS:
            assert getattr(ref, name) == getattr(fused, name), name

    def test_expected_rates_identical(self, eval_device, numba_py):
        rates = [self._engine(eval_device, backend).expected_rates(
            rng=3) for backend in ("numpy", numba_py)]
        assert rates[0] == rates[1]


class TestCliAndService:
    def test_cli_accepts_backend_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["memsys", "--backend", "numba"])
        assert args.backend == "numba"
        assert build_parser().parse_args(["memsys"]).backend is None

    def test_cli_rejects_unknown_backend(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["memsys", "--backend", "mkl"])
        capsys.readouterr()

    def test_cli_run_reports_resolved_backend(self, capsys):
        from repro.cli import main

        assert main(["memsys", "--seed", "3", "--rows", "16",
                     "--cols", "16", "--transactions", "500",
                     "--backend", "numpy", "--no-sweep"]) == 0
        assert "(numpy backend)" in capsys.readouterr().out

    def test_uber_query_accepts_backend(self):
        from repro.service.protocol import parse_request

        query = parse_request({"op": "uber", "backend": "numba"})
        assert query.backend == "numba"
        assert parse_request({"op": "uber"}).backend is None
        with pytest.raises(ParameterError, match="unknown engine"):
            parse_request({"op": "uber", "backend": "mkl"})

    def test_run_uber_reports_resolved_backend(self, fresh_warnings):
        import threading

        from repro.service.protocol import parse_request
        from repro.service.runners import run_uber

        query = parse_request({
            "op": "uber", "mode": "sampled", "rows": 16, "cols": 16,
            "transactions": 500, "backend": "numba", "seed": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            payload = run_uber(query, threading.Event(),
                               lambda done, total: None)
        expected = "numba" if numba_available() else "numpy"
        assert payload["backend"] == expected
        assert payload["mode"] == "sampled"
