"""The one numpy compute path and the compatibility surfaces it keeps.

The numba engine backend is retired. What stays is a name check
(``resolve_backend`` and ``build_engine(backend=)`` accept only
``None`` or ``"numpy"``), a constant ``"backend": "numpy"`` in run
configs, checkpoint identities and sampled ``uber`` answers, and the
guarantee that naming the one path explicitly changes nothing.
"""

from __future__ import annotations

import importlib
import threading
import warnings

import pytest

from repro.errors import ParameterError
from repro.memsys import resolve_backend
from repro.memsys.engine import build_engine
from repro.memsys.scrub import ScrubPolicy

REJECTED = ["numba", "fortran", "cuda", "NUMPY", ""]

COUNTERS = ("write_errors", "disturb_flips", "retention_flips",
            "raw_bit_errors", "uncorrectable_bit_errors",
            "words_ok", "words_corrected", "words_detected",
            "words_silent", "n_scrubs", "scrub_corrected_words",
            "scrub_uncorrectable_words")


def _small(device, **kwargs):
    return build_engine(device, pitch=70e-9, rows=16, cols=16, **kwargs)


class TestResolveBackend:
    def test_default_argument_is_numpy(self):
        assert resolve_backend().name == "numpy"

    @pytest.mark.parametrize("name", [None, "numpy"])
    def test_one_path_names(self, name):
        assert resolve_backend(name).name == "numpy"

    @pytest.mark.parametrize("name", REJECTED)
    def test_other_names_rejected(self, name):
        with pytest.raises(ParameterError, match="retired"):
            resolve_backend(name)

    @pytest.mark.parametrize("name", REJECTED[1:])
    def test_build_engine_rejects_other_names(self, eval_device, name):
        with pytest.raises(ParameterError, match="retired"):
            _small(eval_device, backend=name)


class TestEnvironmentIgnored:
    """``REPRO_ENGINE_BACKEND`` no longer selects anything: no
    warning, no error, the same config."""

    @pytest.mark.parametrize("value", ["numba", "numpy", "cuda"])
    def test_env_variable_has_no_effect(self, monkeypatch, eval_device,
                                        value):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = _small(eval_device)
            assert engine._config()["backend"] == "numpy"
            assert resolve_backend().name == "numpy"


class TestNamingThePathChangesNothing:
    """``backend=None`` and ``backend="numpy"`` build the same engine:
    seeded runs agree draw for draw."""

    def _engine(self, device, backend, **kwargs):
        params = dict(pitch=45e-9, rows=48, cols=48, nominal_wer=5e-3,
                      workload="read-heavy", cycle_time=100e-9)
        params.update(kwargs)
        return build_engine(device, backend=backend, **params)

    def test_sampled_counters_identical(self, eval_device):
        implicit, explicit = [
            self._engine(eval_device, backend,
                         scrub=ScrubPolicy(5e-4)).run(
                             20_000, rng=11, batch_size=1024)
            for backend in (None, "numpy")]
        for name in COUNTERS:
            assert getattr(implicit, name) == getattr(explicit, name), name
        assert implicit.uber == explicit.uber
        assert implicit.config == explicit.config
        assert explicit.config["backend"] == "numpy"

    def test_sampled_counters_identical_hot_retention(self, eval_device):
        implicit, explicit = [
            build_engine(eval_device, pitch=52.5e-9, rows=24, cols=24,
                         workload="read-heavy",
                         temperature=420.0, cycle_time=10.0,
                         backend=backend).run(1500, rng=5,
                                              batch_size=256)
            for backend in (None, "numpy")]
        assert implicit.retention_flips > 0
        for name in COUNTERS:
            assert getattr(implicit, name) == getattr(explicit, name), name

    def test_expected_rates_identical(self, eval_device):
        rates = [self._engine(eval_device, backend).expected_rates(rng=3)
                 for backend in (None, "numpy")]
        assert rates[0] == rates[1]

    def test_banked_run_config_reports_numpy(self, eval_device):
        engine = build_engine(eval_device, pitch=70e-9, rows=16,
                              cols=16, banks=2, backend="numpy")
        result = engine.run(400, rng=2, batch_size=128)
        assert result.config["backend"] == "numpy"
        assert result.config["banks"] == 2


class TestCheckpointIdentity:
    def test_identity_keeps_backend_field(self, eval_device, tmp_path):
        """Checkpoints written before the retirement carry
        ``"backend": "numpy"`` in their identity; keeping the field
        lets them resume."""
        from repro.resilience.checkpoint import CheckpointManager

        manager = CheckpointManager(str(tmp_path))
        _small(eval_device).run(600, rng=4, batch_size=200,
                                checkpoint=manager)
        identity = manager.load("run")["identity"]
        assert identity["backend"] == "numpy"

    def test_implicit_checkpoint_resumes_under_explicit_name(
            self, eval_device, tmp_path):
        from repro.resilience.checkpoint import CheckpointManager

        manager = CheckpointManager(str(tmp_path))
        first = _small(eval_device).run(600, rng=4, batch_size=200,
                                        checkpoint=manager)
        resumed = _small(eval_device, backend="numpy").run(
            600, rng=4, batch_size=200, checkpoint=manager, resume=True)
        assert resumed.uber == first.uber
        assert resumed.raw_bit_errors == first.raw_bit_errors


class TestSurfacesOutsideTheEngine:
    def test_sampled_uber_answer_reports_numpy(self):
        from repro.service.protocol import parse_request
        from repro.service.runners import run_uber

        query = parse_request({
            "op": "uber", "mode": "sampled", "rows": 16, "cols": 16,
            "transactions": 500, "seed": 1})
        payload = run_uber(query, threading.Event(),
                           lambda done, total: None)
        assert payload["backend"] == "numpy"
        assert payload["mode"] == "sampled"

    def test_memsys_output_names_no_backend(self, capsys):
        from repro.cli import main

        assert main(["memsys", "--seed", "3", "--rows", "16",
                     "--cols", "16", "--transactions", "500",
                     "--no-sweep"]) == 0
        assert "backend" not in capsys.readouterr().out

    def test_backends_package_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.memsys.backends")

    def test_cross_backend_canary_is_gone(self):
        import repro.integrity as integrity

        assert not hasattr(integrity, "cross_backend_canary")

    def test_audit_without_target_names_no_canary(self, capsys):
        from repro.cli import main

        assert main(["audit"]) == 2
        out = capsys.readouterr().out
        assert "nothing to audit" in out
        assert "canary" not in out
