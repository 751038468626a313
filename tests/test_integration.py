"""Cross-module integration tests: full paper workflows end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    IntraCellModel,
    MTJDevice,
    MTJState,
    PAPER_EVAL_DEVICE,
    VictimAnalysis,
    coupling_factor,
    fit_effective_moments,
    psi_threshold_pitch,
)
from repro.arrays.pattern import ALL_P
from repro.characterization import (
    RHMeasurement,
    fit_hk_delta0,
    switching_probability_curve,
)
from repro.core.inter import InterCellModel
from repro.experiments.data import (
    synthetic_intra_dataset,
    wafer_device_parameters,
)
from repro.units import am_to_oe, nm_to_m, oe_to_am

pytestmark = pytest.mark.integration


class TestCalibrateThenExtrapolate:
    """The paper's core workflow: Section III -> IV-A -> IV-B -> V."""

    def test_full_chain(self):
        # 1. Measure (synthetic silicon) and calibrate the intra model.
        dataset = synthetic_intra_dataset()
        ecds, hz_mean, _ = dataset.as_arrays()
        calibration = fit_effective_moments(ecds, hz_mean)
        assert calibration.rmse_oe < 15.0

        # 2. The calibrated model reproduces the eval-device anchor.
        intra = IntraCellModel(stack_builder=calibration.stack_builder)
        hz35 = am_to_oe(intra.hz_at_center(nm_to_m(35.0)))
        assert hz35 == pytest.approx(-325.0, abs=40.0)

        # 3. Extrapolate to the 3x3 array and check the coupling anchors.
        inter = InterCellModel(nm_to_m(55.0),
                               stack_builder=calibration.stack_builder)
        lo, hi = inter.extremes_oe(nm_to_m(90.0))
        assert lo == pytest.approx(-16.0, abs=10.0)
        assert hi == pytest.approx(64.0, abs=10.0)

        # 4. Psi threshold: around 80 nm pitch for the 35 nm device.
        pitch = psi_threshold_pitch(
            nm_to_m(35.0), oe_to_am(2200.0), psi_target=0.02,
            stack_builder=calibration.stack_builder)
        assert pitch * 1e9 == pytest.approx(80.0, abs=12.0)


class TestMeasurementConsistency:
    """Device model and measurement emulation must agree with each other."""

    def test_loop_offset_equals_model_intra_field(self):
        device = MTJDevice(wafer_device_parameters(nm_to_m(90.0)))
        stats = RHMeasurement(device).run(n_cycles=10, rng=31)
        assert am_to_oe(stats.stray_field) == pytest.approx(
            device.intra_stray_field_oe(), abs=40.0)

    def test_hk_delta0_extraction_matches_injected(self):
        device = MTJDevice(wafer_device_parameters(nm_to_m(55.0)))
        fields = np.linspace(oe_to_am(1200.0), oe_to_am(3800.0), 30)
        _, probs = switching_probability_curve(
            device, fields, n_cycles=600, rng=17)
        fit = fit_hk_delta0(fields, probs, t_pulse=1e-3,
                            hz_stray=device.intra_stray_field())
        assert fit.hk == pytest.approx(device.params.hk, rel=0.08)
        assert fit.delta0 == pytest.approx(device.params.delta0,
                                           rel=0.25)


class TestVictimWorstCaseStory:
    """Section V's engineering conclusions, told through the library."""

    def test_write_margin_worst_case_is_np0(self, eval_device):
        victim = VictimAnalysis(eval_device, pitch=52.5e-9)
        times = {
            np8: victim.switching_time(
                0.85, __import__(
                    "repro.arrays.pattern", fromlist=["NeighborhoodPattern"]
                ).NeighborhoodPattern.from_int(np8))
            for np8 in (0, 128, 255)
        }
        assert times[0] > times[128] > times[255]

    def test_retention_worst_case_is_p_np0(self, eval_device):
        victim = VictimAnalysis(eval_device, pitch=52.5e-9)
        _, state, pattern = victim.worst_case_delta()
        assert state is MTJState.P
        assert pattern.to_int() == 0

    def test_psi_2pct_pitch_beats_denser_design(self, eval_device):
        """At Psi=2% the Ic spread is marginal; at 1.5x eCD it is not."""
        device = eval_device
        safe = VictimAnalysis(device, pitch=80e-9)
        dense = VictimAnalysis(device, pitch=52.5e-9)
        safe_spread = np.subtract(*reversed(safe.ic_spread("AP->P")))
        dense_spread = np.subtract(*reversed(dense.ic_spread("AP->P")))
        assert dense_spread > 2.5 * safe_spread

    def test_density_tradeoff_quantified(self, eval_device):
        from repro.arrays import areal_density_gbit_per_mm2
        pitch_safe = psi_threshold_pitch(
            eval_device.params.ecd, eval_device.params.hc,
            psi_target=0.02)
        density_safe = areal_density_gbit_per_mm2(pitch_safe)
        density_aggressive = areal_density_gbit_per_mm2(
            1.5 * eval_device.params.ecd)
        # Pushing from Psi=2% to pitch=1.5x eCD buys >2x density...
        assert density_aggressive > 2.0 * density_safe
        # ...at the cost of Psi ~ 7%.
        psi = coupling_factor(eval_device.stack,
                              1.5 * eval_device.params.ecd,
                              eval_device.params.hc)
        assert psi > 0.05


class TestLLGAgainstSun:
    """The LLG substrate corroborates the analytical switching model."""

    @pytest.mark.slow
    def test_tw_same_order_of_magnitude(self, eval_device):
        from repro.llg import MacrospinParameters, SwitchingSimulation
        params = MacrospinParameters.from_device(eval_device)
        vp = 1.0
        h = eval_device.intra_stray_field()
        current = eval_device.params.resistance.current(
            eval_device.params.ecd, "AP", vp)
        tw_sun = eval_device.switching_time(vp, h)
        result = SwitchingSimulation(params, current=current,
                                     hz_applied=h).run(
            n_runs=32, max_time=100e-9, rng=5)
        assert result.switched_fraction > 0.9
        ratio = result.mean_time / tw_sun
        assert 0.1 < ratio < 10.0
