"""Tests for the stochastic R-H loop simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import RHLoopSimulator, SweepProtocol
from repro.errors import MeasurementError, ParameterError
from repro.units import am_to_oe, oe_to_am


def make_simulator(hz_stray_oe=-300.0, delta0=100.0, hk_oe=3800.0,
                   n_points=600):
    protocol = SweepProtocol(h_max=oe_to_am(3000.0), n_points=n_points)
    return RHLoopSimulator(
        delta0=delta0, hk=oe_to_am(hk_oe), rp=1900.0, rap=4100.0,
        hz_stray=oe_to_am(hz_stray_oe), protocol=protocol)


class TestSweepProtocol:
    def test_path_shape(self):
        protocol = SweepProtocol(h_max=oe_to_am(3000.0), n_points=1000)
        fields = protocol.field_points()
        assert fields.shape == (1000,)
        assert fields[0] == pytest.approx(0.0)
        assert fields.max() == pytest.approx(oe_to_am(3000.0), rel=0.01)
        assert fields.min() == pytest.approx(-oe_to_am(3000.0), rel=0.01)
        assert fields[-1] == pytest.approx(0.0, abs=1.0)

    def test_ramp_order(self):
        fields = SweepProtocol(h_max=1e5, n_points=400).field_points()
        peak = int(np.argmax(fields))
        trough = int(np.argmin(fields))
        assert peak < trough  # up first, then through negative.


class TestLoopSimulation:
    def test_complete_cycle(self):
        loop = make_simulator().simulate(rng=7)
        assert loop.hsw_p is not None and loop.hsw_p > 0
        assert loop.hsw_n is not None and loop.hsw_n < 0
        assert loop.rap > loop.rp

    def test_offset_recovers_stray_field(self):
        stray_oe = -275.0
        sim = make_simulator(hz_stray_oe=stray_oe)
        recovered = []
        rng = np.random.default_rng(11)
        for _ in range(8):
            loop = sim.simulate(rng=rng)
            recovered.append(am_to_oe(loop.stray_field))
        assert np.mean(recovered) == pytest.approx(stray_oe, abs=30.0)

    def test_offset_sign_matches_paper(self):
        # Negative stray field => loop offset to the positive side.
        loop = make_simulator(hz_stray_oe=-300.0).simulate(rng=3)
        assert am_to_oe(loop.offset_field) > 0

    def test_coercivity_positive_and_below_hk(self):
        loop = make_simulator().simulate(rng=5)
        hc_oe = am_to_oe(loop.coercivity)
        assert 500.0 < hc_oe < 3800.0

    def test_switching_stochastic_across_cycles(self):
        sim = make_simulator()
        rng = np.random.default_rng(13)
        values = {round(sim.simulate(rng=rng).hsw_p) for _ in range(12)}
        assert len(values) > 1  # Hsw_p varies cycle to cycle.

    def test_higher_delta0_higher_coercivity(self):
        soft = make_simulator(delta0=40.0).simulate(rng=21)
        hard = make_simulator(delta0=140.0).simulate(rng=21)
        assert hard.coercivity > soft.coercivity

    def test_resistance_levels(self):
        loop = make_simulator().simulate(rng=9)
        assert set(np.unique(loop.resistances)) == {1900.0, 4100.0}

    def test_incomplete_loop_raises_on_extraction(self):
        # An enormous barrier never switches within the sweep.
        sim = make_simulator(delta0=100.0, hk_oe=50000.0)
        loop = sim.simulate(rng=1)
        with pytest.raises(MeasurementError):
            _ = loop.coercivity

    def test_validation(self):
        protocol = SweepProtocol(h_max=1e5)
        with pytest.raises(ParameterError):
            RHLoopSimulator(delta0=45.0, hk=3e5, rp=2000.0, rap=1000.0,
                            protocol=protocol)
        with pytest.raises(ParameterError):
            RHLoopSimulator(delta0=45.0, hk=3e5, rp=2000.0, rap=4000.0,
                            protocol=None)


class TestBarrier:
    def test_zero_field_is_delta0(self):
        sim = make_simulator()
        assert sim.barrier_to_leave("AP", 0.0) == pytest.approx(100.0)
        assert sim.barrier_to_leave("P", 0.0) == pytest.approx(100.0)

    def test_destabilizing_field_lowers_barrier(self):
        sim = make_simulator()
        h = 0.5 * sim.hk
        # +z pushes AP toward P; -z pushes P toward AP.
        assert sim.barrier_to_leave("AP", h) == pytest.approx(25.0)
        assert sim.barrier_to_leave("P", -h) == pytest.approx(25.0)
        assert sim.barrier_to_leave("P", h) == pytest.approx(225.0)

    def test_barrier_vanishes_at_hk(self):
        sim = make_simulator()
        assert sim.barrier_to_leave("AP", sim.hk) == 0.0
        assert sim.barrier_to_leave("P", -2.0 * sim.hk) == 0.0

    def test_stabilizing_field_capped(self):
        sim = make_simulator()
        assert sim.barrier_to_leave("AP", -5.0 * sim.hk) == \
            pytest.approx(400.0)
