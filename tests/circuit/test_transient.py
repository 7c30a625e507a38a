"""Transient solver tests against analytic step/ring responses."""

import math

import numpy as np
import pytest

from repro.circuit.elements import Circuit
from repro.circuit.transient import simulate
from repro.circuit.waveforms import dc, pulse, step


def rc_circuit(r=1000.0, c=1e-9, v=1.0, t0=0.0):
    ckt = Circuit()
    ckt.add_vsource("V", "in", "0", step(v, t_start=t0, rise_time=1e-12))
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    return ckt


class TestRc:
    def test_step_response_tau(self):
        ckt = rc_circuit()
        res = simulate(ckt, 5e-6, 1e-9)
        idx = np.argmin(np.abs(res.time - 1e-6))  # t = tau
        assert res.voltage("out")[idx] == pytest.approx(1 - math.exp(-1),
                                                        abs=0.01)

    def test_final_value(self):
        res = simulate(rc_circuit(), 8e-6, 2e-9)
        assert res.voltage("out")[-1] == pytest.approx(1.0, abs=1e-3)

    def test_initial_condition_from_dc(self):
        # Source already high at t=0 -> capacitor starts charged.
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", dc(1.0))
        ckt.add_resistor("R", "in", "out", 1000.0)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        res = simulate(ckt, 1e-6, 1e-9)
        assert res.voltage("out")[0] == pytest.approx(1.0)
        assert np.allclose(res.voltage("out"), 1.0, atol=1e-6)

    def test_zero_state_start(self):
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", dc(1.0))
        ckt.add_resistor("R", "in", "out", 1000.0)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        res = simulate(ckt, 5e-6, 1e-9, use_ic=False)
        assert res.voltage("out")[0] == pytest.approx(0.0, abs=1e-9)
        assert res.voltage("out")[-1] == pytest.approx(1.0, abs=1e-2)


class TestRl:
    def test_inductor_current_rise(self):
        # I(t) = V/R (1 - e^{-tR/L}); tau = L/R = 1 us.
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "a", 100.0)
        ckt.add_inductor("L", "a", "0", 1e-4)
        res = simulate(ckt, 5e-6, 1e-9, record=["in", "a"])
        # At t = tau the node 'a' voltage = e^{-1} of the source.
        idx = np.argmin(np.abs(res.time - 1e-6))
        assert res.voltage("a")[idx] == pytest.approx(math.exp(-1),
                                                      abs=0.02)


class TestRlc:
    def test_underdamped_ring_frequency(self):
        l, c = 1e-6, 1e-9
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "a", 5.0)
        ckt.add_inductor("L", "a", "out", l)
        ckt.add_capacitor("C", "out", "0", c)
        res = simulate(ckt, 3e-6, 5e-10)
        wave = res.voltage("out")
        # Count mean crossings to estimate ring frequency.
        above = wave > 1.0
        crossings = np.count_nonzero(above[:-1] != above[1:])
        f_est = crossings / 2.0 / 3e-6
        f0 = 1 / (2 * math.pi * math.sqrt(l * c))
        assert f_est == pytest.approx(f0, rel=0.1)

    def test_overshoot_bounded_by_2x(self):
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "a", 1.0)
        ckt.add_inductor("L", "a", "out", 1e-6)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        res = simulate(ckt, 5e-6, 1e-9)
        assert 1.0 < res.voltage("out").max() < 2.01

    def test_energy_dissipation_settles(self):
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "a", 50.0)
        ckt.add_inductor("L", "a", "out", 1e-6)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        res = simulate(ckt, 10e-6, 2e-9)
        assert res.voltage("out")[-1] == pytest.approx(1.0, abs=1e-3)


class TestApi:
    def test_record_subset(self):
        res = simulate(rc_circuit(), 1e-6, 1e-9, record=["out"])
        assert "out" in res.voltages
        with pytest.raises(KeyError):
            res.voltage("in")

    def test_record_currents(self):
        res = simulate(rc_circuit(), 1e-6, 1e-9,
                       record_currents=["V"])
        assert len(res.vsource_currents["V"]) == len(res.time)

    def test_unknown_current_rejected(self):
        with pytest.raises(KeyError):
            simulate(rc_circuit(), 1e-6, 1e-9, record_currents=["X"])

    def test_bad_timestep_rejected(self):
        with pytest.raises(ValueError):
            simulate(rc_circuit(), 1e-6, 2e-6)

    def test_empty_circuit_rejected(self):
        with pytest.raises(ValueError):
            simulate(Circuit(), 1e-6, 1e-9)

    def test_mutual_inductor_transient_couples(self):
        ckt = Circuit()
        ckt.add_vsource("V", "p", "0",
                        pulse(0, 1, 1e-9, 1e-10, 1e-10, 5e-9, 20e-9))
        ckt.add_resistor("Rp", "p", "a", 10.0)
        ckt.add_inductor("L1", "a", "0", 1e-8)
        ckt.add_inductor("L2", "s", "0", 1e-8)
        ckt.add_mutual("K", "L1", "L2", 0.9)
        ckt.add_resistor("Rs", "s", "0", 50.0)
        res = simulate(ckt, 40e-9, 2e-11)
        assert np.abs(res.voltage("s")).max() > 0.05
