"""The transient companion-matrix factor and pulse-response banks."""

import numpy as np
import pytest

from repro.circuit.elements import Circuit
from repro.circuit.mna import (SOLVER_COUNTERS, CircuitStamps,
                               reset_solver_counters)
from repro.circuit.transient import pulse_response_bank, simulate
from repro.circuit.waveforms import dc, pulse, step


def rc_circuit(r=1000.0, c=1e-9):
    ckt = Circuit()
    ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    return ckt


def rlc_circuit():
    ckt = Circuit()
    ckt.add_vsource("V", "in", "0",
                    pulse(0.0, 1.0, delay=1e-7, rise=1e-9, fall=1e-9,
                          width=4e-7, period=1e-6))
    ckt.add_resistor("R", "in", "a", 50.0)
    ckt.add_inductor("L", "a", "b", 1e-6)
    ckt.add_capacitor("C", "b", "0", 1e-10)
    ckt.add_resistor("Rload", "b", "0", 500.0)
    return ckt


def isrc_circuit():
    ckt = Circuit()
    ckt.add_isource("I", "0", "n", step(1e-3, rise_time=1e-12))
    ckt.add_resistor("R", "n", "0", 100.0)
    ckt.add_capacitor("C", "n", "0", 1e-9)
    return ckt


class TestBlockFactorCache:
    """Nothing is cached between runs: each run factors its own
    companion matrix once."""

    def test_repeated_runs_factor_once(self):
        ckt = rc_circuit()
        reset_solver_counters()
        simulate(ckt, 1e-6, 1e-9)
        simulate(ckt, 2e-6, 1e-9)
        assert SOLVER_COUNTERS["transient_factorizations"] == 2
        # One back-substitution per step after t=0.
        assert SOLVER_COUNTERS["transient_solves"] == 1000 + 2000


class TestSimulateBatch:
    """A batch of different circuits stepped one after another through
    :func:`simulate`."""

    def test_counters(self):
        # Each topology costs its own factorization and one
        # back-substitution per step after t=0.
        reset_solver_counters()
        steps = int(round(2e-6 / 1e-9)) + 1
        for ckt in (rc_circuit(), rlc_circuit()):
            simulate(ckt, 2e-6, 1e-9)
        assert SOLVER_COUNTERS["transient_factorizations"] == 2
        assert SOLVER_COUNTERS["transient_solves"] == 2 * (steps - 1)


class TestPulseResponseBank:
    def test_empty_circuit_has_no_bank(self):
        # No bank sends the eye to its stepping fallback.
        assert pulse_response_bank(Circuit(), 1e-9, 100, ()) is None

    def test_synthesis_matches_stepping(self):
        ckt = rlc_circuit()
        steps = int(round(2e-6 / 1e-9)) + 1
        bank = pulse_response_bank(ckt, 1e-9, steps, ("a", "b"))
        assert bank is not None
        stamps = CircuitStamps.of(ckt)
        time = np.arange(steps) * 1e-9
        samples = stamps.sample_waveforms(
            stamps.vsrc_waves + stamps.isrc_waves, time)
        waves = bank.synthesize(samples)
        ref = simulate(ckt, 2e-6, 1e-9, record=["a", "b"])
        for node in ("a", "b"):
            scale = max(np.max(np.abs(ref.voltage(node))), 1e-12)
            diff = np.max(np.abs(waves[node] - ref.voltage(node)))
            assert diff / scale < 1e-9

    def test_isource_synthesis_matches_stepping(self):
        ckt = isrc_circuit()
        steps = 1001
        bank = pulse_response_bank(ckt, 1e-9, steps, ("n",))
        assert bank is not None
        stamps = CircuitStamps.of(ckt)
        time = np.arange(steps) * 1e-9
        samples = stamps.sample_waveforms(
            stamps.vsrc_waves + stamps.isrc_waves, time)
        waves = bank.synthesize(samples)
        ref = simulate(ckt, 1e-6, 1e-9, record=["n"])
        scale = np.max(np.abs(ref.voltage("n")))
        assert np.max(np.abs(waves["n"] - ref.voltage("n"))) / scale \
            < 1e-9

    def test_dc_init_carried(self):
        # Source already high at t=0: the bank's init response must
        # reproduce the charged-capacitor start of use_ic=True.
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", dc(1.0))
        ckt.add_resistor("R", "in", "out", 1000.0)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        bank = pulse_response_bank(ckt, 1e-9, 200, ("out",))
        samples = np.ones((1, 200))
        wave = bank.synthesize(samples)["out"]
        assert wave[0] == pytest.approx(1.0)
        assert np.allclose(wave, 1.0, atol=1e-9)

    def test_unsettled_bank_covers_the_horizon(self):
        # A tolerance of 0 can never settle, so the bank runs to the
        # requested horizon, which is all an eye ever synthesizes.
        ckt = rc_circuit()
        bank = pulse_response_bank(ckt, 1e-9, 50, ("out",),
                                   settle_tol=0.0)
        assert not bank.settled and bank.length == 50

    def test_unsettled_synthesis_overrun_rejected(self):
        ckt = rc_circuit()
        bank = pulse_response_bank(ckt, 1e-9, 50, ("out",),
                                   settle_tol=0.0)
        with pytest.raises(ValueError, match="never settled"):
            bank.synthesize(np.ones((1, 51)))

    def test_bad_sample_shape_rejected(self):
        ckt = rc_circuit()
        bank = pulse_response_bank(ckt, 1e-9, 500, ("out",))
        with pytest.raises(ValueError, match="shape"):
            bank.synthesize(np.ones((3, 100)))

    def test_counters_taxonomy(self):
        # The bank does one DC factorization (mna) plus one transient
        # factorization and a handful of multi-column solves — far
        # fewer transient solves than stepping the same horizon.
        ckt = rlc_circuit()
        reset_solver_counters()
        pulse_response_bank(ckt, 1e-9, 2001, ("b",))
        assert SOLVER_COUNTERS["mna_factorizations"] == 1
        assert SOLVER_COUNTERS["transient_factorizations"] == 1
        assert SOLVER_COUNTERS["transient_solves"] < 50
