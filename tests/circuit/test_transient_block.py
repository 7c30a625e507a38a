"""The cached transient factor and pulse-response banks."""

import numpy as np
import pytest

from repro.circuit.elements import Circuit
from repro.circuit.mna import (SOLVER_COUNTERS, CircuitStamps,
                               reset_solver_counters)
from repro.circuit.transient import (circuit_is_linear,
                                     pulse_response_bank, simulate,
                                     transient_block_factor)
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
    def test_factor_cached_per_dt(self):
        ckt = rc_circuit()
        f1 = transient_block_factor(ckt, 1e-9)
        f2 = transient_block_factor(ckt, 1e-9)
        f3 = transient_block_factor(ckt, 2e-9)
        assert f1 is f2
        assert f1 is not f3

    def test_repeated_runs_factor_once(self):
        ckt = rc_circuit()
        reset_solver_counters()
        simulate(ckt, 1e-6, 1e-9)
        simulate(ckt, 2e-6, 1e-9)
        assert SOLVER_COUNTERS["transient_factorizations"] == 1
        # One back-substitution per step after t=0.
        assert SOLVER_COUNTERS["transient_solves"] == 1000 + 2000

    def test_empty_factor_rejected(self):
        with pytest.raises(ValueError, match="empty circuit"):
            transient_block_factor(Circuit(), 1e-9)


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


class TestCircuitIsLinear:
    def test_stock_circuit_is_linear(self):
        assert circuit_is_linear(rlc_circuit())

    def test_nonlinear_marker_rejected(self):
        ckt = rc_circuit()
        ckt.nonlinear_elements = ["diode"]
        assert not circuit_is_linear(ckt)
        assert pulse_response_bank(ckt, 1e-9, 100, ("out",)) is None


class TestPulseResponseBank:
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

    def test_bank_cached_and_keyed(self):
        ckt = rc_circuit()
        b1 = pulse_response_bank(ckt, 1e-9, 500, ("out",))
        b2 = pulse_response_bank(ckt, 1e-9, 500, ("out",))
        b3 = pulse_response_bank(ckt, 2e-9, 500, ("out",))
        b4 = pulse_response_bank(ckt, 1e-9, 500, ("in", "out"))
        assert b1 is b2
        assert b3 is not b1
        assert b4 is not b1

    def test_unsettled_bank_rebuilt_for_longer_horizon(self):
        # A tolerance of 0 can never settle, so the bank length tracks
        # the requested horizon and longer requests force a rebuild.
        ckt = rc_circuit()
        short = pulse_response_bank(ckt, 1e-9, 50, ("out",),
                                    settle_tol=0.0)
        assert not short.settled and short.length == 50
        longer = pulse_response_bank(ckt, 1e-9, 120, ("out",),
                                     settle_tol=0.0)
        assert longer.length == 120
        again = pulse_response_bank(ckt, 1e-9, 80, ("out",),
                                    settle_tol=0.0)
        assert again is longer  # still long enough — cache hit

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
        # The bank does one DC factorization (mna) plus the shared
        # transient factor and a handful of multi-column solves — far
        # fewer transient solves than stepping the same horizon.
        ckt = rlc_circuit()
        reset_solver_counters()
        pulse_response_bank(ckt, 1e-9, 2001, ("b",))
        assert SOLVER_COUNTERS["mna_factorizations"] == 1
        assert SOLVER_COUNTERS["transient_factorizations"] == 1
        assert SOLVER_COUNTERS["transient_solves"] < 50
