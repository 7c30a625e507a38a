"""Vectorized transient engine vs the scalar reference implementation.

The vectorized :func:`simulate` must be numerically interchangeable with
``simulate_scalar`` (the original per-element engine, kept as a golden
reference in ``tests/oracles``): same companion models, same
trapezoidal update, so agreement is expected at solver-roundoff level,
well below 1e-9.
"""

import numpy as np

from repro.circuit.elements import Circuit
from repro.circuit.transient import simulate
from repro.circuit.waveforms import dc, pulse, step
from tests.oracles import simulate_scalar

REL_TOL = 1e-9


def _compare(ckt, t_stop, dt, nodes, use_ic=True, currents=None):
    vec = simulate(ckt, t_stop, dt, use_ic=use_ic,
                   record_currents=currents)
    ref = simulate_scalar(ckt, t_stop, dt, use_ic=use_ic,
                          record_currents=currents)
    np.testing.assert_allclose(vec.time, ref.time, rtol=0, atol=0)
    for node in nodes:
        a, b = vec.voltage(node), ref.voltage(node)
        scale = max(np.abs(b).max(), 1e-12)
        assert np.abs(a - b).max() <= REL_TOL * scale, node
    for name in currents or []:
        a = vec.vsource_currents[name]
        b = ref.vsource_currents[name]
        scale = max(np.abs(b).max(), 1e-12)
        assert np.abs(a - b).max() <= REL_TOL * scale, name


class TestVectorizedMatchesScalar:
    def test_rc_step(self):
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "out", 1000.0)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        _compare(ckt, 5e-6, 1e-9, ["in", "out"], currents=["V"])

    def test_rlc_ring(self):
        # Underdamped series RLC: rings for many cycles, so any drift in
        # the state update would accumulate visibly.
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "a", 5.0)
        ckt.add_inductor("L", "a", "out", 1e-7)
        ckt.add_capacitor("C", "out", "0", 1e-10)
        _compare(ckt, 2e-7, 5e-11, ["a", "out"])

    def test_mutual_inductor_pair(self):
        ckt = Circuit()
        ckt.add_vsource("V", "p", "0",
                        pulse(0, 1, 1e-9, 1e-10, 1e-10, 5e-9, 20e-9))
        ckt.add_resistor("Rp", "p", "a", 10.0)
        ckt.add_inductor("L1", "a", "0", 1e-8)
        ckt.add_inductor("L2", "s", "0", 1e-8)
        ckt.add_mutual("K", "L1", "L2", 0.9)
        ckt.add_resistor("Rs", "s", "0", 50.0)
        _compare(ckt, 40e-9, 2e-11, ["a", "s"])

    def test_pdn_droop_zero_state(self):
        # Decoupled PDN rail hit by a current step, started from zero
        # state (use_ic=False) — exercises the isource path and the
        # non-DC initialization branch.
        ckt = Circuit()
        ckt.add_vsource("VRM", "vrm", "0", dc(0.9))
        ckt.add_resistor("Rvrm", "vrm", "bump", 0.002)
        ckt.add_inductor("Lpkg", "bump", "die", 1e-10)
        ckt.add_resistor("Rsp", "die", "0", 1e6)
        ckt.add_capacitor("Cdecap", "die", "0", 1e-7)
        ckt.add_isource("Iload", "die", "0",
                        pulse(0.0, 2.0, 1e-9, 2e-10, 2e-10, 5e-8, 1e-7))
        _compare(ckt, 2e-7, 1e-10, ["bump", "die"], use_ic=False,
                 currents=["VRM"])

    def test_record_subset_matches(self):
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", step(1.0, rise_time=1e-12))
        ckt.add_resistor("R", "in", "out", 1000.0)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        vec = simulate(ckt, 1e-6, 1e-9, record=["out"])
        ref = simulate_scalar(ckt, 1e-6, 1e-9, record=["out"])
        np.testing.assert_allclose(vec.voltage("out"), ref.voltage("out"),
                                   rtol=REL_TOL, atol=1e-15)
