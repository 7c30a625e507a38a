"""Failure-injection tests: broken inputs must fail loudly, not wrongly.

The physical-design and analysis engines are run on deliberately
corrupted or degenerate inputs; each must raise a clear error (or handle
the degenerate case exactly) rather than produce silently wrong results.
"""

import numpy as np
import pytest

from repro.arch.netlist import Netlist, PortDirection
from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import place
from repro.chiplet.route import global_route
from repro.chiplet.timing import analyze_timing
from repro.circuit import Circuit, simulate, solve_dc
from repro.circuit.waveforms import dc
from repro.si.channel import Channel, measure_channel
from repro.si.tline import RlgcLine
from repro.tech.stdcell import N28_LIB
from repro.thermal.grid import ThermalGrid


class TestNetlistCorruption:
    def test_dangling_net_reference_caught_by_validate(self):
        nl = Netlist("x", N28_LIB)
        nl.add_instance("a", "INV_X1")
        nl.add_net("n", "a", [])
        # A record is a snapshot: editing it leaves the netlist as it was.
        nl.nets["n"].sinks.append("ghost")
        assert nl.net("n").sinks == []
        nl.validate()
        # Corrupt the storage directly (simulating a buggy transform).
        nl._pins.append(1)
        nl._pin_ptr[-1] += 1
        with pytest.raises(ValueError, match="pin id 1 outside 1 instances"):
            nl.validate()

    def test_dangling_port_caught(self):
        nl = Netlist("x", N28_LIB)
        nl.add_instance("a", "INV_X1")
        nl.add_net("n", "a", [])
        nl.add_port("p", PortDirection.OUTPUT, "n")
        with pytest.raises(TypeError):
            del nl.nets["n"]
        nl.validate()
        nl._port_net[0] = 1
        with pytest.raises(ValueError, match="missing net"):
            nl.validate()


class TestDegenerateCircuits:
    def test_floating_node_does_not_crash(self):
        # A node connected only through a capacitor has no DC path; the
        # solver must still return finite values (lstsq fallback).
        c = Circuit()
        c.add_vsource("V", "a", "0", 1.0)
        c.add_resistor("R", "a", "b", 1.0)
        c.add_capacitor("C", "c", "b", 1e-12)
        sol = solve_dc(c)
        assert np.isfinite(sol.voltage("b"))

    def test_short_circuit_source_survives(self):
        # Ideal source across an ideal inductor: DC current is defined
        # by the remaining network, not infinite.
        c = Circuit()
        c.add_vsource("V", "a", "0", 1.0)
        c.add_resistor("R", "a", "b", 10.0)
        c.add_inductor("L", "b", "0", 1e-9)
        sol = solve_dc(c)
        assert sol.inductor_current("L") == pytest.approx(0.1)

    def test_transient_with_huge_timestep_still_stable(self):
        # Trapezoidal integration is A-stable: a crude step must not
        # blow up (it may ring, it must stay bounded).
        c = Circuit()
        c.add_vsource("V", "a", "0", dc(1.0))
        c.add_resistor("R", "a", "b", 1.0)
        c.add_capacitor("C", "b", "0", 1e-12)
        res = simulate(c, 1e-6, 1e-8, use_ic=False)
        assert np.abs(res.voltage("b")).max() < 2.1


class TestBrokenChannels:
    def test_absurdly_lossy_channel_reports_clearly(self):
        # A megaohm-per-micron line never crosses mid-rail: the
        # measurement must raise, not return a bogus delay.
        dead_line = RlgcLine(r_per_m=1e12, l_per_m=1e-7, g_per_m=0.0,
                             c_per_m=1e-10, frequency_hz=7e8)
        ch = Channel("dead", line=dead_line, length_um=5000)
        with pytest.raises(RuntimeError, match="never crossed"):
            measure_channel(ch)


class TestPhysicalDesignGuards:
    def test_impossible_floorplan_rejected(self, memory_netlist):
        with pytest.raises(ValueError):
            floorplan(memory_netlist, 100, 100)

    def test_timing_on_empty_comb_graph(self):
        # A flop-only netlist has no combinational arcs; STA must still
        # produce a (clk-to-q + setup limited) report.
        nl = Netlist("ff", N28_LIB)
        nl.add_instance("f1", "DFF_X1", "m")
        nl.add_instance("f2", "DFF_X1", "m")
        nl.add_net("q", "f1", ["f2"])
        fp = floorplan(nl, 200, 200)
        rep = analyze_timing(global_route(place(nl, fp)))
        assert rep.fmax_mhz > 1000  # essentially register-limited

    def test_thermal_zero_power_is_exact_ambient(self):
        g = ThermalGrid(6, 6, [1e-4, 1e-4], 1e-4, 1e-4, ambient_c=31.0)
        g.set_layer_k(0, 5.0)
        g.set_layer_k(1, 5.0)
        sol = g.solve()
        assert np.allclose(sol.temperature_c, 31.0, atol=1e-9)
