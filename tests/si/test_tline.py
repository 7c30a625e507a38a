"""Transmission-line model tests."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, simulate
from repro.circuit.waveforms import step
from repro.si.tline import add_tline_ladder, line_for_spec, microstrip_rlgc
from repro.tech.interposer import APX, GLASS_25D, GLASS_3D, SILICON_25D


def characteristic_impedance(line) -> complex:
    """Z0 = sqrt((R + jwL) / (G + jwC)) at the analysis frequency."""
    w = 2 * math.pi * max(line.frequency_hz, 1.0)
    num = complex(line.r_per_m, w * line.l_per_m)
    den = complex(line.g_per_m, w * line.c_per_m)
    return (num / den) ** 0.5


class TestRlgcScaling:
    def test_wider_line_less_resistive(self):
        narrow = microstrip_rlgc(2, 4, 15, 3.3, 0.004)
        wide = microstrip_rlgc(6, 4, 15, 3.3, 0.004)
        assert wide.r_per_m == pytest.approx(narrow.r_per_m / 3, rel=0.05)

    def test_closer_plane_more_capacitance(self):
        near = microstrip_rlgc(2, 4, 4, 3.3, 0.004)
        far = microstrip_rlgc(2, 4, 40, 3.3, 0.004)
        assert near.c_per_m > far.c_per_m

    def test_lc_product_is_tem(self):
        line = microstrip_rlgc(2, 4, 15, 3.3, 0.004)
        c_light = 1 / math.sqrt(line.l_per_m * line.c_per_m)
        assert c_light == pytest.approx(299792458.0 / math.sqrt(3.3),
                                        rel=1e-9)

    def test_silicon_wires_most_resistive(self):
        r = {s.name: line_for_spec(s).r_per_m
             for s in (GLASS_25D, SILICON_25D, APX)}
        assert r["silicon_25d"] == max(r.values())
        assert r["apx"] == min(r.values())

    def test_silicon_r_50x_glass(self):
        # 0.4x1 um vs 2x4 um cross-section: 20x area ratio.
        ratio = (line_for_spec(SILICON_25D).r_per_m
                 / line_for_spec(GLASS_25D).r_per_m)
        assert 10 < ratio < 40

    def test_capacitance_per_mm_near_extraction(self):
        # Paper Table V powers imply ~45-65 fF/mm for all technologies.
        for spec in (GLASS_25D, GLASS_3D, SILICON_25D, APX):
            c_ff_mm = line_for_spec(spec).c_per_m * 1e15 * 1e-3
            assert 30 < c_ff_mm < 90, spec.name

    def test_glass_fastest_time_of_flight(self):
        lines = {s.name: line_for_spec(s)
                 for s in (GLASS_25D, SILICON_25D, APX)}
        tof = {name: math.sqrt(line.l_per_m * line.c_per_m)
               for name, line in lines.items()}
        assert tof["apx"] < tof["silicon_25d"]  # lowest Dk
        assert tof["glass_25d"] < tof["silicon_25d"]

    def test_validation(self):
        with pytest.raises(ValueError):
            microstrip_rlgc(0, 4, 15, 3.3, 0.004)
        with pytest.raises(ValueError):
            microstrip_rlgc(2, 4, 15, -1.0, 0.004)


class TestHelpers:
    def test_characteristic_impedance_plausible(self):
        z0 = characteristic_impedance(line_for_spec(GLASS_25D))
        assert 40 < abs(z0) < 250

    def test_totals(self):
        line = line_for_spec(GLASS_25D)
        assert line.total_capacitance_f(2e-3) == pytest.approx(
            2e-3 * line.c_per_m)


class TestLadder:
    def test_ladder_dc_transparent(self):
        line = line_for_spec(GLASS_25D)
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", 1.0)
        add_tline_ladder(ckt, "l", "in", "out", line, 1000.0)
        ckt.add_resistor("RL", "out", "0", 1e9)
        from repro.circuit import solve_dc
        assert solve_dc(ckt).voltage("out") == pytest.approx(1.0, rel=1e-5)

    def test_ladder_delay_matches_tof(self):
        """Transient through the ladder shows the telegrapher delay."""
        line = line_for_spec(GLASS_25D)
        length_um = 5000.0
        ckt = Circuit()
        z0 = abs(characteristic_impedance(line))
        ckt.add_vsource("V", "src", "0", step(1.0, rise_time=5e-12))
        ckt.add_resistor("Rs", "src", "in", z0)
        add_tline_ladder(ckt, "l", "in", "out", line, length_um,
                         segments=40)
        ckt.add_resistor("RL", "out", "0", z0)
        res = simulate(ckt, 3e-10, 2.5e-13)
        out = res.voltage("out")
        t_arrive = res.time[np.argmax(out > 0.25)]
        tof = math.sqrt(line.l_per_m * line.c_per_m) * length_um * 1e-6
        assert t_arrive == pytest.approx(tof, rel=0.4)

    def test_ladder_element_count(self):
        line = line_for_spec(GLASS_25D)
        ckt = Circuit()
        ckt.add_vsource("V", "in", "0", 1.0)
        add_tline_ladder(ckt, "l", "in", "out", line, 400.0, segments=8)
        assert len(ckt.inductors) == 8
        assert len(ckt.capacitors) == 8

    def test_ladder_validation(self):
        line = line_for_spec(GLASS_25D)
        ckt = Circuit()
        with pytest.raises(ValueError):
            add_tline_ladder(ckt, "l", "a", "b", line, 0.0)
        with pytest.raises(ValueError):
            add_tline_ladder(ckt, "l", "a", "b", line, 100.0, segments=0)
