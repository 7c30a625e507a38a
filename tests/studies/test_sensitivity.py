"""Sensitivity-sweep machinery tests."""

import pytest

from repro.studies.sensitivity import (sweep_bump_pitch,
                                       sweep_dielectric_thickness,
                                       sweep_wire_width)
from repro.tech.interposer import GLASS_25D, SILICON_25D


class TestBumpPitchSweep:
    def test_area_grows_with_pitch(self):
        sw = sweep_bump_pitch(GLASS_25D, [25, 35, 50])
        areas = sw.series("interposer_area_mm2")
        assert areas[0] < areas[1] < areas[2]

    def test_memory_die_floors_at_cell_area(self):
        """Below some pitch the memory die is area-limited and stops
        shrinking — the Table II mechanism."""
        sw = sweep_bump_pitch(GLASS_25D, [18, 22, 50])
        mem = sw.series("memory_die_mm")
        assert mem[0] == pytest.approx(mem[1], rel=0.05)
        assert mem[2] > mem[1]

    def test_sensitivity_elasticity(self):
        sw = sweep_bump_pitch(GLASS_25D, [25, 50])
        e = sw.sensitivity("interposer_area_mm2")
        assert 0.2 < e < 2.0  # sub-quadratic: margins dilute the pitch


class TestWireWidthSweep:
    def test_resistance_falls_with_width(self):
        sw = sweep_wire_width(SILICON_25D, [0.4, 1.0, 2.0])
        r = sw.series("r_ohm_per_mm")
        assert r[0] > r[1] > r[2]

    def test_delay_falls_with_width(self):
        sw = sweep_wire_width(SILICON_25D, [0.4, 2.0], length_um=2000)
        d = sw.series("delay_ps")
        assert d[0] > d[1]


class TestDielectricSweep:
    def test_capacitance_falls_with_thickness(self):
        sw = sweep_dielectric_thickness(GLASS_25D, [5.0, 15.0, 30.0],
                                        length_um=1000)
        c = sw.series("line_cap_ff_per_mm")
        assert c[0] > c[1] > c[2]

    def test_pdn_worsens_with_thickness(self):
        """The SI/PI trade: thicker dielectric helps wires, hurts PDN."""
        sw = sweep_dielectric_thickness(GLASS_25D, [5.0, 30.0],
                                        length_um=1000)
        z = sw.series("pdn_z_1ghz_ohm")
        assert z[1] > z[0]

    def test_values_accessor(self):
        sw = sweep_dielectric_thickness(GLASS_25D, [10.0, 20.0],
                                        length_um=500)
        assert sw.values() == [10.0, 20.0]
        assert sw.parameter == "dielectric_thickness_um"
