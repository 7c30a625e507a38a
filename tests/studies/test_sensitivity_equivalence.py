"""Equivalence of the sensitivity wrappers with the models they wrap.

The historical entry points (`sweep_bump_pitch`, `sweep_wire_width`,
`sweep_dielectric_thickness`) are now thin wrappers over the
design-space exploration runner; these tests pin them to the direct
stage-model computations they used to inline, value for value, and
cover `SweepResult.sensitivity` itself.
"""

import dataclasses

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.pi.impedance import analyze_pdn_impedance
from repro.si.channel import Channel, measure_channel
from repro.si.tline import line_for_spec
from repro.studies.sensitivity import (SweepPoint, SweepResult,
                                       sweep_bump_pitch,
                                       sweep_dielectric_thickness,
                                       sweep_wire_width)
from repro.tech.interposer import GLASS_25D, SILICON_25D


class TestBumpPitchEquivalence:
    def test_matches_direct_geometry(self):
        pitches = [25.0, 35.0, 50.0]
        sw = sweep_bump_pitch(GLASS_25D, pitches)
        assert sw.parameter == "microbump_pitch_um"
        assert sw.baseline == GLASS_25D.name
        assert sw.values() == pitches
        for pitch, point in zip(pitches, sw.points):
            spec = dataclasses.replace(GLASS_25D,
                                       microbump_pitch_um=pitch)
            lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
            mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
            placement = place_dies(spec, lp, mp)
            assert point.metrics["logic_die_mm"] == lp.width_mm
            assert point.metrics["memory_die_mm"] == mp.width_mm
            assert point.metrics["interposer_area_mm2"] \
                == placement.area_mm2


class TestWireWidthEquivalence:
    def test_matches_direct_link_model(self):
        widths = [0.4, 1.0, 2.0]
        length = 1500.0
        sw = sweep_wire_width(SILICON_25D, widths, length_um=length)
        for w, point in zip(widths, sw.points):
            spec = dataclasses.replace(SILICON_25D,
                                       min_wire_width_um=w,
                                       min_wire_space_um=w)
            line = line_for_spec(spec)
            rep = measure_channel(Channel("ref", line=line,
                                          length_um=length))
            assert point.metrics["delay_ps"] \
                == rep.interconnect_delay_ps
            assert point.metrics["power_uw"] \
                == rep.interconnect_power_uw
            assert point.metrics["r_ohm_per_mm"] == line.r_per_m * 1e-3


class TestDielectricEquivalence:
    def test_matches_direct_link_and_pdn_models(self):
        thicknesses = [5.0, 30.0]
        length = 1000.0
        sw = sweep_dielectric_thickness(GLASS_25D, thicknesses,
                                        length_um=length)
        for t, point in zip(thicknesses, sw.points):
            spec = dataclasses.replace(GLASS_25D,
                                       dielectric_thickness_um=t)
            line = line_for_spec(spec)
            rep = measure_channel(Channel("ref", line=line,
                                          length_um=length))
            lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
            mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
            pdn = build_pdn(place_dies(spec, lp, mp))
            z = analyze_pdn_impedance(pdn, points_per_decade=6)
            assert point.metrics["line_cap_ff_per_mm"] \
                == line.c_per_m * 1e12
            assert point.metrics["delay_ps"] \
                == rep.interconnect_delay_ps
            assert point.metrics["pdn_z_1ghz_ohm"] == z.z_at_1ghz_ohm


class TestWrapperBehaviour:
    def test_custom_base_spec_supported(self):
        # A sweep point is a request, and a request names a registered
        # design: an unregistered spec, or a registered name carrying
        # other values, is refused with the spec named.
        custom = dataclasses.replace(
            GLASS_25D, name="glass_25d_metal_thickness_um_6.0",
            metal_thickness_um=6.0)
        with pytest.raises(ValueError,
                           match="glass_25d_metal_thickness_um_6.0"):
            sweep_wire_width(custom, [2.0, 4.0], length_um=500)
        altered = dataclasses.replace(GLASS_25D, metal_thickness_um=6.0)
        with pytest.raises(ValueError, match="'glass_25d'"):
            sweep_wire_width(altered, [2.0, 4.0], length_um=500)
        sw = sweep_wire_width(dataclasses.replace(GLASS_25D), [2.0, 4.0],
                              length_um=500)
        assert sw.baseline == "glass_25d"

    def test_invalid_value_raises(self):
        with pytest.raises(RuntimeError, match="ValueError"):
            sweep_wire_width(GLASS_25D, [-1.0])


class TestSweepResultSensitivity:
    def result(self, values, metrics):
        return SweepResult(
            parameter="p", baseline="b",
            points=[SweepPoint(value=v, metrics={"m": m})
                    for v, m in zip(values, metrics)])

    def test_linear_metric_elasticity_one(self):
        sw = self.result([2.0, 3.0, 4.0], [20.0, 30.0, 40.0])
        assert sw.sensitivity("m") == pytest.approx(1.0)

    def test_quadratic_metric_elasticity(self):
        sw = self.result([1.0, 2.0], [1.0, 4.0])
        assert sw.sensitivity("m") == pytest.approx(3.0)  # (4-1)/1 / 1

    def test_degenerate_cases_zero(self):
        assert self.result([2.0, 2.0], [1.0, 9.0]).sensitivity("m") == 0.0
        assert self.result([1.0, 2.0], [0.0, 9.0]).sensitivity("m") == 0.0

    def test_series_and_values_accessors(self):
        sw = self.result([1.0, 2.0], [10.0, 20.0])
        assert sw.series("m") == [10.0, 20.0]
        assert sw.values() == [1.0, 2.0]
