"""Unit tests for TSV/TGV/micro-bump electrical models."""

import pytest

from repro.tech.interconnect3d import (LumpedRLC, cascade, microbump_model,
                                       stacked_via_model, tgv_model,
                                       tsv_model)


class TestTsv:
    def test_resistance_scales_inverse_area(self):
        r2 = tsv_model(diameter_um=2.0).resistance_ohm
        r4 = tsv_model(diameter_um=4.0).resistance_ohm
        assert r2 == pytest.approx(4 * r4, rel=0.15)

    def test_inductance_grows_with_height(self):
        l20 = tsv_model(height_um=20.0).inductance_h
        l100 = tsv_model(height_um=100.0, pitch_um=50).inductance_h
        assert l100 > 3 * l20

    def test_capacitance_dominated_by_liner(self):
        thin = tsv_model(liner_thickness_um=0.05).capacitance_f
        thick = tsv_model(liner_thickness_um=0.5).capacitance_f
        assert thin > thick  # thinner oxide -> larger C

    def test_has_substrate_loss(self):
        assert tsv_model().conductance_s > 0

    def test_pitch_must_exceed_diameter(self):
        with pytest.raises(ValueError):
            tsv_model(diameter_um=10.0, pitch_um=5.0)


class TestTgv:
    def test_tgv_capacitance_below_tsv(self):
        # The key glass advantage: no liner/substrate capacitance.  At
        # matched geometry glass couples far less than silicon.
        tsv = tsv_model(diameter_um=10.0, height_um=100.0, pitch_um=50.0)
        tgv = tgv_model(diameter_um=10.0, height_um=100.0, pitch_um=50.0)
        assert tgv.capacitance_f < tsv.capacitance_f

    def test_tgv_loss_below_tsv(self):
        tsv = tsv_model(diameter_um=10.0, height_um=100.0, pitch_um=50.0)
        tgv = tgv_model(diameter_um=10.0, height_um=100.0, pitch_um=50.0)
        assert tgv.conductance_s < tsv.conductance_s

    def test_default_geometry_is_paper_glass(self):
        tgv = tgv_model()
        assert tgv.resistance_ohm < 0.1  # fat 30 um barrel
        assert 1e-11 < tgv.inductance_h < 1e-10

    def test_pitch_check(self):
        with pytest.raises(ValueError):
            tgv_model(diameter_um=50.0, pitch_um=40.0)


class TestMicrobump:
    def test_bump_is_smallest_parasitic(self):
        bump = microbump_model()
        tsv = tsv_model(height_um=100.0, pitch_um=50.0)
        assert bump.inductance_h < tsv.inductance_h
        assert bump.capacitance_f < tsv.capacitance_f

    def test_solder_more_resistive_than_copper_geometry(self):
        bump = microbump_model(diameter_um=20.0, height_um=15.0)
        assert bump.resistance_ohm > 0


class TestStackedVia:
    def test_scales_with_levels(self):
        one = stacked_via_model(num_layers=1)
        three = stacked_via_model(num_layers=3)
        assert three.resistance_ohm == pytest.approx(
            3 * one.resistance_ohm)
        assert three.inductance_h == pytest.approx(3 * one.inductance_h)

    def test_rejects_zero_levels(self):
        with pytest.raises(ValueError):
            stacked_via_model(num_layers=0)

    def test_stacked_via_beats_long_lateral_route(self):
        # The Glass 3D story: a vertical stack has far less capacitance
        # than millimetres of RDL wire.
        sv = stacked_via_model()
        assert sv.capacitance_f < 50e-15


class TestCascade:
    def test_b2b_tsv_doubles_series(self):
        one = tsv_model()
        two = cascade(one, one)
        assert two.resistance_ohm == pytest.approx(2 * one.resistance_ohm)
        assert two.inductance_h == pytest.approx(2 * one.inductance_h)
        assert two.capacitance_f == pytest.approx(2 * one.capacitance_f)

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            cascade()

    def test_impedance_helpers(self):
        m = LumpedRLC(resistance_ohm=1.0, inductance_h=1e-9,
                      capacitance_f=1e-12, conductance_s=1e-6)
        z = m.series_impedance(1e9)
        y = m.shunt_admittance(1e9)
        assert z.real == pytest.approx(1.0)
        assert z.imag == pytest.approx(2 * 3.14159265 * 1e9 * 1e-9, rel=1e-3)
        assert y.real == pytest.approx(1e-6)
        assert y.imag > 0
