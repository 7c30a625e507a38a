"""PDN impedance analysis tests (Table IV / Fig. 15)."""

import dataclasses

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.pi.impedance import (LOOP_SCALE, analyze_pdn_impedance,
                                build_pdn_circuit)
from repro.pi.transient import analyze_power_transient
from repro.tech.interposer import (APX, GLASS_25D, GLASS_3D, SHINKO,
                                   SILICON_25D)


def pdn_for(spec):
    lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
    mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
    return build_pdn(place_dies(spec, lp, mp))


@pytest.fixture(scope="module")
def reports():
    return {s.name: analyze_pdn_impedance(pdn_for(s))
            for s in (GLASS_25D, GLASS_3D, SILICON_25D, SHINKO, APX)}


class TestTable4Impedance:
    def test_glass3d_matches_paper(self, reports):
        assert reports["glass_3d"].z_at_1ghz_ohm == pytest.approx(
            0.97, rel=0.1)

    def test_glass25d_matches_paper(self, reports):
        assert reports["glass_25d"].z_at_1ghz_ohm == pytest.approx(
            20.7, rel=0.1)

    def test_silicon_matches_paper(self, reports):
        assert reports["silicon_25d"].z_at_1ghz_ohm == pytest.approx(
            7.4, rel=0.1)

    def test_organics_match_paper(self, reports):
        assert reports["shinko"].z_at_1ghz_ohm == pytest.approx(180,
                                                                rel=0.1)
        assert reports["apx"].z_at_1ghz_ohm == pytest.approx(58, rel=0.1)

    def test_full_ordering(self, reports):
        z = {k: v.z_at_1ghz_ohm for k, v in reports.items()}
        assert (z["glass_3d"] < z["silicon_25d"] < z["glass_25d"]
                < z["apx"] < z["shinko"])

    def test_10x_pi_claim(self, reports):
        ratio = (reports["silicon_25d"].z_at_1ghz_ohm
                 / reports["glass_3d"].z_at_1ghz_ohm)
        assert 5 < ratio < 12


class TestProfileShape:
    def test_sweep_covers_paper_range(self, reports):
        f = reports["glass_3d"].sweep.frequencies_hz
        assert f[0] == pytest.approx(1e6)
        assert f[-1] == pytest.approx(1e9)

    def test_low_frequency_is_low_impedance(self, reports):
        """Regulator side dominates at 1 MHz: milliohm territory."""
        for rep in reports.values():
            assert rep.sweep.magnitude()[0] < 1.0

    def test_inductive_rise_toward_1ghz(self, reports):
        mags = reports["shinko"].sweep.magnitude()
        assert mags[-1] > 10 * mags[0]

    def test_circuit_override_scale(self, monkeypatch):
        pdn = pdn_for(GLASS_3D)
        monkeypatch.setitem(LOOP_SCALE, GLASS_3D.name, 1.0)
        low = analyze_pdn_impedance(pdn)
        monkeypatch.setitem(LOOP_SCALE, GLASS_3D.name, 100.0)
        high = analyze_pdn_impedance(pdn)
        assert high.z_at_1ghz_ohm > low.z_at_1ghz_ohm

    def test_unregistered_spec_raises(self):
        """A spec the calibration does not name has no loop scale:
        every PDN analysis raises instead of running uncalibrated."""
        pdn = pdn_for(dataclasses.replace(GLASS_25D, name="custom_glass"))
        with pytest.raises(KeyError, match="custom_glass.*glass_25d"):
            analyze_pdn_impedance(pdn)
        with pytest.raises(KeyError, match="custom_glass"):
            analyze_power_transient(pdn, 0.376)

    def test_circuit_has_expected_elements(self):
        ckt = build_pdn_circuit(pdn_for(GLASS_25D))
        names = {r.name for r in ckt.resistors}
        assert {"Rfeed", "Resr", "Rpkg"} <= names
        assert len(ckt.inductors) == 2
        assert len(ckt.capacitors) == 1
