"""CTE-mismatch / warpage model tests."""

import pytest

from repro.tech.interposer import (APX, GLASS_25D, SHINKO, SILICON_25D)
from repro.thermal.warpage import analyze_warpage, substrate_properties


class TestSubstrateProperties:
    def test_silicon_matches_die(self):
        p = substrate_properties(SILICON_25D)
        assert p["cte_ppm"] == pytest.approx(2.6)

    def test_glass_near_die(self):
        p = substrate_properties(GLASS_25D)
        assert 3.0 < p["cte_ppm"] < 5.0

    def test_organics_far_from_die(self):
        for spec in (SHINKO, APX):
            assert substrate_properties(spec)["cte_ppm"] > 15.0


class TestWarpage:
    def test_silicon_is_near_zero(self):
        rep = analyze_warpage(SILICON_25D)
        assert rep.cte_mismatch_ppm == pytest.approx(0.0)
        assert rep.warpage_um < 1.0

    def test_glass_reliability_claim(self):
        """The paper's claim: glass's tunable CTE keeps warpage and
        joint strain far below the organics'."""
        reports = {s.name: analyze_warpage(s)
                   for s in (GLASS_25D, SHINKO, APX)}
        assert reports["glass_25d"].warpage_um < \
            reports["shinko"].warpage_um / 5
        assert reports["glass_25d"].dnp_shear_strain_pct < \
            reports["apx"].dnp_shear_strain_pct / 5

    def test_glass_within_jedec(self):
        assert analyze_warpage(GLASS_25D).warpage_um <= 100.0

    def test_warpage_quadratic_in_die_size(self):
        small = analyze_warpage(SHINKO, die_width_mm=1.0)
        big = analyze_warpage(SHINKO, die_width_mm=2.0)
        assert big.warpage_um == pytest.approx(4 * small.warpage_um,
                                               rel=1e-6)

    def test_warpage_linear_in_excursion(self):
        a = analyze_warpage(SHINKO, delta_t_k=100.0)
        b = analyze_warpage(SHINKO, delta_t_k=200.0)
        assert b.warpage_um == pytest.approx(2 * a.warpage_um, rel=1e-6)

    def test_shear_strain_grows_with_dnp(self):
        small = analyze_warpage(APX, die_width_mm=0.5)
        big = analyze_warpage(APX, die_width_mm=2.0)
        assert big.dnp_shear_strain_pct > small.dnp_shear_strain_pct

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_warpage(GLASS_25D, die_width_mm=0.0)

    def test_organic_strain_is_fatigue_relevant(self):
        # Organics at ~17-20 ppm/K put percent-level strain on corner
        # joints of a ~1 mm die — the regime underfill exists for.
        rep = analyze_warpage(APX)
        assert rep.dnp_shear_strain_pct > 0.3
