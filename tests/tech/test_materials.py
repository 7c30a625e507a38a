"""Unit tests for material property models."""

import pytest

from repro.tech import materials as mat


class TestDielectrics:
    def test_glass_dk_matches_table1(self):
        assert mat.GLASS.eps_r == pytest.approx(3.3)

    def test_silicon_oxide_dk_matches_table1(self):
        assert mat.SILICON_OXIDE.eps_r == pytest.approx(3.9)

    def test_shinko_dk_matches_table1(self):
        assert mat.ORGANIC_SHINKO.eps_r == pytest.approx(3.5)

    def test_apx_dk_matches_table1(self):
        assert mat.ORGANIC_APX.eps_r == pytest.approx(3.1)

    def test_glass_is_thermal_insulator_vs_silicon(self):
        assert mat.GLASS.thermal_k < mat.SILICON_BULK.thermal_k / 50

    def test_organics_worse_thermal_than_glass(self):
        assert mat.ORGANIC_SHINKO.thermal_k < mat.GLASS.thermal_k
        assert mat.ORGANIC_APX.thermal_k < mat.GLASS.thermal_k

    def test_permittivity_scales_eps0(self):
        assert mat.GLASS.permittivity() == pytest.approx(
            mat.EPS0 * 3.3)

    def test_registry_contains_all_keys(self):
        for key in ("glass", "silicon", "silicon_bulk", "shinko", "apx"):
            assert key in mat.DIELECTRICS

    def test_loss_tangent_positive(self):
        for d in mat.DIELECTRICS.values():
            assert d.loss_tangent > 0


class TestConductor:
    def test_sheet_resistance_inverse_thickness(self):
        r1 = mat.RDL_COPPER.sheet_resistance(1.0)
        r4 = mat.RDL_COPPER.sheet_resistance(4.0)
        assert r1 == pytest.approx(4 * r4)

    def test_sheet_resistance_value(self):
        # 4 um copper: 1.72e-8 / 4e-6 = 4.3 mOhm/sq.
        assert mat.RDL_COPPER.sheet_resistance(4.0) == pytest.approx(
            4.3e-3, rel=1e-3)

    def test_sheet_resistance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mat.RDL_COPPER.sheet_resistance(0)


class TestSkinEffect:
    def test_skin_depth_1ghz_copper(self):
        # Classic value: ~2.1 um at 1 GHz.
        assert mat.skin_depth(1e9) == pytest.approx(2.09e-6, rel=0.02)

    def test_skin_depth_decreases_with_frequency(self):
        assert mat.skin_depth(1e9) < mat.skin_depth(1e8)

    def test_skin_depth_rejects_zero(self):
        with pytest.raises(ValueError):
            mat.skin_depth(0)

    def test_dc_resistance_matches_bulk(self):
        r = mat.effective_resistance_per_m(2.0, 4.0, 0.0)
        assert r == pytest.approx(mat.COPPER_RESISTIVITY / 8e-12)

    def test_low_frequency_equals_dc(self):
        r_dc = mat.effective_resistance_per_m(2.0, 4.0, 0.0)
        r_lo = mat.effective_resistance_per_m(2.0, 4.0, 1e6)
        assert r_lo == pytest.approx(r_dc)

    def test_high_frequency_exceeds_dc(self):
        r_dc = mat.effective_resistance_per_m(20.0, 20.0, 0.0)
        r_hi = mat.effective_resistance_per_m(20.0, 20.0, 10e9)
        assert r_hi > r_dc

    def test_ac_resistance_monotone_in_frequency(self):
        rs = [mat.effective_resistance_per_m(20.0, 20.0, f)
              for f in (1e8, 1e9, 1e10)]
        assert rs[0] <= rs[1] <= rs[2]
