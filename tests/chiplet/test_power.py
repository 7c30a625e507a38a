"""Power analysis tests."""

import pytest

from repro.chiplet.power import analyze_power, power_density_map


class TestPowerBreakdown:
    def test_components_sum(self, glass_logic_chiplet):
        p = glass_logic_chiplet.power
        assert p.total_mw == pytest.approx(
            p.internal_mw + p.switching_mw + p.leakage_mw)

    def test_power_scales_with_frequency(self, glass_logic_chiplet):
        rt = glass_logic_chiplet.route
        p350 = analyze_power(rt, frequency_mhz=350.0)
        p700 = analyze_power(rt, frequency_mhz=700.0)
        # Dynamic power doubles, leakage constant.
        assert p700.internal_mw == pytest.approx(2 * p350.internal_mw)
        assert p700.switching_mw == pytest.approx(2 * p350.switching_mw)
        assert p700.leakage_mw == pytest.approx(p350.leakage_mw)

    def test_leakage_matches_netlist(self, glass_logic_chiplet):
        assert glass_logic_chiplet.power.leakage_mw == pytest.approx(
            glass_logic_chiplet.netlist.total_leakage_mw())

    def test_caps_match_route(self, glass_logic_chiplet):
        p = glass_logic_chiplet.power
        rt = glass_logic_chiplet.route
        assert p.wire_cap_pf == pytest.approx(rt.total_wire_cap_pf())
        assert p.pin_cap_pf == pytest.approx(rt.total_pin_cap_pf())

    def test_breakdown_dict(self, glass_logic_chiplet):
        b = glass_logic_chiplet.power.breakdown()
        assert set(b) == {"internal", "switching", "leakage"}

    def test_invalid_frequency(self, glass_logic_chiplet):
        with pytest.raises(ValueError):
            analyze_power(glass_logic_chiplet.route, frequency_mhz=0.0)

    def test_lower_vdd_cuts_switching(self, glass_logic_chiplet):
        rt = glass_logic_chiplet.route
        hi = analyze_power(rt, vdd=0.9)
        lo = analyze_power(rt, vdd=0.45)
        assert lo.switching_mw == pytest.approx(hi.switching_mw / 4,
                                                rel=1e-6)


class TestPowerMap:
    def test_map_conserves_power(self, glass_logic_chiplet):
        p = glass_logic_chiplet.power
        grid = power_density_map(glass_logic_chiplet.route, p, bins=8)
        assert grid.sum() == pytest.approx(p.total_mw * 1e-3)

    def test_map_shape(self, glass_logic_chiplet):
        grid = power_density_map(glass_logic_chiplet.route,
                                 glass_logic_chiplet.power, bins=8)
        assert grid.shape == (8, 8)
        assert (grid >= 0).all()

    def test_map_nonuniform(self, glass_memory_chiplet):
        # The SRAM-dense L3 region should stand out.
        grid = power_density_map(glass_memory_chiplet.route,
                                 glass_memory_chiplet.power, bins=8)
        assert grid.max() > 1.5 * grid.mean()

    def test_bad_bins(self, glass_logic_chiplet):
        with pytest.raises(ValueError):
            power_density_map(glass_logic_chiplet.route,
                              glass_logic_chiplet.power, bins=0)
