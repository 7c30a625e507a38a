"""Chiplet design-flow integration tests (reduced scale)."""

import pytest

from repro.chiplet.design import build_chiplet
from repro.tech.interposer import GLASS_25D


class TestBuildChiplet:
    def test_logic_row_fields(self, glass_logic_chiplet):
        row = glass_logic_chiplet.table3_row()
        expected = {"fmax_mhz", "footprint_mm", "cell_count",
                    "cell_utilization_pct", "wirelength_m",
                    "total_power_mw", "internal_mw", "switching_mw",
                    "leakage_mw", "pin_cap_pf", "wire_cap_pf",
                    "aib_area_um2", "aib_power_mw"}
        assert expected <= set(row)

    def test_footprint_from_bump_plan(self, glass_logic_chiplet):
        assert glass_logic_chiplet.footprint_mm == \
            glass_logic_chiplet.bump_plan.width_mm

    def test_logic_has_serdes(self, glass_logic_chiplet):
        serdes = [n for n in glass_logic_chiplet.netlist.instances
                  if n.startswith("serdes/")]
        assert serdes

    def test_memory_has_no_serdes(self, glass_memory_chiplet):
        serdes = [n for n in glass_memory_chiplet.netlist.instances
                  if n.startswith("serdes/")]
        assert not serdes

    def test_aib_area_matches_pin_counts(self, glass_logic_chiplet,
                                         glass_memory_chiplet):
        assert glass_logic_chiplet.aib_area_um2 == pytest.approx(
            22_507, rel=0.01)
        assert glass_memory_chiplet.aib_area_um2 == pytest.approx(
            17_388, rel=0.01)

    def test_silicon_die_bigger_than_glass(self, glass_logic_chiplet,
                                           silicon_logic_chiplet):
        assert silicon_logic_chiplet.footprint_mm > \
            glass_logic_chiplet.footprint_mm

    def test_glass_more_congested_than_silicon(self, glass_logic_chiplet,
                                               silicon_logic_chiplet):
        assert glass_logic_chiplet.route.track_utilization > \
            silicon_logic_chiplet.route.track_utilization

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            build_chiplet("analog", GLASS_25D, scale=0.01)

    def test_utilization_definition(self, glass_logic_chiplet):
        die_um2 = (glass_logic_chiplet.footprint_mm * 1000) ** 2
        expected = (glass_logic_chiplet.netlist.total_cell_area_um2()
                    / die_um2)
        assert glass_logic_chiplet.cell_utilization == pytest.approx(
            expected)
