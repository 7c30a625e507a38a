"""Packaging cost/yield model tests."""

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.cost.model import (GLASS_PANEL, ORGANIC_PANEL, SILICON_WAFER,
                              economics_for, interconnect_yield,
                              package_cost, units_per_format)
from repro.interposer.placement import place_dies
from repro.tech.interposer import ALL_SPECS, GLASS_25D, SILICON_25D, get_spec


def placement_for(name):
    spec = get_spec(name)
    lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
    mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
    return place_dies(spec, lp, mp)


class TestYieldModel:
    def test_zero_defects_is_unity(self):
        assert interconnect_yield(100.0, 0.0) == 1.0

    def test_yield_decreases_with_area(self):
        assert interconnect_yield(10.0, 0.3) > interconnect_yield(
            100.0, 0.3)

    def test_yield_decreases_with_defect_density(self):
        assert interconnect_yield(50.0, 0.1) > interconnect_yield(
            50.0, 0.5)

    def test_yield_in_unit_interval(self):
        for area in (1.0, 10.0, 1000.0):
            y = interconnect_yield(area, 0.4)
            assert 0.0 < y <= 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            interconnect_yield(-1.0, 0.1)


class TestUnitsPerFormat:
    def test_panel_beats_wafer_for_equal_unit(self):
        panel = units_per_format(2.2, 2.2, GLASS_PANEL)
        wafer = units_per_format(2.2, 2.2, SILICON_WAFER)
        assert panel > 2 * wafer

    def test_bigger_units_fewer_sites(self):
        small = units_per_format(2.0, 2.0, GLASS_PANEL)
        big = units_per_format(4.0, 4.0, GLASS_PANEL)
        assert small > big

    def test_validation(self):
        with pytest.raises(ValueError):
            units_per_format(0.0, 2.0, GLASS_PANEL)


class TestPackageCost:
    def test_glass_interposer_cheaper_than_silicon(self):
        """The paper's core economic claim, quantified."""
        glass = package_cost(placement_for("glass_25d"))
        silicon = package_cost(placement_for("silicon_25d"))
        assert glass.interposer_cost < silicon.interposer_cost / 2

    def test_tsv_stack_most_expensive_package(self):
        costs = {name: package_cost(placement_for(name))
                 .cost_per_good_system
                 for name in ("glass_25d", "glass_3d", "silicon_25d",
                              "silicon_3d")}
        assert costs["silicon_3d"] == max(costs.values())

    def test_glass_3d_between_25d_and_tsv_stack(self):
        """'Cost-effective 3D stacking': pricier than 2.5D assembly,
        far cheaper than TSV stacking."""
        g3 = package_cost(placement_for("glass_3d")).cost_per_good_system
        g25 = package_cost(placement_for("glass_25d")) \
            .cost_per_good_system
        si3 = package_cost(placement_for("silicon_3d")) \
            .cost_per_good_system
        assert g25 < g3 < si3

    def test_embedding_adds_assembly_cost(self):
        g3 = package_cost(placement_for("glass_3d"))
        g25 = package_cost(placement_for("glass_25d"))
        assert g3.assembly_cost > g25.assembly_cost

    def test_tsv_stack_has_no_interposer(self):
        rep = package_cost(placement_for("silicon_3d"))
        assert rep.interposer_cost == 0.0
        assert rep.units_per_format == 0

    def test_economics_lookup(self):
        assert economics_for(GLASS_25D) is GLASS_PANEL
        assert economics_for(SILICON_25D) is SILICON_WAFER
        assert economics_for(get_spec("apx")) is ORGANIC_PANEL

    def test_cost_exceeds_raw_by_yield(self):
        rep = package_cost(placement_for("apx"))
        raw = rep.interposer_cost + rep.assembly_cost
        assert rep.cost_per_good_system > raw

    def test_all_designs_computable(self):
        for spec in ALL_SPECS:
            rep = package_cost(placement_for(spec.name))
            assert rep.cost_per_good_system > 0
