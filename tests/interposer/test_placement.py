"""Interposer die-placement tests (paper Fig. 10, Table IV footprints)."""

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.placement import place_dies
from repro.tech.interposer import (ALL_SPECS, APX, GLASS_25D, GLASS_3D,
                                   SHINKO, SILICON_25D, SILICON_3D)
from tests.oracles.placement import overlaps


def placed(spec):
    lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
    mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
    return place_dies(spec, lp, mp)


class TestArrangements:
    def test_four_dies_everywhere(self):
        for spec in ALL_SPECS:
            assert len(placed(spec).dies) == 4

    def test_no_overlaps(self):
        for spec in ALL_SPECS:
            assert not overlaps(placed(spec))

    def test_glass_3d_embeds_memory(self):
        pl = placed(GLASS_3D)
        assert pl.die(0, "memory").level == "embedded"
        assert pl.die(0, "logic").level == "top"

    def test_glass_3d_memory_under_logic(self):
        pl = placed(GLASS_3D)
        logic = pl.die(0, "logic")
        mem = pl.die(0, "memory")
        # Memory footprint inside the logic shadow.
        assert mem.x_mm >= logic.x_mm - 1e-9
        assert mem.x_mm + mem.width_mm <= logic.x_mm + logic.width_mm + 1e-9

    def test_25d_designs_all_top_level(self):
        for spec in (GLASS_25D, SILICON_25D, SHINKO, APX):
            assert all(d.level == "top" for d in placed(spec).dies)

    def test_silicon_3d_stacks(self):
        pl = placed(SILICON_3D)
        levels = sorted(d.level for d in pl.dies)
        assert levels == ["stack0", "stack1", "stack2", "stack3"]

    def test_silicon_3d_memory_at_base(self):
        pl = placed(SILICON_3D)
        base = [d for d in pl.dies if d.level == "stack0"][0]
        assert base.kind == "memory"


class TestFootprints:
    def test_glass_25d_near_paper(self):
        pl = placed(GLASS_25D)
        assert pl.width_mm == pytest.approx(2.2, abs=0.15)
        assert pl.height_mm == pytest.approx(2.2, abs=0.15)

    def test_glass_3d_near_paper(self):
        pl = placed(GLASS_3D)
        assert pl.width_mm == pytest.approx(1.84, abs=0.15)
        assert pl.height_mm == pytest.approx(1.02, abs=0.1)

    def test_glass_3d_smallest_interposer(self):
        areas = {s.name: placed(s).area_mm2
                 for s in (GLASS_25D, GLASS_3D, SILICON_25D, SHINKO, APX)}
        assert min(areas, key=areas.get) == "glass_3d"

    def test_apx_largest_interposer(self):
        areas = {s.name: placed(s).area_mm2
                 for s in (GLASS_25D, GLASS_3D, SILICON_25D, SHINKO, APX)}
        assert max(areas, key=areas.get) == "apx"

    def test_area_reduction_near_2_6x(self):
        # The abstract's 2.6X area claim.
        ratio = placed(GLASS_25D).area_mm2 / placed(GLASS_3D).area_mm2
        assert 2.0 < ratio < 3.3

    def test_silicon_3d_area_is_die_area(self):
        pl = placed(SILICON_3D)
        assert pl.area_mm2 == pytest.approx(0.94 ** 2, rel=0.05)


class TestApi:
    def test_die_lookup(self):
        pl = placed(GLASS_25D)
        assert pl.die(1, "logic").tile == 1
        with pytest.raises(KeyError):
            pl.die(5, "logic")

    def test_bump_position_transform(self):
        pl = placed(GLASS_25D)
        die = pl.die(0, "logic")
        x, y = die.bump_position_mm(100.0, 200.0)
        assert x == pytest.approx(die.x_mm + 0.1)
        assert y == pytest.approx(die.y_mm + 0.2)

    def test_zero_tiles_rejected(self):
        lp = plan_for_design(GLASS_25D, "logic")
        mp = plan_for_design(GLASS_25D, "memory")
        with pytest.raises(ValueError):
            place_dies(GLASS_25D, lp, mp, num_tiles=0)
