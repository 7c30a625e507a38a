"""Bump planner tests (paper Table II)."""

import pytest

from repro.chiplet.bumps import plan_bumps, plan_for_design
from repro.tech.interposer import (ALL_SPECS, APX, GLASS_25D, GLASS_3D,
                                   SHINKO, SILICON_25D, SILICON_3D)


class TestTable2:
    def test_logic_pg_counts(self):
        # Table II: 165 P/G for everything but APX's 150.
        for spec in (GLASS_25D, GLASS_3D, SILICON_25D, SILICON_3D, SHINKO):
            assert plan_for_design(spec, "logic").pg_bumps == 165
        assert plan_for_design(APX, "logic").pg_bumps == 150

    def test_logic_footprints(self):
        widths = {s.name: plan_for_design(s, "logic").width_mm
                  for s in ALL_SPECS}
        assert widths["glass_25d"] == pytest.approx(0.82, abs=0.01)
        assert widths["silicon_25d"] == pytest.approx(0.94, abs=0.01)
        assert widths["shinko"] == pytest.approx(0.94, abs=0.01)
        assert widths["apx"] == pytest.approx(1.15, abs=0.05)

    def test_glass_has_smallest_logic_die(self):
        widths = {s.name: plan_for_design(s, "logic").width_mm
                  for s in ALL_SPECS}
        assert min(widths, key=widths.get).startswith("glass")

    def test_apx_has_largest_logic_die(self):
        widths = {s.name: plan_for_design(s, "logic").width_mm
                  for s in ALL_SPECS}
        assert max(widths, key=widths.get) == "apx"

    def test_glass3d_memory_matches_logic(self):
        lp = plan_for_design(GLASS_3D, "logic")
        mp = plan_for_design(GLASS_3D, "memory")
        assert mp.width_mm == pytest.approx(lp.width_mm)
        assert mp.pg_bumps == 121  # Table II stacked-memory P/G

    def test_silicon3d_memory_matches_logic_exactly(self):
        lp = plan_for_design(SILICON_3D, "logic")
        mp = plan_for_design(SILICON_3D, "memory")
        assert mp.width_mm == pytest.approx(lp.width_mm)
        assert mp.pg_bumps == lp.pg_bumps == 165

    def test_memory_area_constraint_binds_on_glass(self):
        # The dense memory die is area-limited on glass 2.5D.
        free = plan_for_design(GLASS_25D, "memory")
        constrained = plan_for_design(GLASS_25D, "memory",
                                      cell_area_um2=485_000)
        assert constrained.width_mm >= free.width_mm


class TestPlanGeometry:
    def test_bumps_match_counts(self):
        plan = plan_bumps(100, GLASS_25D)
        assert len(plan.bumps) == plan.signal_bumps + plan.pg_bumps
        kinds = [b.kind for b in plan.bumps]
        assert kinds.count("signal") == 100

    def test_power_ground_alternate(self):
        plan = plan_bumps(60, GLASS_25D)
        pg = [b for b in plan.bumps if b.kind != "signal"]
        assert abs(sum(1 for b in pg if b.kind == "power")
                   - sum(1 for b in pg if b.kind == "ground")) <= 1

    def test_bumps_inside_die(self):
        plan = plan_bumps(299, GLASS_25D)
        w_um = plan.width_mm * 1000
        for b in plan.bumps:
            assert 0 < b.x_um < w_um
            assert 0 < b.y_um < w_um

    def test_bumps_on_pitch_grid(self):
        plan = plan_bumps(64, SILICON_25D)
        xs = sorted({b.x_um for b in plan.bumps})
        for a, b in zip(xs, xs[1:]):
            assert (b - a) % plan.pitch_um == pytest.approx(
                0.0, abs=1e-6)

    def test_signal_positions_accessor(self):
        plan = plan_bumps(50, GLASS_25D)
        assert len(plan.signal_positions()) == 50
        assert sum(b.kind != "signal" for b in plan.bumps) == plan.pg_bumps

    def test_area(self):
        plan = plan_bumps(299, GLASS_25D)
        assert plan.area_mm2 == pytest.approx(plan.width_mm ** 2)

    def test_pg_count_override(self):
        plan = plan_bumps(100, GLASS_25D, pg_count=42)
        assert plan.pg_bumps == 42

    def test_min_width_respected(self):
        plan = plan_bumps(50, GLASS_25D, min_width_mm=1.5)
        assert plan.width_mm >= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_bumps(0, GLASS_25D)
        with pytest.raises(ValueError):
            plan_bumps(10, GLASS_25D, max_utilization=0.0)
        with pytest.raises(ValueError):
            plan_for_design(GLASS_25D, "analog")
