"""IR-drop solver tests."""

import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.pi.irdrop import R_DIE_GRID_OHM, solve_plane_ir_drop
from repro.tech.interposer import APX, GLASS_25D, SILICON_25D

POWER = {"tile0_logic": 0.142, "tile0_memory": 0.046,
         "tile1_logic": 0.142, "tile1_memory": 0.046}


def setup(spec):
    lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
    mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
    pl = place_dies(spec, lp, mp)
    return pl, build_pdn(pl)


class TestIrDrop:
    def test_paper_magnitude(self):
        pl, pdn = setup(GLASS_25D)
        rep = solve_plane_ir_drop(pl, pdn, POWER)
        # Table IV: 17-27 mV across the designs.
        assert 10 < rep.worst_drop_mv < 35

    def test_silicon_worst(self):
        drops = {}
        for spec in (GLASS_25D, SILICON_25D, APX):
            pl, pdn = setup(spec)
            drops[spec.name] = solve_plane_ir_drop(
                pl, pdn, POWER).worst_drop_mv
        assert drops["silicon_25d"] == max(drops.values())
        assert drops["apx"] == min(drops.values())

    def test_drop_scales_with_power(self):
        pl, pdn = setup(GLASS_25D)
        base = solve_plane_ir_drop(pl, pdn, POWER)
        double = solve_plane_ir_drop(
            pl, pdn, {k: 2 * v for k, v in POWER.items()})
        assert double.worst_drop_mv == pytest.approx(
            2 * base.worst_drop_mv, rel=1e-6)

    def test_total_current(self):
        pl, pdn = setup(GLASS_25D)
        rep = solve_plane_ir_drop(pl, pdn, POWER)
        assert rep.total_current_a == pytest.approx(
            sum(POWER.values()) / 0.9)

    def test_worst_at_least_average(self):
        pl, pdn = setup(GLASS_25D)
        rep = solve_plane_ir_drop(pl, pdn, POWER)
        assert rep.worst_drop_mv >= rep.average_drop_mv

    def test_grid_shape_and_positivity(self):
        pl, pdn = setup(GLASS_25D)
        rep = solve_plane_ir_drop(pl, pdn, POWER, grid_n=20)
        assert rep.grid.shape == (20, 20)
        assert (rep.grid >= -1e-9).all()

    def test_missing_die_power_rejected(self):
        pl, pdn = setup(GLASS_25D)
        with pytest.raises(KeyError, match="tile1_memory"):
            solve_plane_ir_drop(pl, pdn, {"tile0_logic": 0.1})

    def test_coarse_grid_rejected(self):
        pl, pdn = setup(GLASS_25D)
        with pytest.raises(ValueError):
            solve_plane_ir_drop(pl, pdn, POWER, grid_n=2)

    def test_die_grid_floor(self):
        """With zero plane resistance contribution the die grid alone
        sets the floor: I_logic * R_die."""
        pl, pdn = setup(APX)  # thick metal: plane drop smallest
        rep = solve_plane_ir_drop(pl, pdn, POWER)
        floor = 0.142 / 0.9 * R_DIE_GRID_OHM * 1e3
        assert rep.worst_drop_mv >= floor
