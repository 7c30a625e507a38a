"""PDN stackup construction tests."""

from repro.chiplet.bumps import plan_for_design
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.tech.interposer import (APX, GLASS_25D, GLASS_3D, SHINKO,
                                   SILICON_25D)


def pdn_for(spec):
    lp = plan_for_design(spec, "logic", cell_area_um2=465_000)
    mp = plan_for_design(spec, "memory", cell_area_um2=485_000)
    return build_pdn(place_dies(spec, lp, mp))


class TestPdnGeometry:
    def test_glass3d_planes_closer_than_glass25d(self):
        depths = {s.name: pdn_for(s).feed_depth_um
                  for s in (GLASS_25D, GLASS_3D, SILICON_25D)}
        # Glass 3D has one signal layer above the planes vs five, and
        # silicon's 1 um dielectrics make it the shallowest of all.
        assert depths["glass_3d"] < depths["glass_25d"]
        assert depths["silicon_25d"] == min(depths.values())

    def test_organics_fed_through_core(self):
        assert pdn_for(SHINKO).core_feed_um > 0
        assert pdn_for(APX).core_feed_um > 0
        assert pdn_for(GLASS_25D).core_feed_um == 0

    def test_plane_area_tracks_interposer(self):
        assert pdn_for(APX).plane_area_mm2 > pdn_for(GLASS_3D).plane_area_mm2

    def test_silicon_has_thinnest_planes(self):
        assert pdn_for(SILICON_25D).metal_thickness_um == 1.0

    def test_via_count_positive(self):
        for spec in (GLASS_25D, GLASS_3D, SILICON_25D, SHINKO, APX):
            assert pdn_for(spec).n_feed_vias >= 8


class TestPdnElectrical:
    def test_loop_inductance_ordering(self):
        """Organics (core feed) > glass 2.5D (deep planes) > glass 3D."""
        l = {s.name: pdn_for(s).loop_inductance_h()
             for s in (GLASS_25D, GLASS_3D, SHINKO, APX)}
        assert l["shinko"] > l["glass_25d"] > l["glass_3d"]
        assert l["apx"] > l["glass_25d"]

    def test_plane_capacitance_positive(self):
        for spec in (GLASS_25D, SILICON_25D):
            assert pdn_for(spec).plane_capacitance_f() > 0

    def test_silicon_highest_plane_capacitance(self):
        c = {s.name: pdn_for(s).plane_capacitance_f()
             for s in (GLASS_25D, SILICON_25D, APX)}
        assert c["silicon_25d"] == max(c.values())

    def test_silicon_worst_sheet_resistance(self):
        r = {s.name: pdn_for(s).plane_sheet_resistance()
             for s in (GLASS_25D, SILICON_25D, SHINKO, APX)}
        assert r["silicon_25d"] == max(r.values())
        assert r["apx"] == min(r.values())

    def test_feed_via_override(self):
        lp = plan_for_design(GLASS_25D, "logic")
        mp = plan_for_design(GLASS_25D, "memory")
        pl = place_dies(GLASS_25D, lp, mp)
        pdn = build_pdn(pl, n_feed_vias=500)
        assert pdn.n_feed_vias == 500
        assert pdn.feed_resistance_ohm() < \
            build_pdn(pl, n_feed_vias=50).feed_resistance_ohm()
