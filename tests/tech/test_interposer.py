"""Unit tests for interposer specifications (paper Table I)."""

import pytest

from repro.tech.interposer import (ALL_SPECS, APX, GLASS_25D, GLASS_3D,
                                   INTERPOSER_SPECS, IntegrationStyle,
                                   RoutingStyle, SHINKO, SILICON_25D,
                                   SILICON_3D, get_spec, spec_names)


class TestTable1Values:
    def test_glass_metal_layers(self):
        assert GLASS_25D.metal_layers == 7
        assert GLASS_3D.metal_layers == 3

    def test_glass_wire_rules(self):
        assert GLASS_25D.min_wire_width_um == 2.0
        assert GLASS_25D.min_wire_space_um == 2.0

    def test_silicon_wire_rules(self):
        assert SILICON_25D.min_wire_width_um == pytest.approx(0.4)

    def test_apx_wire_rules(self):
        assert APX.min_wire_width_um == 6.0

    def test_bump_pitches(self):
        assert GLASS_25D.microbump_pitch_um == 35.0
        assert SILICON_25D.microbump_pitch_um == 40.0
        assert SHINKO.microbump_pitch_um == 40.0
        assert APX.microbump_pitch_um == 50.0

    def test_via_sizes(self):
        assert GLASS_25D.via_size_um == 22.0
        assert SILICON_25D.via_size_um == pytest.approx(0.7)
        assert SHINKO.via_size_um == 10.0
        assert APX.via_size_um == 32.0

    def test_metal_thickness(self):
        assert GLASS_25D.metal_thickness_um == 4.0
        assert SILICON_25D.metal_thickness_um == 1.0
        assert APX.metal_thickness_um == 6.0

    def test_dielectric_constants(self):
        assert GLASS_25D.dielectric.eps_r == pytest.approx(3.3)
        assert SILICON_25D.dielectric.eps_r == pytest.approx(3.9)
        assert SHINKO.dielectric.eps_r == pytest.approx(3.5)
        assert APX.dielectric.eps_r == pytest.approx(3.1)

    def test_glass_substrate_thickness_in_paper_range(self):
        # ENA1 glass panel: 150-160 um.
        assert 150 <= GLASS_25D.substrate_thickness_um <= 160


class TestStyles:
    def test_glass_3d_embeds(self):
        assert GLASS_3D.style is IntegrationStyle.EMBEDDED_STACK
        assert GLASS_3D.supports_embedding

    def test_silicon_3d_is_stack(self):
        assert SILICON_3D.style is IntegrationStyle.TSV_STACK

    def test_side_by_side_designs(self):
        for spec in (GLASS_25D, SILICON_25D, SHINKO, APX):
            assert spec.style is IntegrationStyle.SIDE_BY_SIDE

    def test_organics_route_diagonally(self):
        assert SHINKO.routing is RoutingStyle.DIAGONAL
        assert APX.routing is RoutingStyle.DIAGONAL

    def test_glass_silicon_route_manhattan(self):
        assert GLASS_25D.routing is RoutingStyle.MANHATTAN
        assert SILICON_25D.routing is RoutingStyle.MANHATTAN


class TestRegistry:
    def test_six_design_points(self):
        assert len(ALL_SPECS) == 6

    def test_interposer_subset_excludes_tsv_stack(self):
        assert SILICON_3D not in INTERPOSER_SPECS
        assert len(INTERPOSER_SPECS) == 5

    def test_get_spec_roundtrip(self):
        for name in spec_names():
            assert get_spec(name).name == name

    def test_get_spec_unknown_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="glass_3d"):
            get_spec("bogus")

    def test_get_spec_aliases(self):
        for alias in ("glass_2_5d", "glass-2.5d", "Glass_25D",
                      "GLASS-2.5D"):
            assert get_spec(alias) is GLASS_25D, alias
        assert get_spec("silicon-2.5d") is SILICON_25D
        assert get_spec("Glass_3D").name == "glass_3d"

    def test_get_spec_alias_unknown_still_raises(self):
        with pytest.raises(KeyError, match="valid"):
            get_spec("glass_4d")

    def test_all_specs_validate(self):
        for spec in ALL_SPECS:
            spec.validate()

    def test_wire_pitch(self):
        assert GLASS_25D.wire_pitch_um == pytest.approx(4.0)
        assert SILICON_25D.wire_pitch_um == pytest.approx(0.8)

    def test_silicon_has_densest_tracks(self):
        tracks = {s.name: 1000.0 / s.wire_pitch_um for s in ALL_SPECS}
        assert tracks["silicon_25d"] == max(tracks.values())

    def test_apx_has_coarsest_tracks(self):
        tracks = {s.name: 1000.0 / s.wire_pitch_um
                  for s in INTERPOSER_SPECS}
        assert tracks["apx"] == min(tracks.values())
