"""Layout export tests (chiplet/interposer → GDSII/SVG)."""

import os

import pytest

from repro.io.gdsii import read_gds
from repro.io.layout import (LAYER_BUMP_PG, LAYER_BUMP_SIGNAL, LAYER_CELL,
                             LAYER_DIE, LAYER_RDL0, cell_to_svg,
                             chiplet_to_gds, export_design_gds,
                             interposer_to_gds)


class TestChipletExport:
    def test_cell_contents(self, glass_logic_chiplet):
        cell = chiplet_to_gds(glass_logic_chiplet, max_cells=500)
        layers = {p.layer for p in cell.polygons}
        assert {LAYER_DIE, LAYER_CELL, LAYER_BUMP_SIGNAL,
                LAYER_BUMP_PG} <= layers

    def test_all_bumps_exported(self, glass_logic_chiplet):
        cell = chiplet_to_gds(glass_logic_chiplet, max_cells=100)
        bumps = [p for p in cell.polygons
                 if p.layer in (LAYER_BUMP_SIGNAL, LAYER_BUMP_PG)]
        plan = glass_logic_chiplet.bump_plan
        assert len(bumps) == plan.signal_bumps + plan.pg_bumps

    def test_cell_cap_respected(self, glass_logic_chiplet):
        cell = chiplet_to_gds(glass_logic_chiplet, max_cells=200)
        std = [p for p in cell.polygons if p.layer == LAYER_CELL]
        assert len(std) <= 2 * 200

    def test_geometry_within_die(self, glass_memory_chiplet):
        cell = chiplet_to_gds(glass_memory_chiplet)
        die_w = glass_memory_chiplet.floorplan.die.w
        x0, y0, x1, y1 = cell.bbox_um()
        assert x1 <= die_w + 1.0
        assert x0 >= -1.0


class TestInterposerExport:
    def test_rdl_paths_exported(self, glass3d_design):
        cell = interposer_to_gds(glass3d_design.route)
        rdl = [p for p in cell.paths if p.layer >= LAYER_RDL0]
        assert len(rdl) >= len(glass3d_design.route.routed_nets())

    def test_die_outlines_and_labels(self, glass3d_design):
        cell = interposer_to_gds(glass3d_design.route)
        dies = [p for p in cell.polygons if p.layer == LAYER_DIE]
        assert len(dies) == 4
        names = {l.text for l in cell.labels}
        assert "tile0_memory" in names


class TestFileExports:
    def test_design_gds_roundtrip(self, glass3d_design, tmp_path):
        path = str(tmp_path / "glass3d.gds")
        lib = export_design_gds(glass3d_design, path, max_cells=300)
        assert os.path.getsize(path) > 1000
        back = read_gds(path)
        assert {c.name for c in back.cells} == \
            {c.name for c in lib.cells}
        assert len(back.cells) == 3

    def test_svg_render(self, glass_memory_chiplet, tmp_path):
        cell = chiplet_to_gds(glass_memory_chiplet, max_cells=100)
        path = str(tmp_path / "mem.svg")
        cell_to_svg(cell, path)
        content = open(path).read()
        assert content.startswith("<svg")
        assert "polygon" in content

    def test_svg_empty_cell_rejected(self, tmp_path):
        from repro.io.gdsii import GdsCell
        with pytest.raises(ValueError):
            cell_to_svg(GdsCell("E"), str(tmp_path / "e.svg"))
