"""DRC engine tests."""

import pytest

from repro.io.drc import check_cell
from repro.io.gdsii import GdsCell, GdsPath
from repro.io.layout import LAYER_RDL0, interposer_to_gds
from repro.tech.interposer import GLASS_25D


def by_rule(report, rule):
    """Violations of one rule type."""
    return [v for v in report.violations if v.rule == rule]


def cell_with(paths):
    cell = GdsCell("t")
    cell.paths.extend(paths)
    return cell


class TestWidthRule:
    def test_wide_enough_passes(self):
        cell = cell_with([GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0)])
        assert check_cell(cell, GLASS_25D).clean

    def test_narrow_wire_flagged(self):
        cell = cell_with([GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 1.0)])
        report = check_cell(cell, GLASS_25D)
        assert not report.clean
        v = by_rule(report, "min_width")[0]
        assert v.measured_um == pytest.approx(1.0)
        assert v.required_um == pytest.approx(2.0)

    def test_non_rdl_layers_ignored(self):
        cell = cell_with([GdsPath(1, [(0, 0), (100, 0)], 0.1)])
        assert check_cell(cell, GLASS_25D).clean


class TestSpacingRule:
    def test_spaced_wires_pass(self):
        cell = cell_with([
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0),
            GdsPath(LAYER_RDL0, [(0, 10), (100, 10)], 2.0)])
        assert check_cell(cell, GLASS_25D).clean

    def test_close_wires_flagged(self):
        # Centre distance 3 um, widths 2 um -> edge gap 1 um < 2 um.
        cell = cell_with([
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0),
            GdsPath(LAYER_RDL0, [(0, 3), (100, 3)], 2.0)])
        report = check_cell(cell, GLASS_25D)
        v = by_rule(report, "min_spacing")
        assert v and v[0].measured_um == pytest.approx(1.0)

    def test_crossing_on_different_layers_ok(self):
        cell = cell_with([
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0),
            GdsPath(LAYER_RDL0 + 1, [(50, -50), (50, 50)], 2.0)])
        assert check_cell(cell, GLASS_25D).clean

    def test_same_polyline_exempt(self):
        # An L-bend's two segments touch; not a violation.
        cell = cell_with([GdsPath(LAYER_RDL0,
                                  [(0, 0), (50, 0), (50, 50)], 2.0)])
        assert check_cell(cell, GLASS_25D).clean

    def test_exact_overlap_treated_as_same_net(self):
        cell = cell_with([
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0),
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0)])
        assert check_cell(cell, GLASS_25D).clean

    def test_crossing_same_layer_flagged(self):
        cell = cell_with([
            GdsPath(LAYER_RDL0, [(0, 0), (100, 0)], 2.0),
            GdsPath(LAYER_RDL0, [(50, -50), (51, 50)], 2.0)])
        report = check_cell(cell, GLASS_25D)
        assert by_rule(report, "min_spacing")


class TestRoutedLayout:
    def test_router_output_spacing_violations_are_rare(self,
                                                       glass3d_design):
        """The maze router works on a 20 um grid with >= wire-pitch
        capacity, so its GDS export should be essentially DRC-clean for
        spacing (residual overflow cells may create a few)."""
        cell = interposer_to_gds(glass3d_design.route)
        report = check_cell(cell, glass3d_design.spec)
        assert report.checked_paths > 0
        assert len(by_rule(report, "min_width")) == 0
        assert len(by_rule(report, "min_spacing")) <= \
            0.1 * report.checked_pairs + 5
