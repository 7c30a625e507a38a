"""Interchange formats: GDSII layout export, Touchstone S-parameters."""

from .drc import DrcReport, DrcViolation, check_cell
from .gdsii import (GdsCell, GdsLabel, GdsLibrary, GdsPath, GdsPolygon,
                    read_gds, write_gds)
from .layout import (cell_to_svg, chiplet_to_gds, export_design_gds,
                     interposer_to_gds)
from .touchstone import SParameterData, sample_two_port, write_touchstone

__all__ = [
    "DrcReport", "DrcViolation", "GdsCell", "GdsLabel", "GdsLibrary",
    "GdsPath", "GdsPolygon", "check_cell",
    "SParameterData", "cell_to_svg", "chiplet_to_gds",
    "export_design_gds", "interposer_to_gds", "read_gds",
    "sample_two_port", "write_gds", "write_touchstone",
]
