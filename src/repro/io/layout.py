"""Layout export: flow results → GDSII / SVG.

The paper's flow ends in GDS layouts (its Figs. 7-9, 12 are renderings
of them).  This module assembles the reproduction's physical results —
chiplet floorplans with placed cells and bumps, and interposer die
placements with routed RDL nets — into :class:`~repro.io.gdsii.GdsLibrary`
objects and writes them as real GDSII (or quick-look SVG).

Layer map (GDSII layer numbers):

* 1  — die / floorplan outlines
* 2  — module regions
* 3  — standard cells (sampled at full netlist scale to keep files sane)
* 10 — signal micro-bumps
* 11 — P/G micro-bumps
* 20+k — interposer RDL signal layer k
* 40 — interposer outline
* 63 — labels
"""

from __future__ import annotations

from typing import List, Tuple

from ..chiplet.design import ChipletResult
from ..interposer.routing import InterposerRoute
from .gdsii import (GdsCell, GdsLabel, GdsLibrary, GdsPath, GdsPolygon,
                    write_gds)

LAYER_DIE = 1
LAYER_REGION = 2
LAYER_CELL = 3
LAYER_BUMP_SIGNAL = 10
LAYER_BUMP_PG = 11
LAYER_RDL0 = 20
LAYER_OUTLINE = 40
LAYER_LABEL = 63


def _rect(layer: int, x0: float, y0: float, x1: float,
          y1: float) -> GdsPolygon:
    return GdsPolygon(layer, [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def chiplet_to_gds(result: ChipletResult, max_cells: int = 4000) -> GdsCell:
    """Build a GDSII cell for one implemented chiplet.

    Args:
        result: Chiplet implementation result.
        max_cells: Cap on exported standard-cell rectangles (cells are
            subsampled uniformly above this; bumps and regions are always
            complete).
    """
    cell = GdsCell(name=f"{result.spec.name}_{result.kind}")
    fp = result.floorplan
    cell.polygons.append(_rect(LAYER_DIE, fp.die.x, fp.die.y,
                               fp.die.x + fp.die.w, fp.die.y + fp.die.h))
    for path, region in fp.regions.items():
        cell.polygons.append(_rect(LAYER_REGION, region.x, region.y,
                                   region.x + region.w,
                                   region.y + region.h))
        cell.labels.append(GdsLabel(LAYER_LABEL, region.center,
                                    path.split("/")[-1]))

    placement = result.placement
    names = list(placement.netlist.instances)
    step = max(1, len(names) // max_cells)
    for name in names[::step]:
        x, y = placement.position(name)
        area = placement.netlist.cell(name).area_um2
        half = max(0.3, (area ** 0.5) / 2.0)
        cell.polygons.append(_rect(LAYER_CELL, x - half, y - half,
                                   x + half, y + half))

    for bump in result.bump_plan.bumps:
        layer = (LAYER_BUMP_SIGNAL if bump.kind == "signal"
                 else LAYER_BUMP_PG)
        r = result.bump_plan.pitch_um / 4.0
        cell.polygons.append(_rect(layer, bump.x_um - r, bump.y_um - r,
                                   bump.x_um + r, bump.y_um + r))
    cell.labels.append(GdsLabel(
        LAYER_LABEL, (fp.die.w / 2, fp.die.h + 10.0), cell.name))
    return cell


def interposer_to_gds(route: InterposerRoute) -> GdsCell:
    """Build a GDSII cell for a routed interposer.

    RDL wires are exported as PATH elements at the technology's minimum
    wire width, one GDSII layer per signal layer; die outlines and labels
    are included.
    """
    placement = route.placement
    spec = placement.spec
    cell = GdsCell(name=f"{spec.name}_interposer")
    w_um = placement.width_mm * 1000.0
    h_um = placement.height_mm * 1000.0
    cell.polygons.append(_rect(LAYER_OUTLINE, 0, 0, w_um, h_um))

    for die in placement.dies:
        x0 = die.x_mm * 1000.0
        y0 = die.y_mm * 1000.0
        side = die.width_mm * 1000.0
        cell.polygons.append(_rect(LAYER_DIE, x0, y0, x0 + side,
                                   y0 + side))
        cell.labels.append(GdsLabel(LAYER_LABEL,
                                    (x0 + side / 2, y0 + side / 2),
                                    die.name))

    # Routed nets: grid path → polyline per layer segment.
    cell_um = 20.0  # router grid pitch (repro.interposer.routing.CELL_UM)
    for net in route.routed_nets():
        if not net.path:
            continue
        segment: List[Tuple[float, float]] = []
        seg_layer = net.path[0][0]
        for (l, gy, gx) in net.path:
            pt = (gx * cell_um + cell_um / 2, gy * cell_um + cell_um / 2)
            if l != seg_layer:
                if len(segment) >= 2:
                    cell.paths.append(GdsPath(LAYER_RDL0 + seg_layer,
                                              segment,
                                              spec.min_wire_width_um))
                segment = [pt]
                seg_layer = l
            else:
                segment.append(pt)
        if len(segment) >= 2:
            cell.paths.append(GdsPath(LAYER_RDL0 + seg_layer, segment,
                                      spec.min_wire_width_um))
    return cell


def export_design_gds(result, path: str, max_cells: int = 4000) -> GdsLibrary:
    """Export a full :class:`~repro.core.flow.DesignResult` to GDSII.

    Writes one library containing the logic chiplet, memory chiplet, and
    (for interposer designs) the routed interposer.

    Returns:
        The library that was written.
    """
    lib = GdsLibrary(name=result.spec.name.upper())
    lib.cells.append(chiplet_to_gds(result.logic, max_cells))
    lib.cells.append(chiplet_to_gds(result.memory, max_cells))
    if result.route is not None:
        lib.cells.append(interposer_to_gds(result.route))
    write_gds(lib, path)
    return lib


# --------------------------------------------------------------------- #
# SVG quick-look.
# --------------------------------------------------------------------- #

_SVG_COLORS = {
    LAYER_DIE: "#888888",
    LAYER_REGION: "#cccccc",
    LAYER_CELL: "#6699cc",
    LAYER_BUMP_SIGNAL: "#cc4444",
    LAYER_BUMP_PG: "#444444",
    LAYER_OUTLINE: "#222222",
}


def cell_to_svg(cell: GdsCell, path: str, scale: float = 0.2) -> None:
    """Render a GDSII cell to a standalone SVG file.

    Args:
        cell: The cell to render.
        path: Output .svg path.
        scale: SVG pixels per micron.
    """
    bbox = cell.bbox_um()
    if bbox is None:
        raise ValueError("cannot render an empty cell")
    x0, y0, x1, y1 = bbox
    w = (x1 - x0) * scale
    h = (y1 - y0) * scale

    def tx(x: float) -> float:
        return (x - x0) * scale

    def ty(y: float) -> float:
        return h - (y - y0) * scale  # flip: GDS y-up → SVG y-down

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.1f} {h:.1f}">']
    for poly in cell.polygons:
        color = _SVG_COLORS.get(poly.layer, "#44aa66")
        pts = " ".join(f"{tx(x):.1f},{ty(y):.1f}" for x, y in poly.points)
        parts.append(f'<polygon points="{pts}" fill="{color}" '
                     f'fill-opacity="0.5" stroke="{color}"/>')
    for p in cell.paths:
        color = _SVG_COLORS.get(p.layer, "#44aa66")
        pts = " ".join(f"{tx(x):.1f},{ty(y):.1f}" for x, y in p.points)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" '
                     f'stroke-width="{max(p.width_um * scale, 0.5):.2f}"/>')
    for label in cell.labels:
        parts.append(f'<text x="{tx(label.position[0]):.1f}" '
                     f'y="{ty(label.position[1]):.1f}" '
                     f'font-size="{max(8.0, 40 * scale):.0f}">'
                     f'{label.text}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
