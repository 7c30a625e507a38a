"""Chiplet floorplanning: die outline and per-module placement regions.

Given a die size (from the bump plan) and the module areas of a netlist,
the floorplanner assigns each module a rectangular region via recursive
area-proportional slicing — the same structure a hierarchical physical
design flow would produce.  The placer then fills each region in
generation-index order, preserving the netlist's built-in locality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..arch.netlist import Netlist, sequential_sum


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in microns (lower-left origin).

    Attributes:
        x: Lower-left x.
        y: Lower-left y.
        w: Width.
        h: Height.
    """

    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.w * self.h

    @property
    def center(self) -> Tuple[float, float]:
        """Rectangle centre (x, y)."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def contains(self, px: float, py: float, tol: float = 1e-6) -> bool:
        """Whether a point lies inside (with tolerance)."""
        return (self.x - tol <= px <= self.x + self.w + tol
                and self.y - tol <= py <= self.y + self.h + tol)


@dataclass
class Floorplan:
    """A floorplanned die.

    Attributes:
        die: Full die outline.
        core: Core (placeable) area inside the I/O margin.
        regions: module path → placement region.
        utilization: total cell area / core area.
    """

    die: Rect
    core: Rect
    regions: Dict[str, Rect]
    utilization: float

    def region_of(self, module_path: str) -> Rect:
        """Placement region of a module path."""
        try:
            return self.regions[module_path]
        except KeyError:
            raise KeyError(f"module {module_path!r} has no region; known: "
                           f"{sorted(self.regions)}")


def floorplan(netlist: Netlist, width_um: float, height_um: float,
              core_margin_um: float = 20.0) -> Floorplan:
    """Slice the core area into per-module regions proportional to area.

    Modules are sorted by area (largest first) and recursively split off
    the current region along its longer axis, which keeps region aspect
    ratios reasonable.

    Args:
        netlist: The chiplet netlist (module areas come from its cells).
        width_um: Die width.
        height_um: Die height.
        core_margin_um: Margin between die edge and placeable core.

    Raises:
        ValueError: If total cell area exceeds the core area.
    """
    if width_um <= 2 * core_margin_um or height_um <= 2 * core_margin_um:
        raise ValueError("die too small for the core margin")
    die = Rect(0.0, 0.0, width_um, height_um)
    core = Rect(core_margin_um, core_margin_um,
                width_um - 2 * core_margin_um,
                height_um - 2 * core_margin_um)

    # Each module's area is added in instance order, and the modules
    # are listed in order of first appearance.
    view = netlist.arrays()
    areas = np.bincount(view.module, weights=view.cell_attr("area_um2"),
                        minlength=len(view.modules))
    module_area = dict(zip(view.modules, areas.tolist()))
    total = float(sequential_sum(areas))
    if total > core.area:
        raise ValueError(f"cell area {total:.0f} um^2 exceeds core "
                         f"{core.area:.0f} um^2 (utilization > 100%)")
    utilization = total / core.area

    regions: Dict[str, Rect] = {}
    order = sorted(module_area, key=lambda m: module_area[m], reverse=True)
    _slice(core, order, module_area, regions)
    return Floorplan(die=die, core=core, regions=regions,
                     utilization=utilization)


def arrange_outlines(widths: Sequence[float], arrangement: str,
                     gap: float, margin: float) -> List[Rect]:
    """Pack ``len(widths)`` square die outlines in a lateral arrangement.

    Unit-agnostic (mm in the interposer placer, um in tests): outputs
    are in the same unit as the inputs.  Supported arrangements are the
    lateral ones — ``row`` (one strip, bottom-aligned), ``grid``
    (row-major near-square array), and ``hexagonal`` (sites on a
    HexaMesh-style hex spiral).  Grid and hex use a uniform site pitch
    of ``max(widths) + gap`` with each die centered in its site, so
    heterogeneous die sizes never collide.  The bounding box of the
    outlines is shifted so its lower-left corner sits at
    ``(margin, margin)``.

    Args:
        widths: Side length of each (square) die outline.
        arrangement: ``"row"``, ``"grid"``, or ``"hexagonal"``.
        gap: Minimum edge-to-edge spacing between dies.
        margin: Clearance between the outline cluster and the origin.

    Returns:
        One :class:`Rect` per die, in input order.

    Raises:
        ValueError: On an empty list or a non-lateral arrangement.
    """
    if not widths:
        raise ValueError("need at least one die outline")
    n = len(widths)
    pitch = max(widths) + gap
    if arrangement == "row":
        rects = []
        x = 0.0
        for w in widths:
            rects.append(Rect(x, 0.0, w, w))
            x += w + gap
    elif arrangement == "grid":
        cols = int(math.ceil(math.sqrt(n)))
        rects = []
        for i, w in enumerate(widths):
            col, row = i % cols, i // cols
            off = (pitch - gap - w) / 2.0
            rects.append(Rect(col * pitch + off, row * pitch + off, w, w))
    elif arrangement == "hexagonal":
        from .place import hex_spiral  # local: place imports floorplan
        coords = hex_spiral(n)
        rects = []
        for (q, r), w in zip(coords, widths):
            cx = pitch * (q + r / 2.0)
            cy = pitch * (r * math.sqrt(3.0) / 2.0)
            rects.append(Rect(cx - w / 2.0, cy - w / 2.0, w, w))
    else:
        raise ValueError(f"arrangement {arrangement!r} is not a lateral "
                         f"packing (expected row, grid, or hexagonal)")
    min_x = min(r.x for r in rects)
    min_y = min(r.y for r in rects)
    return [Rect(r.x - min_x + margin, r.y - min_y + margin, r.w, r.h)
            for r in rects]


def _slice(region: Rect, modules: List[str], areas: Dict[str, float],
           out: Dict[str, Rect]) -> None:
    """Recursively split ``region`` among ``modules`` by area share."""
    if not modules:
        return
    if len(modules) == 1:
        out[modules[0]] = region
        return
    # Split the list into two halves with balanced area.
    total = sum(areas[m] for m in modules)
    acc = 0.0
    split = 1
    for i, m in enumerate(modules):
        acc += areas[m]
        if acc >= total / 2.0 and i + 1 < len(modules):
            split = i + 1
            break
    else:
        split = max(1, len(modules) // 2)
    left, right = modules[:split], modules[split:]
    frac = sum(areas[m] for m in left) / total
    if region.w >= region.h:
        w1 = region.w * frac
        r1 = Rect(region.x, region.y, w1, region.h)
        r2 = Rect(region.x + w1, region.y, region.w - w1, region.h)
    else:
        h1 = region.h * frac
        r1 = Rect(region.x, region.y, region.w, h1)
        r2 = Rect(region.x, region.y + h1, region.w, region.h - h1)
    _slice(r1, left, areas, out)
    _slice(r2, right, areas, out)
