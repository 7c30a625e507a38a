"""Interposer-level die placement (paper Fig. 10).

Four chiplets (two tiles x logic/memory) are arranged per technology:

* **2.5D technologies** (glass 2.5D, silicon 2.5D, Shinko, APX): memory
  left of logic in each tile, the tiles' rows stacked so the two logic
  dies sit one above the other across the inter-tile channel (the NoC
  routers that talk to each other live in the logic chiplets).
* **Glass 3D**: each memory die is embedded in the glass cavity directly
  beneath its logic die; only the two logic/memory *stacks* sit side by
  side, shrinking the footprint to 1.84 x 1.02 mm.
* **Silicon 3D** has no interposer: the four dies stack vertically
  (handled by :mod:`repro.tech.interconnect3d`); its "placement" is a
  single stack column and is included here for footprint accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..chiplet.bumps import BumpPlan
from ..chiplet.floorplan import arrange_outlines
from ..tech.interposer import IntegrationStyle, InterposerSpec

#: Edge margin (mm) around the die field for C4/TGV rings on 2.5D designs.
EDGE_MARGIN_25D_MM = 0.25

#: Edge margin for the embedded-die glass 3D design (power comes up
#: through TGVs under the stacks, so only a thin seal ring is needed).
EDGE_MARGIN_3D_MM = 0.10


@dataclass(frozen=True)
class PlacedDie:
    """One chiplet instance placed on (or in) the interposer.

    Attributes:
        name: Instance name, e.g. ``"tile0_logic"``.
        tile: Tile index.
        kind: ``"logic"`` or ``"memory"``.
        x_mm: Lower-left x of the die on the interposer.
        y_mm: Lower-left y.
        width_mm: Die edge length.
        level: ``"top"`` for flip-chip dies, ``"embedded"`` for dies in a
            glass cavity, ``"stack<k>"`` for TSV-stack tiers.
    """

    name: str
    tile: int
    kind: str
    x_mm: float
    y_mm: float
    width_mm: float
    level: str

    @property
    def center(self) -> Tuple[float, float]:
        """Centre (x, y) of the die in millimetres."""
        return (self.x_mm + self.width_mm / 2.0,
                self.y_mm + self.width_mm / 2.0)

    def bump_position_mm(self, bump_x_um: float,
                         bump_y_um: float) -> Tuple[float, float]:
        """Interposer coordinates of a die-local bump position."""
        return (self.x_mm + bump_x_um / 1000.0,
                self.y_mm + bump_y_um / 1000.0)


@dataclass
class InterposerPlacement:
    """Die arrangement plus interposer outline.

    Attributes:
        spec: Technology.
        dies: Placed dies.
        width_mm: Interposer outline width.
        height_mm: Interposer outline height.
    """

    spec: InterposerSpec
    dies: List[PlacedDie]
    width_mm: float
    height_mm: float

    @property
    def area_mm2(self) -> float:
        """Interposer outline area in square millimetres."""
        return self.width_mm * self.height_mm

    def die(self, tile: int, kind: str) -> PlacedDie:
        """Look up a placed die by (tile, kind)."""
        for d in self.dies:
            if d.tile == tile and d.kind == kind:
                return d
        raise KeyError(f"no die tile{tile}/{kind}")

    def die_by_name(self, name: str) -> PlacedDie:
        """Look up a placed die by its instance name."""
        for d in self.dies:
            if d.name == name:
                return d
        raise KeyError(f"no die named {name!r}")


def place_dies(spec: InterposerSpec, logic_plan: BumpPlan,
               memory_plan: BumpPlan, num_tiles: int = 2) -> InterposerPlacement:
    """Arrange the chiplets on the interposer per the technology style.

    Args:
        spec: Interposer technology.
        logic_plan: Bump plan (die size) of the logic chiplet.
        memory_plan: Bump plan of the memory chiplet.
        num_tiles: Tiles in the system (the paper uses 2).

    Returns:
        An :class:`InterposerPlacement` with a non-overlapping arrangement.
    """
    if num_tiles < 1:
        raise ValueError("need at least one tile")
    lw = logic_plan.width_mm
    mw = memory_plan.width_mm
    gap = spec.die_spacing_um / 1000.0

    if spec.style is IntegrationStyle.EMBEDDED_STACK:
        return _place_embedded(spec, lw, mw, gap, num_tiles)
    if spec.style is IntegrationStyle.TSV_STACK:
        return _place_stack(spec, lw, mw, num_tiles)
    return _place_side_by_side(spec, lw, mw, gap, num_tiles)


def place_chiplets(spec: InterposerSpec, plans: List[BumpPlan],
                   kinds: List[str],
                   arrangement: str = "grid") -> InterposerPlacement:
    """Arrange ``N`` arbitrary chiplets on the interposer.

    The N-chiplet generalization of :func:`place_dies`: dies are named
    ``chiplet<i>`` with ``tile == i`` and packed per the requested
    arrangement (see :mod:`repro.arch.topology`).  Lateral arrangements
    (``grid``/``row``/``hexagonal``) delegate the outline packing to
    :func:`repro.chiplet.floorplan.arrange_outlines`; ``stacked`` pairs
    consecutive dies vertically — the odd-indexed die of each pair is
    embedded beneath the even-indexed one, so it needs an
    embedding-capable interposer.  A TSV-stack technology (no
    interposer) always collapses to one vertical stack column.

    Args:
        spec: Interposer technology.
        plans: Bump plan (die size) per chiplet.
        kinds: ``"logic"``/``"memory"`` label per chiplet.
        arrangement: One of :data:`repro.arch.topology.ARRANGEMENTS`.

    Returns:
        An :class:`InterposerPlacement` with non-overlapping same-level
        dies.

    Raises:
        ValueError: On a plan/kind length mismatch, or a ``stacked``
            arrangement on a technology that cannot embed dies.
    """
    if not plans:
        raise ValueError("need at least one chiplet")
    if len(plans) != len(kinds):
        raise ValueError(f"{len(plans)} plans but {len(kinds)} kinds")
    widths = [p.width_mm for p in plans]
    gap = spec.die_spacing_um / 1000.0

    if spec.style is IntegrationStyle.TSV_STACK:
        dies = [PlacedDie(f"chiplet{i}", i, kinds[i], 0.0, 0.0, widths[i],
                          f"stack{i:02d}")
                for i in range(len(plans))]
        side = max(widths)
        return InterposerPlacement(spec=spec, dies=dies, width_mm=side,
                                   height_mm=side)

    if arrangement == "stacked":
        if not spec.supports_embedding:
            raise ValueError(f"{spec.name} cannot embed dies; the "
                             f"stacked arrangement needs a cavity "
                             f"interposer")
        m = EDGE_MARGIN_3D_MM
        stack_widths = [max(widths[i:i + 2])
                        for i in range(0, len(widths), 2)]
        outlines = arrange_outlines(stack_widths, "row", gap, m)
        dies = []
        for i, w in enumerate(widths):
            site = outlines[i // 2]
            off_x = site.x + (site.w - w) / 2.0
            off_y = site.y + (site.h - w) / 2.0
            level = "top" if i % 2 == 0 else "embedded"
            dies.append(PlacedDie(f"chiplet{i}", i, kinds[i],
                                  off_x, off_y, w, level))
        width = max(r.x + r.w for r in outlines) + m
        height = max(r.y + r.h for r in outlines) + m
        return InterposerPlacement(spec=spec, dies=dies, width_mm=width,
                                   height_mm=height)

    m = EDGE_MARGIN_25D_MM
    outlines = arrange_outlines(widths, arrangement, gap, m)
    dies = [PlacedDie(f"chiplet{i}", i, kinds[i], r.x, r.y, widths[i],
                      "top")
            for i, r in enumerate(outlines)]
    width = max(r.x + r.w for r in outlines) + m
    height = max(r.y + r.h for r in outlines) + m
    return InterposerPlacement(spec=spec, dies=dies, width_mm=width,
                               height_mm=height)


def _place_side_by_side(spec: InterposerSpec, lw: float, mw: float,
                        gap: float, num_tiles: int) -> InterposerPlacement:
    """2.5D arrangement: one memory+logic row per tile, rows stacked.

    Every tile puts memory left of logic, and tile ``t + 1``'s row sits
    directly above tile ``t``'s, so the logic dies sit one above the
    other across the inter-tile channel (Fig. 10b rotated 90 degrees).
    """
    m = EDGE_MARGIN_25D_MM
    dies: List[PlacedDie] = []
    row_w = mw + gap + lw
    width = row_w + 2 * m
    y = m
    for tile in range(num_tiles):
        dies.append(PlacedDie(f"tile{tile}_memory", tile, "memory",
                              m, y, mw, "top"))
        dies.append(PlacedDie(f"tile{tile}_logic", tile, "logic",
                              m + mw + gap, y, lw, "top"))
        y += max(lw, mw) + gap
    height = y - gap + m
    return InterposerPlacement(spec=spec, dies=dies, width_mm=width,
                               height_mm=height)


def _place_embedded(spec: InterposerSpec, lw: float, mw: float, gap: float,
                    num_tiles: int) -> InterposerPlacement:
    """Glass 3D: memory embedded directly beneath its logic die."""
    if not spec.supports_embedding:
        raise ValueError(f"{spec.name} cannot embed dies")
    m = EDGE_MARGIN_3D_MM
    dies: List[PlacedDie] = []
    x = m
    for tile in range(num_tiles):
        # Memory centered under the logic die.
        off = (lw - mw) / 2.0
        dies.append(PlacedDie(f"tile{tile}_memory", tile, "memory",
                              x + off, m + off, mw, "embedded"))
        dies.append(PlacedDie(f"tile{tile}_logic", tile, "logic",
                              x, m, lw, "top"))
        x += lw + gap
    width = x - gap + m
    height = lw + 2 * m
    return InterposerPlacement(spec=spec, dies=dies, width_mm=width,
                               height_mm=height)


def _place_stack(spec: InterposerSpec, lw: float, mw: float,
                 num_tiles: int) -> InterposerPlacement:
    """Silicon 3D: a single vertical stack (mem0, logic0, mem1, logic1)."""
    dies: List[PlacedDie] = []
    level = 0
    for tile in range(num_tiles):
        dies.append(PlacedDie(f"tile{tile}_memory", tile, "memory",
                              0.0, 0.0, mw, f"stack{level}"))
        level += 1
        dies.append(PlacedDie(f"tile{tile}_logic", tile, "logic",
                              0.0, 0.0, lw, f"stack{level}"))
        level += 1
    side = max(lw, mw)
    return InterposerPlacement(spec=spec, dies=dies, width_mm=side,
                               height_mm=side)
