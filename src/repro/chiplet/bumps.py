"""Micro-bump planning for chiplets (paper Table II).

Section VI-A: signal and P/G bumps follow a repeating 2x4 unit pattern —
six of every eight bumps carry signals, two carry power/ground — repeated
until all I/O pins are assigned, with unused bumps removed.  The chiplet
footprint is the smallest square bump grid (at the technology's micro-bump
pitch) that holds all bumps, plus an edge keep-out margin.

Stacked configurations add constraints: in Glass 3D the embedded memory
die must match the logic die footprint so its bumps align with the
stacked-via field; in Silicon 3D logic and memory dies are identical in
size for die stacking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..tech.interposer import InterposerSpec

#: Default P/G bumps per signal bump (Table II reverse-engineers to ~0.55,
#: i.e. the "2 to 1" signal:power ratio of Section V-A plus redundancy).
DEFAULT_PG_RATIO = 0.552

#: APX's coarse pitch forces a leaner P/G allocation (Table II: 150/299).
APX_PG_RATIO = 0.50

#: Stacked memory dies in Glass 3D draw power through shared TGVs and need
#: fewer dedicated P/G bumps (Table II: 121/231).
STACKED_MEM_PG_RATIO = 0.524

#: Extra bump-grid sites of margin on the die edge (keep-out + seal ring).
EDGE_MARGIN_SITES = 1.5


@dataclass(frozen=True)
class Bump:
    """One placed micro-bump.

    Attributes:
        x_um: X position from die origin (lower-left), microns.
        y_um: Y position, microns.
        kind: ``"signal"``, ``"power"``, or ``"ground"``.
        index: Running index within its kind.
    """

    x_um: float
    y_um: float
    kind: str
    index: int


@dataclass
class BumpPlan:
    """Complete bump plan for one chiplet on one technology.

    Attributes:
        signal_bumps: Number of signal micro-bumps.
        pg_bumps: Number of power/ground micro-bumps.
        grid_side: Bump sites per side of the square grid.
        pitch_um: Micro-bump pitch.
        width_mm: Die edge length (square die).
        bumps: Placed bump list (signal first, then alternating P/G).
    """

    signal_bumps: int
    pg_bumps: int
    grid_side: int
    pitch_um: float
    width_mm: float
    bumps: List[Bump] = field(default_factory=list)

    @property
    def area_mm2(self) -> float:
        """Die area in square millimetres."""
        return self.width_mm * self.width_mm

    def signal_positions(self) -> List[Tuple[float, float]]:
        """(x, y) of every signal bump in microns."""
        return [(b.x_um, b.y_um) for b in self.bumps if b.kind == "signal"]


def plan_bumps(signal_count: int, spec: InterposerSpec,
               pg_ratio: Optional[float] = None,
               pg_count: Optional[int] = None,
               min_width_mm: Optional[float] = None,
               min_cell_area_um2: float = 0.0,
               max_utilization: float = 0.85) -> BumpPlan:
    """Plan the bump grid for one chiplet.

    The die is sized by whichever constraint binds: the bump grid at the
    technology's pitch, a stacked partner's footprint, or the placeable
    cell area at the routability utilization ceiling (the dense glass
    memory die is area-limited, which is why it is wider than its bump
    count alone requires).

    Args:
        signal_count: Signal pins to bump out (299 logic / 231 memory).
        spec: Interposer technology (supplies the micro-bump pitch).
        pg_ratio: P/G bumps per signal bump; default per-technology.
        pg_count: Explicit P/G bump count (overrides ``pg_ratio``).
        min_width_mm: Force at least this die width (used to match a
            stacked partner die's footprint).
        min_cell_area_um2: Total placed standard-cell area the die must
            hold.
        max_utilization: Utilization ceiling for routability.

    Returns:
        A :class:`BumpPlan` with all bumps placed on the grid in the 2x4
        six-signal/two-P/G repeating pattern.
    """
    if signal_count < 1:
        raise ValueError("need at least one signal")
    if not 0 < max_utilization <= 1:
        raise ValueError("max_utilization must be in (0, 1]")
    if pg_count is None:
        ratio = pg_ratio if pg_ratio is not None else (
            APX_PG_RATIO if spec.name == "apx" else DEFAULT_PG_RATIO)
        pg_count = int(round(signal_count * ratio))
    total = signal_count + pg_count
    pitch = spec.microbump_pitch_um

    side = math.ceil(math.sqrt(total))
    width_um = _round10(pitch * (side + 2 * EDGE_MARGIN_SITES - 1.5))
    if min_cell_area_um2 > 0:
        area_width = math.sqrt(min_cell_area_um2 / max_utilization)
        width_um = max(width_um, _round10(area_width))
    if min_width_mm is not None and width_um < min_width_mm * 1000:
        width_um = min_width_mm * 1000
    side = max(side, int((width_um / pitch) - 2 * EDGE_MARGIN_SITES + 1.5))
    if side * side < total:
        raise ValueError(f"grid {side}x{side} cannot hold {total} bumps")

    bumps = _place_pattern(signal_count, pg_count, side, pitch, width_um)
    return BumpPlan(signal_bumps=signal_count, pg_bumps=pg_count,
                    grid_side=side, pitch_um=pitch,
                    width_mm=width_um / 1000.0, bumps=bumps)


def _round10(x: float) -> float:
    """Round to the nearest 10 um (die sizes are snapped in the paper)."""
    return round(x / 10.0) * 10.0


def _place_pattern(signal_count: int, pg_count: int, side: int,
                   pitch: float, width_um: float) -> List[Bump]:
    """Fill the grid with the 2x4 pattern; prune unused sites.

    The pattern tiles the grid in row-major 2x4 blocks; within each block
    sites 0-5 are signal and sites 6-7 are P/G (alternating power and
    ground).  Assignment stops once both quotas are met, matching the
    paper's "unused micro bumps are removed" step.
    """
    origin = (width_um - (side - 1) * pitch) / 2.0
    bumps: List[Bump] = []
    sig_placed = pg_placed = 0
    for row in range(side):
        for col in range(side):
            block_pos = (row % 2) * 4 + (col % 4)
            x = origin + col * pitch
            y = origin + row * pitch
            if block_pos < 6:
                if sig_placed < signal_count:
                    bumps.append(Bump(x, y, "signal", sig_placed))
                    sig_placed += 1
                elif pg_placed < pg_count:
                    kind = "power" if pg_placed % 2 == 0 else "ground"
                    bumps.append(Bump(x, y, kind, pg_placed))
                    pg_placed += 1
            else:
                if pg_placed < pg_count:
                    kind = "power" if pg_placed % 2 == 0 else "ground"
                    bumps.append(Bump(x, y, kind, pg_placed))
                    pg_placed += 1
                elif sig_placed < signal_count:
                    bumps.append(Bump(x, y, "signal", sig_placed))
                    sig_placed += 1
    if sig_placed < signal_count or pg_placed < pg_count:
        raise ValueError("bump grid too small for the requested counts")
    return bumps


def plan_for_design(spec: InterposerSpec, chiplet_kind: str,
                    logic_signals: int = 299,
                    memory_signals: int = 231,
                    cell_area_um2: float = 0.0) -> BumpPlan:
    """Apply the paper's per-design bump rules (Table II).

    * Glass 3D memory matches the logic die width (embedded under it) and
      uses the reduced stacked-memory P/G ratio.
    * Silicon 3D memory matches the logic die exactly, including the full
      165 P/G bumps (power for the whole stack flows through the base die).
    * Everything else uses the default ratios.

    Args:
        spec: Interposer technology.
        chiplet_kind: ``"logic"`` or ``"memory"``.
        logic_signals: Signal count of the logic chiplet.
        memory_signals: Signal count of the memory chiplet.
        cell_area_um2: Placed cell area of this chiplet (binds the die
            size when denser than the bump grid allows).
    """
    if chiplet_kind == "logic":
        return plan_bumps(logic_signals, spec,
                          min_cell_area_um2=cell_area_um2)
    if chiplet_kind != "memory":
        raise ValueError(f"chiplet_kind must be 'logic' or 'memory', "
                         f"got {chiplet_kind!r}")
    logic_plan = plan_bumps(logic_signals, spec)
    if spec.name == "glass_3d":
        return plan_bumps(memory_signals, spec,
                          pg_ratio=STACKED_MEM_PG_RATIO,
                          min_width_mm=logic_plan.width_mm,
                          min_cell_area_um2=cell_area_um2)
    if spec.name == "silicon_3d":
        return plan_bumps(memory_signals, spec,
                          pg_count=logic_plan.pg_bumps,
                          min_width_mm=logic_plan.width_mm,
                          min_cell_area_um2=cell_area_um2)
    return plan_bumps(memory_signals, spec,
                      min_cell_area_um2=cell_area_um2)
