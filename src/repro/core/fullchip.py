"""Full-chip timing and power roll-up (paper Section VII-H).

``total power = P_chiplet + P_intra_tile + P_inter_tile`` — the chiplet
sign-off power of all four dies plus the measured per-net power of every
off-chip link, at the link counts of the architecture (2 x 231 intra-tile
nets, 68 inter-tile nets).  System frequency is set by the slowest
chiplet, with off-chip propagation checked against the clock period
(the AIB links are pipelined, so one period is the budget).  An
N-way partition rolls up the same way over its parts and their links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..chiplet.design import ChipletResult
from ..si.channel import ChannelReport


@dataclass
class FullChipSummary:
    """System-level roll-up for one design point.

    Attributes:
        total_power_mw: Chiplets + all off-chip links.
        chiplet_power_mw: Sum over the four dies.
        intra_tile_power_mw: All logic-memory link power.
        inter_tile_power_mw: All logic-logic link power.
        system_fmax_mhz: Min chiplet Fmax (pipelined links permitting).
        offchip_timing_met: Whether the worst link delay fits the period.
        worst_link_delay_ps: Slowest off-chip link (driver+interconnect).
    """

    total_power_mw: float
    chiplet_power_mw: float
    intra_tile_power_mw: float
    inter_tile_power_mw: float
    system_fmax_mhz: float
    offchip_timing_met: bool
    worst_link_delay_ps: float


def full_chip_summary(logic: ChipletResult, memory: ChipletResult,
                      l2m_link: ChannelReport,
                      l2l_link: Optional[ChannelReport],
                      num_tiles: int = 2,
                      l2m_signals: int = 231,
                      l2l_signals: int = 68) -> FullChipSummary:
    """Roll up ``num_tiles`` identical logic/memory tiles.

    The paper-signature form of :func:`full_chip_summary_nway`.

    Args:
        logic: Implemented logic chiplet (shared by all tiles).
        memory: Implemented memory chiplet.
        l2m_link: Worst-case intra-tile link measurement.
        l2l_link: Worst-case inter-tile link; ``None`` for single-tile.
        num_tiles: Tile count.
        l2m_signals: Intra-tile signal count per tile.
        l2l_signals: Signal count between consecutive tiles.
    """
    if num_tiles < 1:
        raise ValueError("need at least one tile")
    return full_chip_summary_nway(
        [(logic, memory)] * num_tiles, l2m_link,
        l2l_link if num_tiles >= 2 else None,
        num_tiles * l2m_signals, (num_tiles - 1) * l2l_signals)


def full_chip_summary_nway(tiles: Sequence[Sequence[ChipletResult]],
                           l2m_link: ChannelReport,
                           l2l_link: Optional[ChannelReport],
                           l2m_signals: int,
                           l2l_signals: int) -> FullChipSummary:
    """Roll up chiplet and link measurements into the system summary.

    Chiplet power sums the dies of each tile, then the tiles: the
    paper's two logic/memory tiles give exactly ``2 * (P_logic +
    P_memory)``, and an N-way partition (one part per tile) the plain
    sum over parts.  Links between logic- and memory-class dies are
    billed at the measured logic-to-memory channel, same-class links at
    the logic-to-logic channel, keeping the Table IV decomposition
    ``P = P_chiplet + P_l2m + P_l2l``.

    Args:
        tiles: The placed dies' implementations, grouped by tile (at
            least one die).
        l2m_link: Worst-case mixed-kind link measurement.
        l2l_link: Worst-case same-kind link; ``None`` when the system
            has no same-kind links.
        l2m_signals: Total mixed-kind nets across all die pairs.
        l2l_signals: Total same-kind nets across all die pairs.
    """
    dies = [c for tile in tiles for c in tile]
    if not dies:
        raise ValueError("need at least one chiplet")
    chiplet_mw = sum(sum(c.power.total_mw for c in tile) for tile in tiles)
    intra_mw = l2m_signals * l2m_link.total_power_uw * 1e-3
    inter_mw = 0.0
    worst_link = l2m_link.total_delay_ps
    if l2l_link is not None and l2l_signals > 0:
        inter_mw = l2l_signals * l2l_link.total_power_uw * 1e-3
        worst_link = max(worst_link, l2l_link.total_delay_ps)

    fmax = min(c.fmax_mhz for c in dies)
    period_ps = 1e6 / fmax
    timing_met = worst_link <= period_ps
    if not timing_met:
        # Off-chip link limits the system clock (pipelined budget = 1T).
        fmax = 1e6 / worst_link
    return FullChipSummary(
        total_power_mw=chiplet_mw + intra_mw + inter_mw,
        chiplet_power_mw=chiplet_mw,
        intra_tile_power_mw=intra_mw,
        inter_tile_power_mw=inter_mw,
        system_fmax_mhz=fmax,
        offchip_timing_met=timing_met,
        worst_link_delay_ps=worst_link)
