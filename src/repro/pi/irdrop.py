"""Static IR-drop analysis on the interposer power plane.

A sparse resistive-grid solve (the RedHawk-style analysis behind Table
IV's IR-drop row): the power plane is discretized into an N x N sheet of
resistors, supply vias pin the plane to VDD at the feed ring around the
die field, and each chiplet draws its current through its power bumps.
The worst bump-node voltage drop is reported.

The per-technology outcome is driven by plane metal thickness (sheet
resistance): silicon's 1 um planes drop the most, APX's 6 um planes the
least — exactly the Table IV ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..interposer.pdn import PdnStackup
from ..interposer.placement import InterposerPlacement

#: Plane perforation factor: signal-via antipads and plane cutouts raise
#: the effective sheet resistance of real PDN planes over solid copper.
PLANE_PERFORATION = 3.0

#: Effective on-die power-grid resistance per chiplet (M1-M6 grid + bump
#: array), ohms.  The paper's IR numbers include the chiplet grid; this
#: constant is a typical 28nm full-chip grid value.
R_DIE_GRID_OHM = 0.09


@dataclass
class IrDropReport:
    """IR-drop analysis result.

    Attributes:
        worst_drop_mv: Maximum voltage drop at any current-drawing node.
        average_drop_mv: Mean drop over current-drawing nodes.
        total_current_a: Total load current.
        grid: The full node-voltage drop map in volts (ny, nx).
    """

    worst_drop_mv: float
    average_drop_mv: float
    total_current_a: float
    grid: np.ndarray


def solve_plane_ir_drop(placement: InterposerPlacement, pdn: PdnStackup,
                        chiplet_power_w: Dict[str, float],
                        vdd: float = 0.9, grid_n: int = 40) -> IrDropReport:
    """Solve the power-plane IR drop for a placed design.

    Args:
        placement: Die placement (die footprints locate the load).
        pdn: PDN stackup (sheet resistance, feed via resistance).
        chiplet_power_w: die name → power draw in watts.
        vdd: Supply voltage (to convert power to current).
        grid_n: Plane discretization (grid_n x grid_n nodes).

    Returns:
        An :class:`IrDropReport`; drop is relative to the feed ring.
    """
    if grid_n < 4:
        raise ValueError("grid too coarse")
    missing = [d.name for d in placement.dies
               if d.name not in chiplet_power_w]
    if missing:
        raise KeyError(f"missing power for dies: {missing}")

    n = grid_n
    # Both P and G planes carry the loop; lump as 2x the single-plane
    # sheet in series, i.e. solve one plane with doubled sheet resistance,
    # derated for antipad perforation.
    sheet = 2.0 * pdn.plane_sheet_resistance() * PLANE_PERFORATION
    g_edge = 1.0 / max(sheet, 1e-9)  # conductance of one square link

    idx = lambda r, c: r * n + c
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(n * n)

    def add_link(a: int, b: int, g: float) -> None:
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-g, -g])
        diag[a] += g
        diag[b] += g

    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                add_link(idx(r, c), idx(r, c + 1), g_edge)
            if r + 1 < n:
                add_link(idx(r, c), idx(r + 1, c), g_edge)

    # Feed ring: the perimeter nodes connect to VDD through the via
    # array's resistance, split across the perimeter nodes.
    perimeter = [idx(r, c) for r in range(n) for c in range(n)
                 if r in (0, n - 1) or c in (0, n - 1)]
    r_via_total = max(pdn.feed_resistance_ohm(), 1e-6)
    g_via_node = (1.0 / r_via_total) / len(perimeter)
    for node in perimeter:
        diag[node] += g_via_node

    # Current loads: each die's current spread over its footprint nodes.
    current = np.zeros(n * n)
    total_current = 0.0
    w_mm = placement.width_mm
    h_mm = placement.height_mm
    for die in placement.dies:
        p_w = chiplet_power_w[die.name]
        i_die = p_w / vdd
        total_current += i_die
        r0 = max(0, min(n - 1, int(die.y_mm / h_mm * n)))
        r1 = max(r0 + 1, min(n, int(math.ceil(
            (die.y_mm + die.width_mm) / h_mm * n))))
        c0 = max(0, min(n - 1, int(die.x_mm / w_mm * n)))
        c1 = max(c0 + 1, min(n, int(math.ceil(
            (die.x_mm + die.width_mm) / w_mm * n))))
        nodes = [idx(r, c) for r in range(r0, r1) for c in range(c0, c1)]
        for node in nodes:
            current[node] += i_die / len(nodes)

    for i, d in enumerate(diag):
        rows.append(i)
        cols.append(i)
        vals.append(d)
    G = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
    # Node equation: G v = -I_load (drop relative to the VDD ring).
    v = scipy.sparse.linalg.spsolve(G, -current)
    drop = -v  # positive drop numbers

    loaded = current > 0
    worst = float(drop[loaded].max()) if loaded.any() else float(drop.max())
    avg = float(drop[loaded].mean()) if loaded.any() else float(drop.mean())
    # Add the on-die grid drop of the hungriest chiplet (the paper's IR
    # numbers are bump-to-cell, which includes the chiplet's own grid).
    i_worst_die = max(chiplet_power_w.values()) / vdd
    die_drop = i_worst_die * R_DIE_GRID_OHM
    return IrDropReport(worst_drop_mv=(worst + die_drop) * 1e3,
                        average_drop_mv=(avg + die_drop) * 1e3,
                        total_current_a=total_current,
                        grid=drop.reshape(n, n))
