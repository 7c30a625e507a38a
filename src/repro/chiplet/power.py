"""Chiplet power analysis: internal, switching, and leakage components.

Reproduces the power breakdown of Table III with the standard CMOS
decomposition:

* **Leakage** — sum of per-cell static leakage.
* **Internal** — short-circuit and internal-node energy.  Sequential
  cells and clock buffers burn internal energy every cycle; combinational
  cells at their module's activity; SRAM slices at an access rate derived
  from the module activity.
* **Switching** — ``0.5 * alpha * C * V^2 * f`` over every net's wire +
  pin capacitance; clock nets toggle twice per cycle.

Activities come from the per-module numbers in
:mod:`repro.arch.modules`, mirroring how the paper drives Tempus with
tile-level activity assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..arch.modules import get_module
from ..arch.netlist import Netlist, sequential_sum
from ..tech.stdcell import CellKind
from .route import GlobalRoute

#: Global calibration of data-net toggle rates against the paper's
#: reported switching power (Table III).
ACTIVITY_SCALE = 1.15

#: SRAM internal-energy activity multiplier (precharge/sense overhead
#: makes SRAM internal activity higher than datapath toggle rates).
SRAM_ACTIVITY_SCALE = 2.0


@dataclass
class PowerReport:
    """Power breakdown for one chiplet (one Table III column block).

    All values in milliwatts unless noted.
    """

    total_mw: float
    internal_mw: float
    switching_mw: float
    leakage_mw: float
    pin_cap_pf: float
    wire_cap_pf: float
    frequency_mhz: float

    def breakdown(self) -> Dict[str, float]:
        """Power components as a dict (mW)."""
        return {"internal": self.internal_mw,
                "switching": self.switching_mw,
                "leakage": self.leakage_mw}


def _module_activity(netlist: Netlist, module_path: str) -> float:
    """Activity of a module path; unknown paths get a mid value."""
    name = module_path.split("/")[-1] if module_path else ""
    try:
        return get_module(name).activity
    except KeyError:
        return 0.10


def analyze_power(route: GlobalRoute, frequency_mhz: float = 700.0,
                  vdd: Optional[float] = None) -> PowerReport:
    """Compute the chiplet power breakdown at a clock frequency.

    Args:
        route: Routed chiplet (loads + netlist).
        frequency_mhz: Operating frequency.
        vdd: Supply voltage; defaults to the cell library's.
    """
    if frequency_mhz <= 0:
        raise ValueError("frequency must be positive")
    netlist = route.placement.netlist
    view = route.arrays()
    v = vdd if vdd is not None else netlist.library.vdd
    f_hz = frequency_mhz * 1e6

    # Each instance's toggle rate: its module's activity, calibrated.
    activity = np.array([_module_activity(netlist, path) * ACTIVITY_SCALE
                         for path in view.modules])
    alpha = activity[view.module]

    # ---- leakage ------------------------------------------------------ #
    leakage_mw = netlist.total_leakage_mw()

    # ---- internal ------------------------------------------------------ #
    # Sequential cells are clocked every cycle; SRAM slices run at a
    # multiple of their module's activity.  Summed in instance order.
    rate = np.minimum(1.0, np.where(view.cell_kind_in(CellKind.SRAM_MACRO),
                                    alpha * SRAM_ACTIVITY_SCALE, alpha))
    rate[view.cell_kind_in(CellKind.SEQUENTIAL)] = 1.0
    internal_w = float(sequential_sum(
        view.cell_attr("internal_energy_fj") * 1e-15 * rate * f_hz))
    internal_mw = internal_w * 1e3

    # ---- switching ------------------------------------------------------ #
    # Clock nets toggle twice per cycle, port-driven input nets at a
    # fixed rate, the rest at their driver's rate.  Summed in net order;
    # the result is a numpy float64, as it has always been.
    driven = view.driver >= 0
    toggle = np.full(len(view.driver), 0.2 * ACTIVITY_SCALE)
    toggle[driven] = alpha[view.driver[driven]]
    toggle[view.clock] = 2.0
    c_f = (route.wire_cap_ff + route.pin_cap_ff) * 1e-15  # F per net
    switching_w = sequential_sum(0.5 * toggle * c_f * v * v * f_hz)
    switching_mw = switching_w * 1e3

    return PowerReport(
        total_mw=internal_mw + switching_mw + leakage_mw,
        internal_mw=internal_mw, switching_mw=switching_mw,
        leakage_mw=leakage_mw,
        pin_cap_pf=route.total_pin_cap_pf(),
        wire_cap_pf=route.total_wire_cap_pf(),
        frequency_mhz=frequency_mhz)


def power_density_map(route: GlobalRoute, power: PowerReport,
                      bins: int = 8) -> np.ndarray:
    """Spatial power map (W per tile) on a bins x bins grid.

    This is the 8x8 power-density map the paper generates with Ansys CPS
    as the thermal model's heat source (Fig. 16).  Cell power (internal +
    leakage, plus the cell's share of switching) is deposited at the
    cell's placed location.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    placement = route.placement
    netlist = placement.netlist
    fp = placement.floorplan
    grid = np.zeros((bins, bins))

    total_cells = max(len(netlist.instances), 1)
    per_cell_w = power.total_mw * 1e-3 / total_cells

    # Weight by cell area so SRAM regions (denser energy) show up.
    areas = netlist.arrays().cell_attr("area_um2")
    weights = areas / areas.mean()
    xs = placement.x_um
    ys = placement.y_um
    bx = np.clip(((xs - fp.die.x) / fp.die.w * bins).astype(int), 0,
                 bins - 1)
    by = np.clip(((ys - fp.die.y) / fp.die.h * bins).astype(int), 0,
                 bins - 1)
    np.add.at(grid, (by, bx), per_cell_w * weights)
    # Renormalize to the exact total.
    grid *= (power.total_mw * 1e-3) / max(grid.sum(), 1e-12)
    return grid
