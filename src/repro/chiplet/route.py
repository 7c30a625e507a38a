"""Chiplet global routing: wirelength, congestion, and wire capacitance.

Plays the role of Innovus' global router + RC extractor.  Each net's
routed length is its half-perimeter wirelength (HPWL) scaled by a
congestion-dependent detour factor: dies whose routing demand approaches
the available track supply route less directly.  This is the mechanism
behind the paper's observation that the *smaller* glass-interposer logic
die ends up with *more* wirelength than the silicon one (Table III) —
same netlist, tighter tracks, more detours.

All computation is vectorized over numpy arrays built once per netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..arch.netlist import Netlist
from .place import Placement

#: Interconnect capacitance per micron of routed wire (28nm mid-layer,
#: including coupling); calibrated against Table III's wire-capacitance
#: rows (~696 pF over ~5 m on the logic chiplet).
WIRE_CAP_FF_PER_UM = 0.138

#: Wire resistance per micron (28nm intermediate metal).
WIRE_RES_OHM_PER_UM = 0.8

#: Routing supply model: effective fraction of the die's raw track
#: capacity that signal routing can use (rest is power grid, clock,
#: blockages, pin-access loss).
_EFFECTIVE_LAYERS = 6.0
_TRACK_PITCH_UM = 0.10
_SUPPLY_DERATE = 0.0976

#: Detour model coefficients: detour = 1 + A * utilization^B.
_DETOUR_A = 1.555
_DETOUR_B = 3.18


@dataclass
class RoutedNet:
    """Routing summary of one net (exposed for inspection/debug)."""

    name: str
    hpwl_um: float
    length_um: float
    wire_cap_ff: float
    pin_cap_ff: float


@dataclass
class GlobalRoute:
    """Routing results for one placed chiplet.

    Attributes:
        placement: The placement that was routed.
        net_names: Net ordering for the arrays below.
        hpwl_um: Per-net half-perimeter wirelength.
        length_um: Per-net routed length (HPWL x detour).
        wire_cap_ff: Per-net wire capacitance.
        pin_cap_ff: Per-net sink pin capacitance.
        detour_factor: Global congestion detour multiplier.
        track_utilization: Demand / supply of routing tracks.
    """

    placement: Placement
    net_names: List[str]
    hpwl_um: np.ndarray
    length_um: np.ndarray
    wire_cap_ff: np.ndarray
    pin_cap_ff: np.ndarray
    detour_factor: float
    track_utilization: float

    def total_wirelength_m(self) -> float:
        """Total routed wirelength in metres (Table III row)."""
        return float(self.length_um.sum()) * 1e-6

    def total_wire_cap_pf(self) -> float:
        """Total wire capacitance in pF (Table III row)."""
        return float(self.wire_cap_ff.sum()) * 1e-3

    def total_pin_cap_pf(self) -> float:
        """Total sink pin capacitance in pF (Table III row)."""
        return float(self.pin_cap_ff.sum()) * 1e-3

    def net_load_ff(self) -> Dict[str, float]:
        """Per-net total load (wire + pins) in fF, keyed by net name."""
        loads = self.wire_cap_ff + self.pin_cap_ff
        return {n: float(loads[i]) for i, n in enumerate(self.net_names)}

    def net(self, name: str) -> RoutedNet:
        """Routing summary of one net by name."""
        idx = self.net_names.index(name)
        return RoutedNet(name=name, hpwl_um=float(self.hpwl_um[idx]),
                         length_um=float(self.length_um[idx]),
                         wire_cap_ff=float(self.wire_cap_ff[idx]),
                         pin_cap_ff=float(self.pin_cap_ff[idx]))


def global_route(placement: Placement,
                 wire_cap_ff_per_um: float = WIRE_CAP_FF_PER_UM) -> GlobalRoute:
    """Globally route a placed chiplet.

    Steps: per-net HPWL (vectorized gather + reduceat), track-demand vs
    track-supply congestion estimate, a single global detour factor, and
    RC extraction per net.

    Args:
        placement: The placement to route.
        wire_cap_ff_per_um: Extraction coefficient.
    """
    netlist = placement.netlist
    names: List[str] = []
    flat_idx: List[int] = []
    offsets: List[int] = [0]
    pin_caps: List[float] = []
    index_of = placement.index_of

    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        if len(endpoints) < 2:
            # Port nets / singletons have no on-die routing.
            names.append(net.name)
            flat_idx.append(index_of[endpoints[0]] if endpoints else 0)
            offsets.append(len(flat_idx))
            pin_caps.append(_sink_pin_cap(netlist, net.sinks))
            continue
        names.append(net.name)
        flat_idx.extend(index_of[e] for e in endpoints)
        offsets.append(len(flat_idx))
        pin_caps.append(_sink_pin_cap(netlist, net.sinks))

    flat = np.asarray(flat_idx, dtype=np.int64)
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    xs = placement.x_um[flat]
    ys = placement.y_um[flat]
    x_min = np.minimum.reduceat(xs, starts)
    x_max = np.maximum.reduceat(xs, starts)
    y_min = np.minimum.reduceat(ys, starts)
    y_max = np.maximum.reduceat(ys, starts)
    hpwl = (x_max - x_min) + (y_max - y_min)

    # Multi-pin nets route as Steiner trees, slightly above HPWL.
    counts = np.diff(offsets)
    steiner = 1.0 + 0.12 * np.maximum(counts - 3, 0) ** 0.5
    base_len = hpwl * steiner

    fp = placement.floorplan
    supply_um = (_EFFECTIVE_LAYERS * _SUPPLY_DERATE
                 * (fp.core.w / _TRACK_PITCH_UM) * fp.core.h)
    demand_um = float(base_len.sum())
    utilization = demand_um / max(supply_um, 1e-9)
    detour = 1.0 + _DETOUR_A * utilization ** _DETOUR_B

    length = base_len * detour
    wire_cap = length * wire_cap_ff_per_um
    pin_cap = np.asarray(pin_caps)

    return GlobalRoute(placement=placement, net_names=names,
                       hpwl_um=hpwl, length_um=length,
                       wire_cap_ff=wire_cap, pin_cap_ff=pin_cap,
                       detour_factor=detour,
                       track_utilization=utilization)


def _sink_pin_cap(netlist: Netlist, sinks: List[str]) -> float:
    """Sum of sink input-pin capacitances in fF."""
    return sum(netlist.cell(s).input_cap_ff for s in sinks)


def congestion_map(placement: Placement, route: GlobalRoute,
                   bins: int = 16) -> np.ndarray:
    """Coarse routing-demand heat map (wire-µm per bin), bins x bins.

    Demand of each net is deposited at its bounding-box center — a
    standard probabilistic congestion estimate, used by tests and the
    thermal power-map builder.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    fp = placement.floorplan
    netlist = placement.netlist
    grid = np.zeros((bins, bins))
    index_of = placement.index_of
    for i, name in enumerate(route.net_names):
        net = netlist.net(name)
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        if not endpoints:
            continue
        idx = [index_of[e] for e in endpoints]
        cx = float(np.mean(placement.x_um[idx]))
        cy = float(np.mean(placement.y_um[idx]))
        bx = min(bins - 1, max(0, int((cx - fp.die.x) / fp.die.w * bins)))
        by = min(bins - 1, max(0, int((cy - fp.die.y) / fp.die.h * bins)))
        grid[by, bx] += route.length_um[i]
    return grid
