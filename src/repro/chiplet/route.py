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
from itertools import islice
from typing import Dict, List

import numpy as np

from ..arch.netlist import NetlistArrays
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
        net_names: Net ordering for the arrays below.  Not pickled:
            unpickling rebuilds it from the netlist's first
            ``len(hpwl_um)`` nets, the ones it held when routed.
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

    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k != "net_names"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.net_names = list(islice(self.placement.netlist.nets,
                                     len(self.hpwl_um)))

    def total_wirelength_m(self) -> float:
        """Total routed wirelength in metres (Table III row)."""
        return float(self.length_um.sum()) * 1e-6

    def total_wire_cap_pf(self) -> float:
        """Total wire capacitance in pF (Table III row)."""
        return float(self.wire_cap_ff.sum()) * 1e-3

    def total_pin_cap_pf(self) -> float:
        """Total sink pin capacitance in pF (Table III row)."""
        return float(self.pin_cap_ff.sum()) * 1e-3

    def arrays(self) -> NetlistArrays:
        """The routed netlist's :meth:`~repro.arch.netlist.Netlist.arrays`;
        its net ids index this route's per-net arrays.

        Raises:
            ValueError: If the netlist gained nets after it was routed.
        """
        view = self.placement.netlist.arrays()
        if len(view.driver) != len(self.net_names):
            raise ValueError(f"the netlist has {len(view.driver)} nets "
                             f"but its route {len(self.net_names)}: route "
                             f"it again after changing it")
        return view

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
    # The placement's rows are instance ids.  Nets with fewer than two
    # pins (port nets, singletons) get zero HPWL: no on-die routing.
    view = placement.netlist.arrays()
    sizes = np.diff(view.pin_ptr)
    live = sizes > 0
    xs = placement.x_um[view.pins]
    ys = placement.y_um[view.pins]
    starts = view.pin_ptr[:-1][live]
    hpwl = np.zeros(len(sizes))
    hpwl[live] = ((np.maximum.reduceat(xs, starts)
                   - np.minimum.reduceat(xs, starts))
                  + (np.maximum.reduceat(ys, starts)
                     - np.minimum.reduceat(ys, starts)))

    # Multi-pin nets route as Steiner trees, slightly above HPWL.
    steiner = 1.0 + 0.12 * np.maximum(sizes - 3, 0) ** 0.5
    base_len = hpwl * steiner

    fp = placement.floorplan
    supply_um = (_EFFECTIVE_LAYERS * _SUPPLY_DERATE
                 * (fp.core.w / _TRACK_PITCH_UM) * fp.core.h)
    demand_um = float(base_len.sum())
    utilization = demand_um / max(supply_um, 1e-9)
    detour = 1.0 + _DETOUR_A * utilization ** _DETOUR_B

    length = base_len * detour
    wire_cap = length * wire_cap_ff_per_um
    # Each net's sink pin caps, added in pin order.
    sink = view.sink
    sink_cap = view.cell_attr("input_cap_ff")[view.pins[sink]]
    pin_cap = np.bincount(view.pin_net[sink], weights=sink_cap,
                          minlength=len(sizes))
    if len(sizes) and not len(sink_cap):
        # Python's sum over no sinks is the int 0, on every net.
        pin_cap = pin_cap.astype(np.int64)

    return GlobalRoute(placement=placement,
                       net_names=list(placement.netlist.nets),
                       hpwl_um=hpwl, length_um=length,
                       wire_cap_ff=wire_cap, pin_cap_ff=pin_cap,
                       detour_factor=detour,
                       track_utilization=utilization)
