"""Name-keyed golden references for chiplet sign-off.

The original implementations of the floorplan module-area pass, the
placer's module grouping, global routing's pin pass, STA, power, the
power-density map and the FM hypergraph's pin pass: each walks the
``Netlist`` records by instance and net name and resolves cells with
``Netlist.cell``.  Production (:mod:`repro.chiplet`,
:func:`repro.partition.fm.hypergraph`) runs the same computations over
``Netlist.arrays()`` and must reproduce these results byte for byte.

Where the original called builtin ``sum`` over floats, these references
add with an explicit loop that starts, as ``sum`` does, from the int
``0``.  On CPython 3.11 and earlier that is exactly what ``sum`` did;
from 3.12 on ``sum`` over floats is compensated, and the loop keeps the
references left to right on every interpreter.
"""

from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.netlist import Netlist
from repro.chiplet.floorplan import Floorplan, Rect, _slice
from repro.chiplet.place import Placement, hilbert_d2xy
from repro.chiplet.power import (ACTIVITY_SCALE, SRAM_ACTIVITY_SCALE,
                                 PowerReport, _module_activity)
from repro.chiplet.route import (WIRE_CAP_FF_PER_UM, GlobalRoute,
                                 _DETOUR_A, _DETOUR_B, _EFFECTIVE_LAYERS,
                                 _SUPPLY_DERATE, _TRACK_PITCH_UM)
from repro.chiplet.timing import (CLOCK_MARGIN_PS, MAX_UPSIZE, SETUP_PS,
                                  SIZING_THRESHOLD_PS, TimingReport)
from repro.partition.fm import Hypergraph
from repro.tech.stdcell import CellKind


def floorplan(netlist: Netlist, width_um: float, height_um: float,
              core_margin_um: float = 20.0) -> Floorplan:
    """Slice the core area into per-module regions proportional to area."""
    if width_um <= 2 * core_margin_um or height_um <= 2 * core_margin_um:
        raise ValueError("die too small for the core margin")
    die = Rect(0.0, 0.0, width_um, height_um)
    core = Rect(core_margin_um, core_margin_um,
                width_um - 2 * core_margin_um,
                height_um - 2 * core_margin_um)

    module_area: Dict[str, float] = {}
    for name in netlist.instances:
        path = netlist.instance(name).module_path
        module_area[path] = module_area.get(path, 0.0) + \
            netlist.cell(name).area_um2
    total = 0
    for area in module_area.values():
        total += area
    if total > core.area:
        raise ValueError(f"cell area {total:.0f} um^2 exceeds core "
                         f"{core.area:.0f} um^2 (utilization > 100%)")
    utilization = total / core.area

    regions: Dict[str, Rect] = {}
    order = sorted(module_area, key=lambda m: module_area[m], reverse=True)
    _slice(core, order, module_area, regions)
    return Floorplan(die=die, core=core, regions=regions,
                     utilization=utilization)


def place(netlist: Netlist, floorplan: Floorplan) -> Placement:
    """Place every instance of the netlist inside its module region."""
    names = list(netlist.instances)
    index_of = {n: i for i, n in enumerate(names)}
    x = np.zeros(len(names))
    y = np.zeros(len(names))

    by_module: Dict[str, List[str]] = {}
    for n in names:
        by_module.setdefault(netlist.instance(n).module_path, []).append(n)

    for module_path, members in by_module.items():
        region = floorplan.region_of(module_path)
        _fill_hilbert(members, region, index_of, x, y)
    return Placement(netlist=netlist, floorplan=floorplan,
                     index_of=index_of, x_um=x, y_um=y)


def _fill_hilbert(members: List[str], region: Rect,
                  index_of: Dict[str, int], x: np.ndarray,
                  y: np.ndarray) -> None:
    """Lay ``members`` along a subsampled Hilbert curve over ``region``."""
    n = len(members)
    if n == 0:
        return
    side = 1
    while side * side < n:
        side *= 2
    total = side * side
    dists = (np.arange(n, dtype=np.int64) * total) // n
    gx, gy = hilbert_d2xy(side, dists)
    px = region.x + (gx + 0.5) * (region.w / side)
    py = region.y + (gy + 0.5) * (region.h / side)
    rows = np.array([index_of[m] for m in members], dtype=np.int64)
    x[rows] = px
    y[rows] = py


def global_route(placement: Placement,
                 wire_cap_ff_per_um: float = WIRE_CAP_FF_PER_UM
                 ) -> GlobalRoute:
    """Globally route a placed chiplet, one net record at a time."""
    netlist = placement.netlist
    names: List[str] = []
    flat_idx: List[int] = []
    offsets: List[int] = [0]
    pin_caps: List[float] = []
    index_of = placement.index_of

    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        if len(endpoints) < 2:
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


def _sink_pin_cap(netlist: Netlist, sinks: List[str]):
    """Sum of sink input-pin capacitances in fF."""
    total = 0
    for s in sinks:
        total += netlist.cell(s).input_cap_ff
    return total


def _net_load_ff(route: GlobalRoute) -> Dict[str, float]:
    """Per-net total load (wire + pins) in fF, keyed by net name."""
    loads = route.wire_cap_ff + route.pin_cap_ff
    return {n: float(loads[i]) for i, n in enumerate(route.net_names)}


def analyze_timing(route: GlobalRoute,
                   target_frequency_mhz: float = 700.0) -> TimingReport:
    """STA over name-keyed dict graphs: a FIFO Kahn pass."""
    netlist = route.placement.netlist
    loads = _net_load_ff(route)

    cell_of = {n: netlist.cell(n) for n in netlist.instances}
    seq = {n for n, c in cell_of.items()
           if c.kind in (CellKind.SEQUENTIAL, CellKind.SRAM_MACRO)}

    def is_seq(name: str) -> bool:
        return name in seq

    out_load: Dict[str, float] = {}
    fanout_edges: Dict[str, List[str]] = {n: [] for n in netlist.instances}
    indeg: Dict[str, int] = {n: 0 for n in netlist.instances}

    for net in netlist.nets.values():
        if net.is_clock or net.driver is None:
            continue
        out_load[net.driver] = out_load.get(net.driver, 0.0) \
            + loads.get(net.name, 0.0)
        for sink in net.sinks:
            fanout_edges[net.driver].append(sink)
            if sink not in seq:
                indeg[sink] += 1

    _delay_memo: Dict[str, float] = {}

    def stage_delay(name: str) -> float:
        d = _delay_memo.get(name)
        if d is not None:
            return d
        cell = cell_of[name]
        load = out_load.get(name, 0.0)
        rc = cell.drive_res_ohm * load * 1e-3
        if rc > SIZING_THRESHOLD_PS:
            rc = max(SIZING_THRESHOLD_PS,
                     cell.drive_res_ohm / MAX_UPSIZE * load * 1e-3)
        d = cell.intrinsic_delay_ps + rc
        _delay_memo[name] = d
        return d

    arrival: Dict[str, float] = {}
    pred: Dict[str, Optional[str]] = {}
    ready: deque = deque()
    comb_nodes = 0
    for name in netlist.instances:
        if is_seq(name):
            arrival[name] = stage_delay(name)
            pred[name] = None
        else:
            comb_nodes += 1
            if indeg[name] == 0:
                arrival[name] = stage_delay(name)
                pred[name] = None
                ready.append(name)

    for name in netlist.instances:
        if not is_seq(name):
            continue
        for sink in fanout_edges[name]:
            if is_seq(sink):
                continue
            base = arrival[name]
            if base + stage_delay(sink) > arrival.get(sink, -1.0):
                arrival[sink] = base + stage_delay(sink)
                pred[sink] = name
            indeg[sink] -= 1
            if indeg[sink] == 0:
                ready.append(sink)

    visited = 0
    end_arrival = -1.0
    end_node: Optional[str] = None
    while ready:
        node = ready.popleft()
        visited += 1
        node_arr = arrival[node]
        for sink in fanout_edges[node]:
            if is_seq(sink):
                total = node_arr + SETUP_PS
                if total > end_arrival:
                    end_arrival = total
                    end_node = node
                continue
            cand = node_arr + stage_delay(sink)
            if cand > arrival.get(sink, -1.0):
                arrival[sink] = cand
                pred[sink] = node
            indeg[sink] -= 1
            if indeg[sink] == 0:
                ready.append(sink)

    if visited < comb_nodes:
        stuck = [n for n in netlist.instances
                 if not is_seq(n) and indeg.get(n, 0) > 0]
        raise ValueError(f"combinational cycle detected involving "
                         f"{len(stuck)} nodes, e.g. {stuck[:3]}")

    for name, arr in arrival.items():
        if arr > end_arrival:
            end_arrival = arr
            end_node = name

    path: List[str] = []
    node = end_node
    while node is not None:
        path.append(node)
        node = pred.get(node)
    path.reverse()

    target_period = 1e6 / target_frequency_mhz
    cp = max(end_arrival, 1e-3)
    fmax = 1e6 / (cp + CLOCK_MARGIN_PS)
    return TimingReport(critical_path_ps=cp, fmax_mhz=fmax,
                        critical_path=path,
                        slack_ps=target_period - (cp + CLOCK_MARGIN_PS),
                        target_period_ps=target_period,
                        levels=len(path))


def total_leakage_mw(netlist: Netlist) -> float:
    """Sum of cell leakage power in milliwatts."""
    total = 0
    for n in netlist.instances:
        total += netlist.cell(n).leakage_nw
    return total * 1e-6


def analyze_power(route: GlobalRoute, frequency_mhz: float = 700.0,
                  vdd: Optional[float] = None) -> PowerReport:
    """Power breakdown with a loop per instance and per net."""
    if frequency_mhz <= 0:
        raise ValueError("frequency must be positive")
    netlist = route.placement.netlist
    v = vdd if vdd is not None else netlist.library.vdd
    f_hz = frequency_mhz * 1e6

    activity_of: Dict[str, float] = {}
    for path in netlist.module_paths():
        activity_of[path] = _module_activity(netlist, path)

    leakage_mw = total_leakage_mw(netlist)

    internal_w = 0.0
    for name, inst in netlist.instances.items():
        cell = netlist.cell(name)
        alpha = activity_of.get(inst.module_path, 0.10) * ACTIVITY_SCALE
        if cell.kind is CellKind.SEQUENTIAL:
            rate = 1.0
        elif cell.kind is CellKind.SRAM_MACRO:
            rate = min(1.0, alpha * SRAM_ACTIVITY_SCALE)
        else:
            rate = min(1.0, alpha)
        internal_w += cell.internal_energy_fj * 1e-15 * rate * f_hz
    internal_mw = internal_w * 1e3

    loads = route.wire_cap_ff + route.pin_cap_ff
    switching_w = 0.0
    for i, net_name in enumerate(route.net_names):
        net = netlist.net(net_name)
        c_f = loads[i] * 1e-15
        if net.is_clock:
            toggle = 2.0
        else:
            driver = net.driver
            if driver is None:
                toggle = 0.2 * ACTIVITY_SCALE
            else:
                path = netlist.instance(driver).module_path
                toggle = activity_of.get(path, 0.10) * ACTIVITY_SCALE
        switching_w += 0.5 * toggle * c_f * v * v * f_hz
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
    """Spatial power map (W per tile) on a bins x bins grid."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    placement = route.placement
    netlist = placement.netlist
    fp = placement.floorplan
    grid = np.zeros((bins, bins))

    total_cells = max(len(netlist.instances), 1)
    per_cell_w = power.total_mw * 1e-3 / total_cells

    areas = np.array([netlist.cell(n).area_um2 for n in netlist.instances])
    weights = areas / areas.mean()
    xs = placement.x_um
    ys = placement.y_um
    bx = np.clip(((xs - fp.die.x) / fp.die.w * bins).astype(int), 0,
                 bins - 1)
    by = np.clip(((ys - fp.die.y) / fp.die.h * bins).astype(int), 0,
                 bins - 1)
    np.add.at(grid, (by, bx), per_cell_w * weights)
    grid *= (power.total_mw * 1e-3) / max(grid.sum(), 1e-12)
    return grid


def hypergraph(netlist: Netlist) -> Tuple[Hypergraph, List[str],
                                          List[str]]:
    """FM's hypergraph, with its own pass over the net records."""
    names = list(netlist.instances)
    index = {name: i for i, name in enumerate(names)}
    net_names = list(netlist.nets)
    n, m = len(names), len(net_names)
    flat: List[int] = []
    sizes: List[int] = []
    for net in netlist.nets.values():
        start = len(flat)
        if net.driver:
            flat.append(index[net.driver])
        flat.extend([index[s] for s in net.sinks])
        sizes.append(len(flat) - start)
    pins = np.array(flat, dtype=np.int32)
    pin_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.array(sizes, dtype=np.int64), out=pin_ptr[1:])
    by_name = np.array(sorted(range(m), key=net_names.__getitem__),
                       dtype=np.int64)
    net_rank = np.empty(m, dtype=np.int64)
    net_rank[by_name] = np.arange(m)
    width = max(m, 1)
    keys = np.unique(pins.astype(np.int64) * width
                     + net_rank[np.repeat(np.arange(m), sizes)])
    inst_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=n), out=inst_ptr[1:])
    rank = np.empty(n, dtype=np.int32)
    rank[sorted(range(n), key=names.__getitem__)] = np.arange(n)
    area = np.array([netlist.cell(name).area_um2 for name in names],
                    dtype=np.float64)
    graph = Hypergraph(area=area, rank=rank, inst_ptr=inst_ptr,
                       inst_nets=by_name[keys % width].astype(np.int32),
                       pin_ptr=pin_ptr, pins=pins)
    return graph, names, net_names
