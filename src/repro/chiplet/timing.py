"""Static timing analysis for placed-and-routed chiplets.

Plays the role of Cadence Tempus in the flow: a full-graph topological
STA over the combinational DAG, with a linear cell delay model
(intrinsic + drive-resistance x load) and wire loads from the global
router's extraction.  Paths start at flip-flop clock-to-Q (or input
ports) and end at flip-flop D pins (plus setup) or output ports.

The synthetic netlists are combinationally acyclic by construction, so a
Kahn traversal visits every node; the engine still detects and reports
cycles defensively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tech.stdcell import CellKind
from .route import GlobalRoute

#: Setup time charged at every flop D pin (ps).
SETUP_PS = 35.0

#: Clock uncertainty margin (skew + jitter) subtracted from the period.
CLOCK_MARGIN_PS = 55.0

#: Synthesis-sizing emulation: when a cell's nominal RC delay exceeds this
#: threshold, assume the implementation tool swapped in a stronger drive /
#: buffered the net, down to ``drive / MAX_UPSIZE`` resistance.  Real flows
#: never leave a weak gate on a heavy net, and without this the synthetic
#: netlists' load tail would dominate the critical path unrealistically.
SIZING_THRESHOLD_PS = 48.0
MAX_UPSIZE = 8.0


@dataclass
class TimingReport:
    """STA results for one chiplet.

    Attributes:
        critical_path_ps: Longest register-to-register (or port) delay
            including setup.
        fmax_mhz: 1 / (critical path + clock margin).
        critical_path: Instance names along the critical path, in order.
        slack_ps: Slack against the target period (negative = violated).
        target_period_ps: The timing target used for slack.
        levels: Logic depth (nodes) of the critical path.
    """

    critical_path_ps: float
    fmax_mhz: float
    critical_path: List[str]
    slack_ps: float
    target_period_ps: float
    levels: int

    @property
    def meets_target(self) -> bool:
        """Whether slack against the target is non-negative."""
        return self.slack_ps >= 0.0


def analyze_timing(route: GlobalRoute,
                   target_frequency_mhz: float = 700.0) -> TimingReport:
    """Run STA over a routed chiplet.

    Args:
        route: Global-routing result (provides per-net loads).
        target_frequency_mhz: Timing target for slack computation.

    Returns:
        A :class:`TimingReport`.

    Raises:
        ValueError: If the combinational graph contains a cycle.
    """
    netlist = route.placement.netlist
    loads = route.net_load_ff()

    # Resolve each instance's library cell once up front — is_seq and
    # stage_delay run per *edge*, and the per-call library lookup used to
    # dominate STA runtime on full-scale netlists.
    cell_of = {n: netlist.cell(n) for n in netlist.instances}
    # SRAM macros are synchronous (clocked) and bound pipeline stages
    # exactly like flops.
    seq = {n for n, c in cell_of.items()
           if c.kind in (CellKind.SEQUENTIAL, CellKind.SRAM_MACRO)}

    def is_seq(name: str) -> bool:
        return name in seq

    # Per-instance output load: sum over driven (non-clock) nets.
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

    # Kahn traversal over combinational nodes; flops are sources/sinks.
    arrival: Dict[str, float] = {}
    pred: Dict[str, Optional[str]] = {}
    ready: deque = deque()
    comb_nodes = 0
    for name in netlist.instances:
        if is_seq(name):
            arrival[name] = stage_delay(name)  # clock-to-Q + its net RC
            pred[name] = None
        else:
            comb_nodes += 1
            if indeg[name] == 0:
                arrival[name] = stage_delay(name)
                pred[name] = None
                ready.append(name)

    # Seed flop fanouts.
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

    # Nodes that end at output ports (no flop sink) also end paths.
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
