"""Static timing analysis for placed-and-routed chiplets.

Plays the role of Cadence Tempus in the flow: a full-graph topological
STA over the combinational DAG, with a linear cell delay model
(intrinsic + drive-resistance x load) and wire loads from the global
router's extraction.  Paths start at flip-flop clock-to-Q (or input
ports) and end at flip-flop D pins (plus setup) or output ports.

The synthetic netlists are combinationally acyclic by construction, so a
Kahn traversal visits every node; the engine still detects and reports
cycles defensively.

numpy computes the delays, fanout and end points; the FIFO Kahn pass and
the output-port scan run in :mod:`repro._kernel`'s ``sta_pass`` when the
kernel loads, else in :func:`_sta_pass_portable`, the same loop in
Python.  Both equal ``tests/oracles/signoff.py`` bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from .._kernel import load_kernel
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
        ValueError: If the combinational graph contains a cycle, or the
            netlist gained nets after it was routed.
    """
    view = route.arrays()
    n = len(view.cell)
    # SRAM macros are synchronous (clocked) and bound pipeline stages
    # exactly like flops.
    seq = view.cell_kind_in(CellKind.SEQUENTIAL, CellKind.SRAM_MACRO)

    # Timing arcs run from the driver of each non-clock net to each of
    # its sink pins, in net then pin order.  A driver's output load is
    # its nets' loads (wire + pins) added in net order.
    arc_net = ~view.clock & (view.driver >= 0)
    loads = route.wire_cap_ff + route.pin_cap_ff
    out_load = np.bincount(view.driver[arc_net], weights=loads[arc_net],
                           minlength=n)
    pin_net = view.pin_net
    arc_pin = arc_net[pin_net] & view.sink
    src = view.driver[pin_net[arc_pin]]
    dst = view.pins[arc_pin]
    to_comb = ~seq[dst]
    comb_src, comb_dst = src[to_comb], dst[to_comb]
    indeg = np.bincount(comb_dst, minlength=n).astype(np.int64, copy=False)
    # Stage delay per instance: intrinsic + drive resistance x load,
    # with the sizing emulation on heavy loads.
    drive = view.cell_attr("drive_res_ohm")
    rc = drive * out_load * 1e-3
    upsized = np.maximum(SIZING_THRESHOLD_PS,
                         drive / MAX_UPSIZE * out_load * 1e-3)
    delay = (view.cell_attr("intrinsic_delay_ps")
             + np.where(rc > SIZING_THRESHOLD_PS, upsized, rc))
    # Each instance's combinational fanout in arc order (CSR), and
    # whether a combinational instance drives a sequential sink (a path
    # end point).
    fanout = comb_dst[np.argsort(comb_src, kind="stable")].astype(
        np.int32, copy=False)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(comb_src, minlength=n), out=ptr[1:])
    ends_at_seq = np.zeros(n, dtype=bool)
    ends_at_seq[src[~to_comb]] = True
    ends_at_seq &= ~seq

    kernel = load_kernel()
    if kernel is None:
        end_arrival, end_node, pred, indeg = _sta_pass_portable(
            seq, delay, fanout, ptr, ends_at_seq, indeg)
    else:
        arrival = np.empty(n)
        pred = np.empty(n, dtype=np.int64)
        scratch = np.empty(2 * n, dtype=np.int64)
        end = np.empty(1)
        end_node = kernel.sta(
            n, seq.ctypes.data, delay.ctypes.data, ptr.ctypes.data,
            fanout.ctypes.data, ends_at_seq.ctypes.data, SETUP_PS,
            indeg.ctypes.data, arrival.ctypes.data, pred.ctypes.data,
            scratch.ctypes.data, scratch[n:].ctypes.data, end.ctypes.data)
        end_arrival = float(end[0])

    names = list(route.placement.netlist.instances)
    stuck = np.flatnonzero(~seq & (np.asarray(indeg) > 0)).tolist()
    if stuck:
        raise ValueError(f"combinational cycle detected involving "
                         f"{len(stuck)} nodes, e.g. "
                         f"{[names[i] for i in stuck[:3]]}")

    path: List[str] = []
    node = end_node
    while node >= 0:
        path.append(names[node])
        node = pred[node]
    path.reverse()

    target_period = 1e6 / target_frequency_mhz
    cp = max(end_arrival, 1e-3)
    fmax = 1e6 / (cp + CLOCK_MARGIN_PS)
    return TimingReport(critical_path_ps=cp, fmax_mhz=fmax,
                        critical_path=path,
                        slack_ps=target_period - (cp + CLOCK_MARGIN_PS),
                        target_period_ps=target_period,
                        levels=len(path))


def _sta_pass_portable(seq: np.ndarray, delay: np.ndarray,
                       fanout: np.ndarray, ptr: np.ndarray,
                       ends_at_seq: np.ndarray, indeg: np.ndarray):
    """The STA pass without the kernel: (end arrival, end node, each
    instance's predecessor, the in-degrees left), as ``sta_pass``."""
    n = len(delay)
    delay = delay.tolist()
    fanout = fanout.tolist()
    ptr = ptr.tolist()
    ends_at_seq = ends_at_seq.tolist()
    # Flops launch paths at clock-to-Q (plus their net RC), then
    # combinational nodes join the queue in instance order, and the
    # rest as their last input arrives.  A tie keeps the first strictly
    # greater arrival.  pred -1 starts a path, -2 marks no arrival yet;
    # ``order`` lists nodes as they first got one.
    arrival = [-1.0] * n
    pred = [-2] * n
    starts = np.flatnonzero(seq | (indeg == 0)).tolist()
    for i in starts:
        arrival[i] = delay[i]
        pred[i] = -1
    order = list(starts)
    ready = deque(np.flatnonzero(seq).tolist())
    ready.extend(np.flatnonzero(~seq & (indeg == 0)).tolist())
    indeg = indeg.tolist()
    end_arrival = -1.0
    end_node = -1
    while ready:
        node = ready.popleft()
        node_arr = arrival[node]
        if ends_at_seq[node]:
            total = node_arr + SETUP_PS
            if total > end_arrival:
                end_arrival = total
                end_node = node
        for sink in fanout[ptr[node]:ptr[node + 1]]:
            cand = node_arr + delay[sink]
            if cand > arrival[sink]:
                if pred[sink] == -2:
                    order.append(sink)
                arrival[sink] = cand
                pred[sink] = node
            indeg[sink] -= 1
            if indeg[sink] == 0:
                ready.append(sink)

    # Nodes that end at output ports (no flop sink) also end paths;
    # they are scanned in the order they first got an arrival time.
    for node in order:
        if arrival[node] > end_arrival:
            end_arrival = arrival[node]
            end_node = node
    return end_arrival, end_node, pred, indeg
