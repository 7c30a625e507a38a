"""Interposer RDL routing: two-phase global router (plays Xpedition).

The router works on a coarse 3-D grid over the interposer: each signal
layer has a preferred direction (alternating horizontal/vertical, per the
paper's Manhattan discipline for glass and silicon), vias connect layers,
and every grid cell has a per-layer track capacity derived from the
technology's wire pitch — reduced under dies, where micro-bump via lands
block tracks.  Organic interposers route diagonally, matching the paper's
routing-method section.

Routing runs in two phases, the way production global routers do:

1. **Pattern routing** — every net tries a small set of L-shaped (or
   diagonal line) candidates across layer pairs and commits the cheapest,
   where cost includes soft congestion penalties.  This is fast and
   resolves the easy 90+% of nets.
2. **Rip-up and reroute** — nets crossing over-capacity cells are ripped
   up and rerouted with congestion-aware A* maze search, which finds the
   detours and higher-layer escapes that give Table IV its per-technology
   layer usage and wirelength character.

Both phases are vectorized but bit-identical to the per-cell golden
references in the test suite's ``tests/oracles`` package, which keep
the original implementations (per-cell path cost, per-net overflow
scans, the scalar heap A*):

* Pattern candidates are scored from *segment arithmetic* (via-column
  prefix sums + run sums over ``occupancy >= capacity``) without ever
  materializing their cells; only the winning candidate is expanded.
  Every edge/overflow cost on a Manhattan grid is an integer-valued
  float, so the closed-form total equals the scalar left-to-right float
  sum exactly.  Diagonal (organic) candidates involve sqrt(2) steps, so
  their costs are replayed with ``np.add.accumulate`` over the exact
  increment sequence of the scalar loop instead.
* The rip-up maze search on Manhattan grids is solved as a *distance
  field*: one Dijkstra sweep over the A*-reweighted edge graph (edge
  ``w' = w + h(v) - h(u)``, non-negative because the Manhattan
  heuristic is consistent), run by the compiled dial kernel of
  :mod:`repro._kernel`.  The A* path *and* its
  expansion count are reconstructed exactly from the distance field
  (see :class:`_DistanceFieldOracle`), so results — including
  node-budget exhaustion — are bit-identical to the scalar A*.
* Every other maze search — on diagonal (organic) grids — runs the
  scalar A* ported to C (``maze_astar`` in the same kernel), which pops
  the same states in the same order and so returns the same path and
  expansion count.
* Without a C compiler every maze search runs
  :meth:`RoutingGrid.maze_route_scalar`, the one portable fallback.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..tech.interposer import InterposerSpec, IntegrationStyle, RoutingStyle
from .._kernel import load_kernel as _load_maze_kernel
from .placement import InterposerPlacement, PlacedDie

_LOG = logging.getLogger(__name__)

#: Routing grid cell edge in microns.
CELL_UM = 20.0

#: Cost of one via (in units of grid-cell steps).
#:
#: Both cost constants are integer-valued, and the router relies on it:
#: the closed-form L-candidate costs, the packed-int scalar search and
#: the distance-field maze engine all score paths in integer arithmetic.
VIA_COST = 3.0

#: Soft congestion penalty per overfull cell entered (integer-valued,
#: see :data:`VIA_COST`).
OVERFLOW_COST = 12.0

#: Maze-search node budget per net during rip-up/reroute.
MAZE_NODE_BUDGET = 120000

#: Maximum rip-up/reroute passes.
RRR_ROUNDS = 2


@dataclass
class RouterStats:
    """Observability counters for one :func:`route_interposer` run.

    Attributes:
        pattern_time_s: Wall time of the pattern-routing phase.
        rrr_time_s: Wall time of the rip-up/reroute phase (includes
            ``maze_time_s``).
        maze_time_s: Wall time spent inside maze searches.
        nets_pattern_routed: Nets routed in phase 1 (every lateral net).
        nets_rerouted: Maze reroute attempts in phase 2 (a net ripped
            up in both RRR rounds counts twice).
        rrr_rounds: Rip-up/reroute rounds that found victims.
        maze_calls: Maze searches issued (== ``nets_rerouted``).
        maze_nodes: Total A* node expansions across maze searches, on
            Manhattan and organic grids alike.  A call that exhausts its
            node budget counts more than the budget: ``max_nodes + 1``
            (the pops the compiled A* made before it stopped) or the
            full count the distance-field oracle predicted.  Only the
            scalar A*, which runs when no C compiler is available,
            contributes 0.
        maze_fallbacks: Reroutes whose maze search failed (node budget
            exhausted or no path) so the net kept its overflowing
            pattern route — previously swallowed silently.
        overflow_cells: Cells still over capacity after the final round.
        fields_built: Distance-field sweeps run by the maze engine:
            one per Manhattan maze call when the C kernel loads.
        fields_patched: Always 0: the maze engine keeps no results
            between calls.  ``perfbench/layers.py`` still reads it.
        maze_nodes_per_call_p50: Median A* expansion count per maze
            call, organic grids included.
        maze_nodes_per_call_p99: 99th-percentile expansion count per
            maze call.
    """

    pattern_time_s: float = 0.0
    rrr_time_s: float = 0.0
    maze_time_s: float = 0.0
    nets_pattern_routed: int = 0
    nets_rerouted: int = 0
    rrr_rounds: int = 0
    maze_calls: int = 0
    maze_nodes: int = 0
    maze_fallbacks: int = 0
    overflow_cells: int = 0
    fields_built: int = 0
    fields_patched: int = 0
    maze_nodes_per_call_p50: float = 0.0
    maze_nodes_per_call_p99: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat dict for JSON dumps (perf harness / BENCH_flow.json)."""
        return {
            "pattern_time_s": round(self.pattern_time_s, 4),
            "rrr_time_s": round(self.rrr_time_s, 4),
            "maze_time_s": round(self.maze_time_s, 4),
            "nets_pattern_routed": self.nets_pattern_routed,
            "nets_rerouted": self.nets_rerouted,
            "rrr_rounds": self.rrr_rounds,
            "maze_calls": self.maze_calls,
            "maze_nodes": self.maze_nodes,
            "maze_fallbacks": self.maze_fallbacks,
            "overflow_cells": self.overflow_cells,
            "fields_built": self.fields_built,
            "fields_patched": self.fields_patched,
            "maze_nodes_per_call_p50": round(
                self.maze_nodes_per_call_p50, 1),
            "maze_nodes_per_call_p99": round(
                self.maze_nodes_per_call_p99, 1),
        }


@dataclass
class RoutedNet:
    """One routed interposer net.

    Attributes:
        name: Net name, e.g. ``"t0_l2m_17"``.
        kind: ``"l2m"`` (intra-tile logic-memory), ``"l2l"`` (inter-tile
            logic-logic), or ``"stacked_via"`` (glass 3D vertical link).
        length_mm: Routed wire length (vertical stacks count their
            physical via-stack height).
        vias: Via count along the net.
        layers: Signal layers the net touches (0 = topmost).
        path: Grid path [(layer, gy, gx), ...]; empty for stacked vias.
    """

    name: str
    kind: str
    length_mm: float
    vias: int
    layers: Set[int] = field(default_factory=set)
    path: List[Tuple[int, int, int]] = field(default_factory=list)

    def __getstate__(self):
        # A path pickles as one (n, 3) array rather than one tuple per
        # cell: the canonical pickler saves objects one at a time, so a
        # stored route then costs per net, not per route cell.  The
        # empty path of a stacked via stays an empty list, which costs
        # less than an empty array.
        state = dict(self.__dict__)
        if self.path:
            state["path"] = np.array(self.path, dtype=np.int32)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if isinstance(self.path, np.ndarray):
            self.path = [tuple(cell) for cell in self.path.tolist()]


@dataclass
class InterposerRoute:
    """Full interposer routing result (one Table IV column).

    Attributes:
        placement: The die placement that was routed.
        nets: All routed nets.
        signal_layers_used: Distinct signal layers carrying wires.
        overflow_cells: Cells where demand still exceeds capacity after
            rip-up/reroute (small residuals model local track sharing).
        stats: Phase timing / search counters (:class:`RouterStats`);
            ``None`` when the result was built by another engine (the
            test suite's scalar reference router).
    """

    placement: InterposerPlacement
    nets: List[RoutedNet]
    signal_layers_used: int
    overflow_cells: int
    stats: Optional[RouterStats] = None

    def routed_nets(self) -> List[RoutedNet]:
        """Nets with actual lateral routing (excludes stacked vias)."""
        return [n for n in self.nets if n.kind != "stacked_via"]

    def total_vias(self) -> int:
        """Total via count across all nets."""
        return sum(n.vias for n in self.nets)

    def longest_net(self, kind: Optional[str] = None) -> RoutedNet:
        """The longest net, optionally restricted to one kind."""
        pool = [n for n in self.nets if kind is None or n.kind == kind]
        if not pool:
            raise ValueError(f"no nets of kind {kind!r}")
        return max(pool, key=lambda n: n.length_mm)


class RoutingGrid:
    """3-D capacity/occupancy grid with pattern and maze search.

    Args:
        width_mm: Routable area width.
        height_mm: Routable area height.
        layers: Number of signal layers.
        wire_pitch_um: Minimum wire pitch (width + spacing).
        diagonal: Allow 45-degree moves (organic interposers).
        cell_um: Grid cell size.
    """

    def __init__(self, width_mm: float, height_mm: float, layers: int,
                 wire_pitch_um: float, diagonal: bool = False,
                 cell_um: float = CELL_UM):
        if layers < 1:
            raise ValueError("need at least one signal layer")
        self.nx = max(2, int(math.ceil(width_mm * 1000.0 / cell_um)))
        self.ny = max(2, int(math.ceil(height_mm * 1000.0 / cell_um)))
        self.layers = layers
        self.cell_um = cell_um
        self.diagonal = diagonal
        base_cap = max(1, int(cell_um / wire_pitch_um))
        self.capacity = np.full((layers, self.ny, self.nx), base_cap,
                                dtype=np.int32)
        self.occupancy = np.zeros_like(self.capacity)
        self._oracle: Optional[_DistanceFieldOracle] = None
        # Scratch arrays of the compiled A* and their addresses, made
        # on its first call (see _maze_astar); a kernel failure is
        # logged once per grid.
        self._astar_buf: Optional[Tuple[tuple, List[int]]] = None
        self._astar_failure_logged = False

    # ------------------------------------------------------------------ #
    # Setup.
    # ------------------------------------------------------------------ #

    def derate_region(self, x0_mm: float, y0_mm: float, x1_mm: float,
                      y1_mm: float, capacity: int) -> None:
        """Clamp capacity in a region (e.g. via blockage under a die)."""
        gx0 = max(0, int(x0_mm * 1000.0 / self.cell_um))
        gy0 = max(0, int(y0_mm * 1000.0 / self.cell_um))
        gx1 = min(self.nx, int(math.ceil(x1_mm * 1000.0 / self.cell_um)))
        gy1 = min(self.ny, int(math.ceil(y1_mm * 1000.0 / self.cell_um)))
        self.capacity[:, gy0:gy1, gx0:gx1] = np.minimum(
            self.capacity[:, gy0:gy1, gx0:gx1], capacity)

    def to_grid(self, x_mm: float, y_mm: float) -> Tuple[int, int]:
        """Convert mm coordinates to (gy, gx) grid indices."""
        gx = min(self.nx - 1, max(0, int(x_mm * 1000.0 / self.cell_um)))
        gy = min(self.ny - 1, max(0, int(y_mm * 1000.0 / self.cell_um)))
        return gy, gx

    def h_layers(self) -> List[int]:
        """Layers allowed to route horizontally."""
        if self.diagonal or self.layers == 1:
            return list(range(self.layers))
        return [l for l in range(self.layers) if l % 2 == 0]

    def v_layers(self) -> List[int]:
        """Layers allowed to route vertically."""
        if self.diagonal or self.layers == 1:
            return list(range(self.layers))
        return [l for l in range(self.layers) if l % 2 == 1]

    # ------------------------------------------------------------------ #
    # Occupancy bookkeeping.
    # ------------------------------------------------------------------ #

    def overflow_cells(self) -> int:
        """Number of cells whose demand exceeds capacity."""
        return int((self.occupancy > self.capacity).sum())

    # ------------------------------------------------------------------ #
    # Path cost.
    # ------------------------------------------------------------------ #

    def _path_cost_arrays(self, li: np.ndarray, yi: np.ndarray,
                          xi: np.ndarray) -> float:
        """Cost of a path, given as its (layer, y, x) index arrays,
        against current occupancy.

        Vectorized, but bit-identical to the per-cell reference loop
        (``tests/oracles``): the per-cell increments (step/via, then
        overflow penalty) are laid out in the scalar loop's order and
        reduced with ``np.add.accumulate``, whose strictly left-to-right
        evaluation reproduces every intermediate rounding of the Python
        loop.
        """
        over = (self.occupancy[li, yi, xi]
                >= self.capacity[li, yi, xi])
        n = len(li)
        if n == 1:
            return OVERFLOW_COST if over[0] else 0.0
        via = np.diff(li) != 0
        diag = (np.diff(yi) != 0) & (np.diff(xi) != 0)
        steps = np.where(via, VIA_COST,
                         np.where(diag, math.sqrt(2.0), 1.0))
        # Scalar order per cell k>=1: += step_k, += overflow_k.  The
        # overflow slots of clean cells add 0.0, which is exact, so the
        # accumulate replay keeps every partial sum bit-identical.
        inc = np.empty(2 * n - 1)
        inc[0] = OVERFLOW_COST if over[0] else 0.0
        inc[1::2] = steps
        inc[2::2] = np.where(over[1:], OVERFLOW_COST, 0.0)
        return float(np.add.accumulate(inc)[-1])

    # ------------------------------------------------------------------ #
    # Phase 1: pattern routing.
    # ------------------------------------------------------------------ #

    def pattern_cost_table(self, src: Tuple[int, int],
                           dst: Tuple[int, int]) -> np.ndarray:
        """Costs of every pattern candidate, in candidate order.

        Segment-based: no candidate is materialized.  Entry ``i`` equals
        the per-cell cost of candidate ``i`` of the scalar reference
        router (``tests/oracles``) bit-exactly (see
        :meth:`_pattern_costs_manhattan` / :meth:`_line_path_arrays` for
        why).  Candidates are the L-shapes over every (horizontal,
        vertical) layer pair, horizontal run first then vertical first,
        or on a diagonal grid one 8-direction line per layer.
        """
        sy, sx = src
        ty, tx = dst
        if not self.diagonal:
            return self._pattern_costs_manhattan(sy, sx, ty, tx)
        return np.array([
            self._path_cost_arrays(*self._line_path_arrays(
                layer, sy, sx, ty, tx))
            for layer in range(self.layers)])

    def best_pattern_route(self, src: Tuple[int, int],
                           dst: Tuple[int, int]
                           ) -> Tuple[List[Tuple[int, int, int]], float]:
        """Cheapest pattern candidate, materializing only the winner.

        Ties keep the earliest candidate (``np.argmin`` returns the
        first minimum), matching the scalar ``cost < best`` scan.
        """
        sy, sx = src
        ty, tx = dst
        costs = self.pattern_cost_table(src, dst)
        best = int(np.argmin(costs))
        if self.diagonal:
            li, yi, xi = self._line_path_arrays(best, sy, sx, ty, tx)
            path = list(zip(li.tolist(), yi.tolist(), xi.tolist()))
        else:
            v_layers = self.v_layers()
            pair, h_first = divmod(best, 2)
            hl = self.h_layers()[pair // len(v_layers)]
            vl = v_layers[pair % len(v_layers)]
            path = self._l_path(hl, vl, sy, sx, ty, tx, h_first == 0)
        return path, float(costs[best])

    def _pattern_costs_manhattan(self, sy: int, sx: int, ty: int,
                                 tx: int) -> np.ndarray:
        """Closed-form L-candidate costs from segment arithmetic.

        An L-path is five segments — start via column, first run, corner
        via column, second run, end via column — so its overflow count is
        five sums over ``occupancy >= capacity``, taken from via-column
        prefix sums and run sums along the two rows/columns candidates
        can use.  Revisited cells (zero-length runs) are counted once
        per segment, exactly as the scalar path enumeration does.  Steps,
        vias, and overflow penalties are all integer-valued, so the
        closed-form float total is bit-identical to the scalar sum.
        """
        occ, cap = self.occupancy, self.capacity
        xlo, xhi = (sx, tx) if sx <= tx else (tx, sx)
        ylo, yhi = (sy, ty) if sy <= ty else (ty, sy)
        row_s = occ[:, sy, xlo:xhi + 1] >= cap[:, sy, xlo:xhi + 1]
        row_t = occ[:, ty, xlo:xhi + 1] >= cap[:, ty, xlo:xhi + 1]
        col_s = occ[:, ylo:yhi + 1, sx] >= cap[:, ylo:yhi + 1, sx]
        col_t = occ[:, ylo:yhi + 1, tx] >= cap[:, ylo:yhi + 1, tx]
        # Via-column prefixes: pv[l] = overflowing cells on layers < l.
        zero = np.zeros(1, dtype=np.int64)
        pv_s = np.concatenate((zero, np.cumsum(col_s[:, sy - ylo])))
        pv_ct = np.concatenate((zero, np.cumsum(col_t[:, sy - ylo])))
        pv_cs = np.concatenate((zero, np.cumsum(col_s[:, ty - ylo])))
        pv_d = np.concatenate((zero, np.cumsum(col_t[:, ty - ylo])))
        # Run sums exclude the run's start cell (the path enters on the
        # cell after it), i.e. whole extent minus the source endpoint.
        run_h_s = row_s.sum(axis=1) - row_s[:, sx - xlo]
        run_h_t = row_t.sum(axis=1) - row_t[:, sx - xlo]
        run_v_s = col_s.sum(axis=1) - col_s[:, sy - ylo]
        run_v_t = col_t.sum(axis=1) - col_t[:, sy - ylo]

        h_arr = np.asarray(self.h_layers(), dtype=np.int64)
        v_arr = np.asarray(self.v_layers(), dtype=np.int64)
        HL = np.repeat(h_arr, len(v_arr))
        VL = np.tile(v_arr, len(h_arr))

        def corner(pv: np.ndarray, frm: np.ndarray,
                   to: np.ndarray) -> np.ndarray:
            # Descend frm -> to: cells (frm..to], i.e. to inclusive,
            # frm exclusive, in either direction.
            return np.where(to > frm, pv[to + 1] - pv[frm + 1],
                            np.where(to < frm, pv[frm] - pv[to], 0))

        over_h = (pv_s[HL + 1] + run_h_s[HL] + corner(pv_ct, HL, VL)
                  + run_v_t[VL] + pv_d[VL])
        over_v = (pv_s[VL + 1] + run_v_s[VL] + corner(pv_cs, VL, HL)
                  + run_h_t[HL] + pv_d[HL])
        steps = abs(tx - sx) + abs(ty - sy)
        vias = HL + np.abs(VL - HL) + VL
        base = steps + int(VIA_COST) * vias
        costs = np.empty(2 * len(HL), dtype=np.float64)
        costs[0::2] = base + int(OVERFLOW_COST) * over_h
        costs[1::2] = base + int(OVERFLOW_COST) * over_v
        return costs

    def _l_path(self, hl: int, vl: int, sy: int, sx: int, ty: int, tx: int,
                h_first: bool) -> List[Tuple[int, int, int]]:
        """L-shaped path: horizontal on ``hl``, vertical on ``vl``."""
        path: List[Tuple[int, int, int]] = [(0, sy, sx)]

        def descend(to_layer: int, y: int, x: int):
            cur = path[-1][0]
            step = 1 if to_layer > cur else -1
            for l in range(cur + step, to_layer + step, step):
                path.append((l, y, x))

        def run_h(layer: int, y: int, x0: int, x1: int):
            step = 1 if x1 >= x0 else -1
            for x in range(x0 + step, x1 + step, step):
                path.append((layer, y, x))

        def run_v(layer: int, x: int, y0: int, y1: int):
            step = 1 if y1 >= y0 else -1
            for y in range(y0 + step, y1 + step, step):
                path.append((layer, y, x))

        if h_first:
            descend(hl, sy, sx)
            run_h(hl, sy, sx, tx)
            descend(vl, sy, tx)
            run_v(vl, tx, sy, ty)
        else:
            descend(vl, sy, sx)
            run_v(vl, sx, sy, ty)
            descend(hl, ty, sx)
            run_h(hl, ty, sx, tx)
        descend(0, ty, tx)
        return path

    def _line_path_arrays(self, layer: int, sy: int, sx: int, ty: int,
                          tx: int
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 8-direction line from ``(sy, sx)`` to ``(ty, tx)`` on one
        layer, with its via stacks down to layer 0 at both ends, as
        (layer, y, x) index arrays.

        The line steps diagonally while both coordinates still differ,
        then straight: cell ``k`` sits at ``s + sign * min(k, |delta|)``
        per axis.
        """
        ady, adx = abs(ty - sy), abs(tx - sx)
        n = max(ady, adx)
        k = np.arange(1, n + 1)
        ys = sy + ((ty > sy) - (ty < sy)) * np.minimum(k, ady)
        xs = sx + ((tx > sx) - (tx < sx)) * np.minimum(k, adx)
        li = np.concatenate((np.arange(0, layer + 1),
                             np.full(n, layer, dtype=np.intp),
                             np.arange(layer - 1, -1, -1)))
        yi = np.concatenate((np.full(layer + 1, sy, dtype=np.intp), ys,
                             np.full(layer, ty, dtype=np.intp)))
        xi = np.concatenate((np.full(layer + 1, sx, dtype=np.intp), xs,
                             np.full(layer, tx, dtype=np.intp)))
        return li, yi, xi

    # ------------------------------------------------------------------ #
    # Phase 2: maze search.
    # ------------------------------------------------------------------ #

    def _layer_dirs(self, layer: int) -> Sequence[Tuple[int, int]]:
        if self.diagonal:
            return ((0, 1), (0, -1), (1, 0), (-1, 0),
                    (1, 1), (1, -1), (-1, 1), (-1, -1))
        if self.layers == 1:
            return ((0, 1), (0, -1), (1, 0), (-1, 0))
        if layer % 2 == 0:
            return ((0, 1), (0, -1))
        return ((1, 0), (-1, 0))

    def maze_route(self, src: Tuple[int, int], dst: Tuple[int, int],
                   max_nodes: int = MAZE_NODE_BUDGET
                   ) -> Optional[List[Tuple[int, int, int]]]:
        """Congestion-aware A* from src to dst (both enter on layer 0).

        On Manhattan grids the search is solved by the distance-field
        engine (:class:`_DistanceFieldOracle`); on diagonal grids it runs
        the compiled port of the scalar A*.  Without a C compiler, or if
        the compiled A* fails, the scalar A* itself runs.  The result (path,
        or ``None`` on node-budget exhaustion) is bit-identical to
        :meth:`maze_route_scalar` on every engine.
        """
        path, _nodes, _engine = self._maze_route_info(src, dst, max_nodes)
        return path

    def _maze_route_info(self, src: Tuple[int, int], dst: Tuple[int, int],
                         max_nodes: int
                         ) -> Tuple[Optional[List[Tuple[int, int, int]]],
                                    int, str]:
        """:meth:`maze_route` plus (node count, engine) for stats.

        The engine is ``"oracle"``, ``"astar"`` (the compiled A*) or
        ``"scalar"``; the scalar A* reports 0 nodes.
        """
        kernel = _load_maze_kernel()
        if kernel is None:
            return self.maze_route_scalar(src, dst, max_nodes), 0, "scalar"
        if not self.diagonal:
            oracle = self._oracle
            if oracle is None:
                oracle = self._oracle = _DistanceFieldOracle(self, kernel)
            try:
                path, nodes = oracle.route(src, dst, max_nodes)
                return path, nodes, "oracle"
            except Exception:  # pragma: no cover — safety fallback
                _LOG.exception("distance-field maze engine failed; "
                               "falling back to the compiled A*")
        try:
            path, nodes = self._maze_astar(kernel, src, dst, max_nodes)
            return path, nodes, "astar"
        except RuntimeError as exc:
            if not self._astar_failure_logged:
                self._astar_failure_logged = True
                _LOG.warning("%s; falling back to scalar A*", exc)
        return self.maze_route_scalar(src, dst, max_nodes), 0, "scalar"

    def _maze_astar(self, kernel, src: Tuple[int, int],
                    dst: Tuple[int, int], max_nodes: int
                    ) -> Tuple[Optional[List[Tuple[int, int, int]]], int]:
        """:meth:`maze_route_scalar` run by the compiled ``maze_astar``.

        Returns (path or ``None``, expansions); raises ``RuntimeError``
        when the kernel reports a failure.  The kernel's scratch arrays
        live on the grid and come back reset from every call.
        """
        sy, sx = src
        ty, tx = dst
        ny, nx = self.ny, self.nx
        if not (0 <= sy < ny and 0 <= sx < nx
                and 0 <= ty < ny and 0 <= tx < nx):
            raise ValueError(f"maze endpoints {src}, {dst} lie outside "
                             f"the {ny}x{nx} grid")
        if self._astar_buf is None:
            n = self.layers * ny * nx
            arrays = (np.empty(self.capacity.shape, dtype=bool),  # over
                      np.full(n, np.inf),                      # dist
                      np.full(n, -1, dtype=np.int32),          # prev
                      np.zeros(n, dtype=np.uint8),             # visited
                      np.empty(n, dtype=np.int32),             # touched
                      np.empty(n, dtype=np.int32),             # path
                      np.zeros(2, dtype=np.int64))             # out
            self._astar_buf = (arrays, [a.ctypes.data for a in arrays])
        (over, _dist, _prev, _visited, _touched, chain, out), addr = \
            self._astar_buf
        np.greater_equal(self.occupancy, self.capacity, out=over)
        status = kernel.astar(
            addr[0], addr[1], addr[2], addr[3], addr[4],
            self.layers, ny, nx, self.diagonal,
            int(sy), int(sx), int(ty), int(tx), max_nodes,
            VIA_COST, OVERFLOW_COST, math.sqrt(2.0), addr[5], addr[6])
        if status < 0:
            raise RuntimeError(f"compiled maze A* failed (code {status})")
        if status == 0:
            return None, int(out[0])
        l, rem = np.divmod(chain[:out[1]], ny * nx)
        y, x = np.divmod(rem, nx)
        return list(zip(l.tolist(), y.tolist(), x.tolist())), int(out[0])

    def maze_route_scalar(self, src: Tuple[int, int],
                          dst: Tuple[int, int],
                          max_nodes: int = MAZE_NODE_BUDGET
                          ) -> Optional[List[Tuple[int, int, int]]]:
        """The scalar heap A*: the reference every maze engine matches.

        It is also the router's one portable search, run when no C
        compiler is available.  States are flat grid indices
        ``(l * ny + y) * nx + x``.  Flat indices order exactly like
        ``(l, y, x)`` tuples, so the heap's tie-breaking — and therefore
        the returned path — is identical to the tuple-keyed
        implementation, at a fraction of the per-node cost: the
        over-capacity map is one snapshot bytes lookup instead of two
        numpy scalar reads per neighbor, and dict/set/heap keys are
        small ints.  Manhattan grids run the integer-key search
        (:meth:`_maze_route_manhattan`); the float-keyed heap below
        serves diagonal grids, with the octile heuristic.
        """
        sy, sx = src
        ty, tx = dst
        nx = self.nx
        ny = self.ny
        plane = ny * nx
        start = sy * nx + sx  # layer 0
        goal = ty * nx + tx
        # Snapshot of over-capacity cells; occupancy is fixed during one
        # search (commits happen between maze calls).
        over = (self.occupancy >= self.capacity).tobytes()
        sq2 = math.sqrt(2.0)
        top = self.layers - 1
        # Per-layer lateral moves as (flat-delta, dy, dx, step-cost), in
        # the same order _layer_dirs yields them.
        moves = [[(dy * nx + dx, dy, dx, sq2 if (dy and dx) else 1.0)
                  for dy, dx in self._layer_dirs(l)]
                 for l in range(self.layers)]

        if not self.diagonal:
            return self._maze_route_manhattan(start, goal, ty, tx, over,
                                              moves, max_nodes)

        ay0 = sy - ty if sy >= ty else ty - sy
        ax0 = sx - tx if sx >= tx else tx - sx
        h0 = max(ay0, ax0) + 0.41421 * min(ay0, ax0)
        # Heap entries carry (y, x) after the flat index purely to avoid
        # re-deriving them on pop; they can never participate in tuple
        # comparison because two entries with the same index always
        # differ in g (a re-push requires a strictly smaller g).
        dist: Dict[int, float] = {start: 0.0}
        prev: Dict[int, int] = {}
        pq = [(h0, 0.0, start, sy, sx)]
        visited: Set[int] = set()
        expansions = 0
        inf = math.inf
        via_cost = VIA_COST
        via_over = VIA_COST + OVERFLOW_COST
        over_cost = OVERFLOW_COST
        heappop = heapq.heappop
        heappush = heapq.heappush
        dist_get = dist.get
        while pq:
            f, g, state, y, x = heappop(pq)
            if state in visited:
                continue
            visited.add(state)
            expansions += 1
            if expansions > max_nodes:
                return None
            if state == goal:
                chain = [state]
                while chain[-1] in prev:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                path = []
                for idx in chain:
                    l, rem = divmod(idx, plane)
                    cy, cx = divmod(rem, nx)
                    path.append((l, cy, cx))
                return path
            l = state // plane
            for didx, dy, dx, step in moves[l]:
                yy = y + dy
                xx = x + dx
                if 0 <= yy < ny and 0 <= xx < nx:
                    nstate = state + didx
                    ng = g + (step + over_cost if over[nstate] else step)
                    if ng < dist_get(nstate, inf):
                        dist[nstate] = ng
                        prev[nstate] = state
                        ay = yy - ty if yy >= ty else ty - yy
                        ax = xx - tx if xx >= tx else tx - xx
                        hh = max(ay, ax) + 0.41421 * min(ay, ax)
                        heappush(pq, (ng + hh, ng, nstate, yy, xx))
            if l > 0 or l < top:
                ay = y - ty if y >= ty else ty - y
                ax = x - tx if x >= tx else tx - x
                hh = max(ay, ax) + 0.41421 * min(ay, ax)
                if l > 0:
                    nstate = state - plane
                    ng = g + (via_over if over[nstate] else via_cost)
                    if ng < dist_get(nstate, inf):
                        dist[nstate] = ng
                        prev[nstate] = state
                        heappush(pq, (ng + hh, ng, nstate, y, x))
                if l < top:
                    nstate = state + plane
                    ng = g + (via_over if over[nstate] else via_cost)
                    if ng < dist_get(nstate, inf):
                        dist[nstate] = ng
                        prev[nstate] = state
                        heappush(pq, (ng + hh, ng, nstate, y, x))
        return None

    def _maze_route_manhattan(self, start: int, goal: int, ty: int, tx: int,
                              over: bytes, moves, max_nodes: int
                              ) -> Optional[List[Tuple[int, int, int]]]:
        """Integer-key A* for preferred-direction (Manhattan) grids.

        Every edge cost (step 1, via 3, overflow +12) and the Manhattan
        heuristic are integers, so the heap's ``(f, g, index)`` ordering
        can be packed into one int ``((f << g_bits) | g) << idx_bits |
        index`` — single C int comparisons during sifts instead of
        tuple-of-float compares, with bit-identical pop order and
        therefore identical paths.
        """
        nx = self.nx
        ny = self.ny
        plane = ny * nx
        top = self.layers - 1
        n_states = self.layers * plane
        idx_bits = n_states.bit_length()
        # g is bounded by the worst edge cost times the pop budget (dist
        # grows by <= 15 per finalized node), plus the start heuristic.
        g_bits = (15 * (max_nodes + 2) + ny + nx).bit_length()
        idx_mask = (1 << idx_bits) - 1
        g_mask = (1 << g_bits) - 1
        via = int(VIA_COST)
        via_over = via + int(OVERFLOW_COST)
        step_over = 1 + int(OVERFLOW_COST)
        int_moves = [[(didx, dy, dx) for didx, dy, dx, _ in per_layer]
                     for per_layer in moves]

        # state -> (layer, y, x) decode tables, built once per grid
        # shape: the search pops millions of nodes and two divmods per
        # pop are measurable.
        decode = getattr(self, "_decode", None)
        if decode is None or len(decode[0]) != n_states:
            l_of = [s // plane for s in range(n_states)]
            y_of = [(s % plane) // nx for s in range(n_states)]
            x_of = [s % nx for s in range(n_states)]
            decode = self._decode = (l_of, y_of, x_of)
        l_of, y_of, x_of = decode

        sy = y_of[start]
        sx = x_of[start]
        h0 = (sy - ty if sy >= ty else ty - sy) \
            + (sx - tx if sx >= tx else tx - sx)
        # Flat per-state tables instead of dict/set bookkeeping: the
        # grid is small (tens of thousands of states), so the C-level
        # fills are ~free and each access saves a hash lookup.
        big = 1 << 62
        dist = [big] * n_states
        dist[start] = 0
        prev = [-1] * n_states
        closed = bytearray(n_states)
        pq = [((h0 << g_bits) << idx_bits) | start]
        expansions = 0
        heappop = heapq.heappop
        heappush = heapq.heappush
        while pq:
            key = heappop(pq)
            state = key & idx_mask
            if closed[state]:
                continue
            closed[state] = 1
            expansions += 1
            if expansions > max_nodes:
                return None
            if state == goal:
                chain = [state]
                while prev[chain[-1]] >= 0:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                return [(l_of[idx], y_of[idx], x_of[idx])
                        for idx in chain]
            g = (key >> idx_bits) & g_mask
            l = l_of[state]
            y = y_of[state]
            x = x_of[state]
            for didx, dy, dx in int_moves[l]:
                yy = y + dy
                xx = x + dx
                if 0 <= yy < ny and 0 <= xx < nx:
                    nstate = state + didx
                    ng = g + (step_over if over[nstate] else 1)
                    if ng < dist[nstate]:
                        dist[nstate] = ng
                        prev[nstate] = state
                        hh = (yy - ty if yy >= ty else ty - yy) \
                            + (xx - tx if xx >= tx else tx - xx)
                        heappush(pq, ((((ng + hh) << g_bits) | ng)
                                      << idx_bits) | nstate)
            if l > 0 or l < top:
                hh = (y - ty if y >= ty else ty - y) \
                    + (x - tx if x >= tx else tx - x)
                if l > 0:
                    nstate = state - plane
                    ng = g + (via_over if over[nstate] else via)
                    if ng < dist[nstate]:
                        dist[nstate] = ng
                        prev[nstate] = state
                        heappush(pq, ((((ng + hh) << g_bits) | ng)
                                      << idx_bits) | nstate)
                if l < top:
                    nstate = state + plane
                    ng = g + (via_over if over[nstate] else via)
                    if ng < dist[nstate]:
                        dist[nstate] = ng
                        prev[nstate] = state
                        heappush(pq, ((((ng + hh) << g_bits) | ng)
                                      << idx_bits) | nstate)
        return None


class _DistanceFieldOracle:
    """Maze A* solved as one Dijkstra distance field (Manhattan grids).

    The scalar maze search is A* with a consistent heuristic and a
    closed set: every pop finalizes a state at its true distance, pops
    are ordered by the key ``(f, g, flat index)``, and ``prev`` links
    record, for each state, the optimal parent that was finalized
    earliest.  That makes the whole search a *function of the distance
    field* ``D``:

    * the returned path is reconstructed backwards from the goal by
      picking, among parents ``p`` with ``D[p] + w(p, cur) == D[cur]``,
      the one with the smallest pop key;
    * the expansion count equals ``|{s : key(s) < key(goal)}| + 1``,
      which reduces to ``|{f < F}| + |{f == F, g < F}| + 1`` because the
      goal (layer 0) has the smallest flat index of its zero-heuristic
      column — so node-budget exhaustion is predicted exactly.

    ``D`` itself comes from the compiled dial Dijkstra
    (:mod:`repro._kernel`) over the A*-reweighted edge graph
    (``w' = w + h(v) - h(u)`` ≥ 0 by consistency), which returns
    ``Dp = D + h - h0`` and stops once the goal's distance level has
    drained, so one sweep costs about the size of the A* search
    ellipse rather than the grid.  The kernel's int32 distance, done
    and bucket-link scratch persists across calls and is reset through
    its touched list; no result does, since every maze call of a route
    sees different overflow flags.
    """

    def __init__(self, grid: RoutingGrid, kernel):
        self.grid = grid
        self.via = int(VIA_COST)
        self.over_cost = int(OVERFLOW_COST)
        L, ny, nx = grid.layers, grid.ny, grid.nx
        self.L, self.ny, self.nx = L, ny, nx
        n = L * ny * nx
        self.n = n
        self._kernel = kernel
        self._kdist = np.full(n, -1, dtype=np.int32)
        self._kdone = np.zeros(n, dtype=np.uint8)
        self._knxt = np.empty(n, dtype=np.int32)
        self._kprv = np.empty(n, dtype=np.int32)
        self._ktouched = np.empty(n, dtype=np.int32)
        self._kout = np.empty(3, dtype=np.int64)
        self._nt_prev = 0
        self.fields_built = 0

    def route(self, src: Tuple[int, int], dst: Tuple[int, int],
              max_nodes: int
              ) -> Tuple[Optional[List[Tuple[int, int, int]]], int]:
        """Exact maze result: (path or None, A* expansion count).

        Every call runs one sweep over the current overflow flags.  An
        unreachable goal gives ``(None, 0)``; a search whose predicted
        expansion count exceeds ``max_nodes`` gives ``(None, count)``
        without reconstructing the path.
        """
        sy, sx = src
        ty, tx = dst
        g = self.grid
        # Over-capacity flags in (y, l, x) state order.
        over = (g.occupancy >= g.capacity).transpose(1, 0, 2).reshape(-1)
        self.fields_built += 1
        L, nx = self.L, self.nx
        s, nfin = self._kernel_sweep(over, (sy * L) * nx + sx, ty, tx)
        if s < 0:
            return None, 0
        Dp = self._kdist
        # Expansions = finalized states popped up to and including the
        # goal.  The goal's zero-heuristic column ((l, ty, tx) states)
        # ties the goal key in f and g but never precedes it in index.
        # The dial drains the goal's whole distance level before
        # stopping, so the finalized set is exactly {Dp <= s} and nfin
        # already equals count(Dp < s) + count(Dp == s).
        goal_col = Dp[ty * nx * L + tx::nx][:L]
        expansions = nfin - int(np.count_nonzero(goal_col == s)) + 1
        if expansions > max_nodes:
            return None, expansions
        return self._reconstruct(over, Dp, sy, sx, ty, tx), expansions

    def _kernel_sweep(self, over: np.ndarray, start: int, ty: int,
                      tx: int) -> Tuple[int, int]:
        """One dial-Dijkstra sweep; returns (goal distance, finalized)."""
        self._kernel.dial(
            over.ctypes.data, self._kdist.ctypes.data,
            self._kdone.ctypes.data, self._knxt.ctypes.data,
            self._kprv.ctypes.data, self._ktouched.ctypes.data,
            self._nt_prev, self.n, self.L, self.ny, self.nx,
            start, ty, tx, self.via, self.over_cost,
            self._kout.ctypes.data)
        self._nt_prev = int(self._kout[2])
        return int(self._kout[0]), int(self._kout[1])

    def _reconstruct(self, over: np.ndarray, Dp: np.ndarray, sy: int,
                     sx: int, ty: int, tx: int
                     ) -> List[Tuple[int, int, int]]:
        """Walk the distance field backwards along scalar-A* prev links.

        At each step the parent is the neighbor ``p`` with
        ``D[p] + w(p, cur) == D[cur]`` (exact float compare — every
        quantity is an integer-valued float) minimizing the pop key
        ``(f, g, flat index)``; ``Dp = D + h - h0`` shifts f and g by
        the same constant, leaving the order unchanged.
        """
        L, nx, ny = self.L, self.nx, self.ny
        plane = ny * nx
        nxL = nx * L
        oc = float(self.over_cost)
        via = float(self.via)
        cur = (ty * L) * nx + tx
        start = (sy * L) * nx + sx
        cl, cy, cx = 0, ty, tx  # coordinates of cur
        rev = [(0, ty, tx)]
        while cur != start:
            enter = oc if over[cur] else 0.0
            w_lat = 1.0 + enter
            w_via = via + enter
            target = Dp[cur] - (abs(cy - ty) + abs(cx - tx))
            cand = []
            if L == 1 or cl % 2 == 0:
                if cx > 0:
                    cand.append((cur - 1, w_lat, cl, cy, cx - 1))
                if cx < nx - 1:
                    cand.append((cur + 1, w_lat, cl, cy, cx + 1))
            if L == 1 or cl % 2 == 1:
                if cy > 0:
                    cand.append((cur - nxL, w_lat, cl, cy - 1, cx))
                if cy < ny - 1:
                    cand.append((cur + nxL, w_lat, cl, cy + 1, cx))
            if cl > 0:
                cand.append((cur - nx, w_via, cl - 1, cy, cx))
            if cl < L - 1:
                cand.append((cur + nx, w_via, cl + 1, cy, cx))
            best_key = None
            best = None
            for p, w, pl, py, px in cand:
                if Dp[p] < 0:  # int32 fields mark unreached as -1
                    continue
                hp = abs(py - ty) + abs(px - tx)
                if Dp[p] - hp + w == target:
                    key = (Dp[p], Dp[p] - hp,
                           pl * plane + py * nx + px)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (p, pl, py, px)
            if best is None:
                raise RuntimeError("distance-field reconstruction found "
                                   "no optimal parent")
            cur, cl, cy, cx = best
            rev.append((cl, cy, cx))
        rev.reverse()
        return rev


def _die_escape_capacity(spec: InterposerSpec,
                         cell_um: float = CELL_UM) -> int:
    """Track capacity per cell per layer under a die (via-land blockage)."""
    pitch = spec.microbump_pitch_um
    usable = max(0.0, pitch - spec.via_size_um)
    tracks_per_gap = usable / spec.wire_pitch_um
    per_cell = tracks_per_gap * (cell_um / pitch)
    return max(1, int(per_cell))


def _facing_bumps(die: PlacedDie, plan_positions: List[Tuple[float, float]],
                  count: int,
                  toward: Tuple[float, float]) -> List[Tuple[float, float]]:
    """The ``count`` signal-bump sites of a die nearest a partner die."""
    scored = sorted(
        plan_positions,
        key=lambda p: (abs(die.x_mm + p[0] / 1000.0 - toward[0])
                       + abs(die.y_mm + p[1] / 1000.0 - toward[1])))
    return scored[:count]


def _pair_sites(die_a: PlacedDie, sites_a: List[Tuple[float, float]],
                die_b: PlacedDie, sites_b: List[Tuple[float, float]]):
    """Pair bump sites of two dies in matched geometric order.

    Both site lists are sorted by the coordinate perpendicular to the
    die-to-die axis, so pairings do not cross (planar escape).
    Returns [(src_mm, dst_mm), ...] in interposer coordinates.
    """
    ax, ay = die_a.center
    bx, by = die_b.center
    horizontal = abs(bx - ax) >= abs(by - ay)

    def key(site):
        return site[1] if horizontal else site[0]

    sa = sorted(sites_a, key=key)
    sb = sorted(sites_b, key=key)
    out = []
    for pa, pb in zip(sa, sb):
        out.append((die_a.bump_position_mm(*pa),
                    die_b.bump_position_mm(*pb)))
    return out


def _path_to_net_arrays(name: str, kind: str,
                        path: List[Tuple[int, int, int]],
                        li: np.ndarray, yi: np.ndarray, xi: np.ndarray,
                        cell_um: float) -> RoutedNet:
    """A :class:`RoutedNet` from a path and its pre-split index arrays.

    The length is bit-identical to the per-step scalar sum: the lateral
    step lengths are accumulated left to right, and via steps
    contribute exact 0.0 terms.
    """
    if len(li) == 1:
        return RoutedNet(name=name, kind=kind, length_mm=0.0, vias=2,
                         layers={int(li[0])}, path=path)
    via = np.diff(li) != 0
    diag = (np.diff(yi) != 0) & (np.diff(xi) != 0)
    steps = np.where(via, 0.0, np.where(diag, math.sqrt(2.0), 1.0))
    length_cells = float(np.add.accumulate(steps)[-1])
    return RoutedNet(name=name, kind=kind,
                     length_mm=length_cells * cell_um / 1000.0,
                     vias=int(via.sum()) + 2,
                     layers=set(np.unique(li).tolist()), path=path)


def _manhattan_mm(job) -> float:
    """Phase-1 ordering key: bump-to-bump Manhattan distance in mm."""
    _, _, s, d = job
    return abs(s[0] - d[0]) + abs(s[1] - d[1])


class PinLink(NamedTuple):
    """One bundle of ``count`` nets from die ``die_a`` to die ``die_b``.

    ``kind`` is the net class (``"l2m"``/``"l2l"``) and the nets are
    named ``<stem>_0`` .. ``<stem>_<count-1>``.
    """

    die_a: str
    die_b: str
    kind: str
    count: int
    stem: str


def tile_links(placement: InterposerPlacement, l2m_signals: int = 231,
               l2l_signals: int = 68) -> List[PinLink]:
    """The paper's link bundles on a tiled logic/memory placement.

    Per tile, ``l2m_signals`` logic-to-memory nets (``t<tile>_l2m_*``);
    between consecutive tiles, ``l2l_signals`` logic-to-logic nets
    (``t<a><b>_l2l_*``).  The paper has 231 and 68 (post-SerDes).
    """
    tiles = sorted({d.tile for d in placement.dies})
    links = [PinLink(placement.die(t, "logic").name,
                     placement.die(t, "memory").name, "l2m", l2m_signals,
                     f"t{t}_l2m") for t in tiles]
    links += [PinLink(placement.die(a, "logic").name,
                      placement.die(b, "logic").name, "l2l", l2l_signals,
                      f"t{a}{b}_l2l")
              for a, b in zip(tiles[:-1], tiles[1:])]
    return links


def _tile_problem(placement: InterposerPlacement,
                  logic_bumps: List[Tuple[float, float]],
                  memory_bumps: List[Tuple[float, float]],
                  l2m_signals: int, l2l_signals: int):
    """:func:`_pin_problem` of the paper's :func:`tile_links`, every die
    of a kind sharing that kind's bump sites."""
    pin_map = {d.name: logic_bumps if d.kind == "logic" else memory_bumps
               for d in placement.dies}
    return _pin_problem(placement, pin_map,
                        tile_links(placement, l2m_signals, l2l_signals))


def route_interposer(placement: InterposerPlacement,
                     logic_bumps: List[Tuple[float, float]],
                     memory_bumps: List[Tuple[float, float]],
                     l2m_signals: int = 231,
                     l2l_signals: int = 68) -> InterposerRoute:
    """Route the paper's tile links (:func:`tile_links`) on the interposer.

    The paper-signature form of :func:`route_interposer_pins`; its
    nets, overflow and layer usage are bit-identical to the scalar
    golden router of the test suite, and the result carries a
    :class:`RouterStats` phase breakdown.

    Args:
        placement: Die arrangement (must not be a TSV stack).
        logic_bumps: Die-local signal bump positions of the logic chiplet
            (um), from its :class:`~repro.chiplet.bumps.BumpPlan`.
        memory_bumps: Same for the memory chiplet.
        l2m_signals: Logic-to-memory nets per tile (231 in the paper).
        l2l_signals: Logic-to-logic nets between tiles (68 post-SerDes).

    Returns:
        An :class:`InterposerRoute` with per-net lengths/vias/layers.
    """
    return _route_with_grid(placement, *_tile_problem(
        placement, logic_bumps, memory_bumps, l2m_signals, l2l_signals))


def _route_with_grid(placement: InterposerPlacement, grid: RoutingGrid,
                     stacked: List[RoutedNet],
                     todo: List[Tuple[str, str, Tuple[float, float],
                                      Tuple[float, float]]]
                     ) -> InterposerRoute:
    """Vectorized router engine over a prepared problem: the grid,
    pre-routed stacked vias and lateral jobs of :func:`_pin_problem`."""
    stats = RouterStats()
    nx = grid.nx
    plane = grid.ny * nx
    occ_flat = grid.occupancy.reshape(-1)
    cap_flat = grid.capacity.reshape(-1)

    # ---- phase 1: pattern route, shortest first ----------------------- #
    t0 = time.perf_counter()
    routed: Dict[str, RoutedNet] = {}
    # Per-net flat cell indices, kept for incremental occupancy commits
    # and the batched overflow scan of phase 2.
    paths: Dict[str, np.ndarray] = {}
    for name, kind, s_mm, d_mm in sorted(todo, key=_manhattan_mm):
        src = grid.to_grid(*s_mm)
        dst = grid.to_grid(*d_mm)
        path, _cost = grid.best_pattern_route(src, dst)
        arr = np.asarray(path, dtype=np.intp)
        li, yi, xi = arr[:, 0], arr[:, 1], arr[:, 2]
        flat = (li * plane + yi * nx) + xi
        np.add.at(occ_flat, flat, 1)
        routed[name] = _path_to_net_arrays(name, kind, path, li, yi, xi,
                                           grid.cell_um)
        paths[name] = flat
    stats.nets_pattern_routed = len(routed)
    stats.pattern_time_s = time.perf_counter() - t0

    # ---- phase 2: rip-up and reroute overflowing nets ------------------ #
    t0 = time.perf_counter()
    maze_node_counts: List[int] = []
    for _round in range(RRR_ROUNDS if routed else 0):
        # One batched gather over every routed cell replaces per-net
        # overflow scans: segment-reduce the strict overflow flags back
        # to per-net "any" bits.
        names = list(routed)
        flats = [paths[nm] for nm in names]
        offsets = np.zeros(len(flats), dtype=np.intp)
        np.cumsum([f.size for f in flats[:-1]], out=offsets[1:])
        all_idx = np.concatenate(flats)
        over_any = np.add.reduceat(
            occ_flat[all_idx] > cap_flat[all_idx], offsets)
        victims = [routed[nm]
                   for nm, hit in zip(names, over_any) if hit]
        if not victims:
            break
        stats.rrr_rounds += 1
        victims.sort(key=lambda n: -n.length_mm)
        for net in victims:
            np.add.at(occ_flat, paths[net.name], -1)
            src = (net.path[0][1], net.path[0][2])
            dst = (net.path[-1][1], net.path[-1][2])
            t_m = time.perf_counter()
            path, nodes, _engine = grid._maze_route_info(
                src, dst, MAZE_NODE_BUDGET)
            stats.maze_time_s += time.perf_counter() - t_m
            stats.maze_calls += 1
            stats.nets_rerouted += 1
            stats.maze_nodes += nodes
            maze_node_counts.append(nodes)
            if path is None:
                stats.maze_fallbacks += 1
                path = net.path  # keep the pattern route
            arr = np.asarray(path, dtype=np.intp)
            li, yi, xi = arr[:, 0], arr[:, 1], arr[:, 2]
            flat = (li * plane + yi * nx) + xi
            np.add.at(occ_flat, flat, 1)
            routed[net.name] = _path_to_net_arrays(
                net.name, net.kind, path, li, yi, xi, grid.cell_um)
            paths[net.name] = flat
    stats.rrr_time_s = time.perf_counter() - t0
    if maze_node_counts:
        stats.maze_nodes_per_call_p50 = float(
            np.percentile(maze_node_counts, 50))
        stats.maze_nodes_per_call_p99 = float(
            np.percentile(maze_node_counts, 99))
    if grid._oracle is not None:
        stats.fields_built = grid._oracle.fields_built
    if stats.maze_fallbacks:
        _LOG.warning(
            "interposer %s: %d of %d maze reroutes failed (node budget "
            "%d); those nets keep their overflowing pattern routes",
            placement.spec.name, stats.maze_fallbacks, stats.maze_calls,
            MAZE_NODE_BUDGET)

    nets = stacked + list(routed.values())
    layers_used: Set[int] = set()
    for n in nets:
        layers_used |= n.layers
    stats.overflow_cells = grid.overflow_cells()
    return InterposerRoute(placement=placement, nets=nets,
                           signal_layers_used=len(layers_used),
                           overflow_cells=stats.overflow_cells,
                           stats=stats)


def _pin_problem(placement: InterposerPlacement,
                 pin_map: Dict[str, List[Tuple[float, float]]],
                 links: Sequence[PinLink]
                 ) -> Tuple[RoutingGrid, List[RoutedNet],
                            List[Tuple[str, str, Tuple[float, float],
                                       Tuple[float, float]]]]:
    """Build a routing problem from die pin maps and link bundles.

    Takes a die-name → signal-bump-site map plus pairwise link bundles
    (the paper's :func:`tile_links`, or the bundles an N-way partition
    cuts).  Links whose endpoint dies sit at different levels (a die
    embedded beneath its partner) become pre-routed stacked vias;
    lateral links become pattern/maze jobs.  A bundle is capped at the
    facing signal-site count of its smaller endpoint.

    Returns:
        ``(grid, stacked, todo)`` for the router engines.
    """
    spec = placement.spec
    if spec.style is IntegrationStyle.TSV_STACK:
        raise ValueError("silicon 3D has no interposer to route; use the "
                         "3D interconnect models instead")
    signal_layers = max(1, spec.metal_layers - 2)  # 2 reserved for PDN
    grid = RoutingGrid(placement.width_mm, placement.height_mm,
                       signal_layers, spec.wire_pitch_um,
                       diagonal=spec.routing is RoutingStyle.DIAGONAL)
    cap_under = _die_escape_capacity(spec)
    for die in placement.dies:
        if die.level == "top":
            grid.derate_region(die.x_mm, die.y_mm,
                               die.x_mm + die.width_mm,
                               die.y_mm + die.width_mm, cap_under)

    stacked: List[RoutedNet] = []
    todo: List[Tuple[str, str, Tuple[float, float], Tuple[float, float]]] = []
    for name_a, name_b, kind, count, stem in links:
        if count < 1:
            continue
        die_a = placement.die_by_name(name_a)
        die_b = placement.die_by_name(name_b)
        if die_a.level != die_b.level:
            # Vertically stacked pair: microvias through the RDL, as in
            # the glass 3D design.
            stack_um = (spec.dielectric_thickness_um * spec.metal_layers
                        + 10.0)
            for i in range(count):
                stacked.append(RoutedNet(
                    name=f"{stem}_{i}", kind="stacked_via",
                    length_mm=stack_um / 1000.0,
                    vias=spec.metal_layers, layers=set()))
            continue
        src_sites = _facing_bumps(die_a, pin_map[name_a], count,
                                  die_b.center)
        dst_sites = _facing_bumps(die_b, pin_map[name_b], count,
                                  die_a.center)
        for i, (s, d) in enumerate(_pair_sites(die_a, src_sites,
                                               die_b, dst_sites)):
            todo.append((f"{stem}_{i}", kind, s, d))
    return grid, stacked, todo


def route_interposer_pins(placement: InterposerPlacement,
                          pin_map: Dict[str, List[Tuple[float, float]]],
                          links: Sequence[PinLink]) -> InterposerRoute:
    """Route link bundles between any placed dies on the interposer.

    The flow's router for every topology: the paper's tile pairs
    (:func:`tile_links`) or the dies of any :func:`place_chiplets`
    arrangement go through the same vectorized pattern + batched
    rip-up/reroute engine, bit-identical to the scalar golden router of
    the test suite.

    Args:
        placement: Die arrangement (must not be a TSV stack).
        pin_map: die name → die-local signal bump sites (um).
        links: The net bundles (:class:`PinLink`).

    Returns:
        An :class:`InterposerRoute` with per-net lengths/vias/layers.
    """
    grid, stacked, todo = _pin_problem(placement, pin_map, links)
    return _route_with_grid(placement, grid, stacked, todo)

