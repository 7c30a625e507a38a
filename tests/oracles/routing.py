"""Scalar golden references for the interposer router.

The original per-cell implementation: every pattern candidate is
materialized (:func:`pattern_candidates`) and costed cell by cell,
every rip-up round scans each net's cells for overflow, and every
reroute runs the scalar heap A* (``RoutingGrid.maze_route_scalar``).
:func:`walk_field` is the Python walk over the distance-field oracle's
int32 field that the compiled ``maze_walk`` replaced.
The cost constants and budgets are read from
:mod:`repro.interposer.routing` at call time, so tests that
monkeypatch them there steer these references too.
"""

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.interposer.routing as routing
from repro.interposer.placement import InterposerPlacement
from repro.interposer.routing import (InterposerRoute, PinLink, RoutedNet,
                                      RoutingGrid)

GridPath = Sequence[Tuple[int, int, int]]


def path_cost_scalar(grid: RoutingGrid, path: GridPath) -> float:
    """Per-cell cost loop of a candidate path against current occupancy.

    The over-capacity flags are gathered in one vectorized read; the
    cost itself accumulates in path order, one step/via term and one
    overflow term per cell.
    """
    arr = np.asarray(path, dtype=np.intp)
    over = (grid.occupancy[arr[:, 0], arr[:, 1], arr[:, 2]]
            >= grid.capacity[arr[:, 0], arr[:, 1], arr[:, 2]]).tolist()
    sq2 = math.sqrt(2.0)
    cost = 0.0
    prev = None
    for k, state in enumerate(path):
        l, y, x = state
        if prev is not None:
            pl, py, px = prev
            if pl != l:
                cost += routing.VIA_COST
            else:
                dy, dx = abs(y - py), abs(x - px)
                cost += sq2 if (dy and dx) else 1.0
        if over[k]:
            cost += routing.OVERFLOW_COST
        prev = state
    return cost


def pattern_candidates(grid: RoutingGrid, src: Tuple[int, int],
                       dst: Tuple[int, int]
                       ) -> List[List[Tuple[int, int, int]]]:
    """Candidate paths: L-shapes over layer pairs, or diagonal lines."""
    sy, sx = src
    ty, tx = dst
    candidates: List[List[Tuple[int, int, int]]] = []
    if grid.diagonal:
        for layer in range(grid.layers):
            candidates.append(_line_path(layer, sy, sx, ty, tx))
        return candidates
    if grid.layers == 1:
        candidates.append(grid._l_path(0, 0, sy, sx, ty, tx, True))
        candidates.append(grid._l_path(0, 0, sy, sx, ty, tx, False))
        return candidates
    for hl in grid.h_layers():
        for vl in grid.v_layers():
            candidates.append(grid._l_path(hl, vl, sy, sx, ty, tx,
                                           True))
            candidates.append(grid._l_path(hl, vl, sy, sx, ty, tx,
                                           False))
    return candidates


def _line_path(layer: int, sy: int, sx: int, ty: int,
               tx: int) -> List[Tuple[int, int, int]]:
    """Bresenham-style 8-direction line on one layer."""
    path: List[Tuple[int, int, int]] = [(0, sy, sx)]
    for l in range(1, layer + 1):
        path.append((l, sy, sx))
    y, x = sy, sx
    while (y, x) != (ty, tx):
        dy = (ty > y) - (ty < y)
        dx = (tx > x) - (tx < x)
        y += dy
        x += dx
        path.append((layer, y, x))
    for l in range(layer - 1, -1, -1):
        path.append((l, ty, tx))
    return path


def commit(grid: RoutingGrid, path: GridPath) -> None:
    """Record a routed path in the grid's occupancy map."""
    arr = np.asarray(path, dtype=np.intp)
    np.add.at(grid.occupancy, (arr[:, 0], arr[:, 1], arr[:, 2]), 1)


def rip_up(grid: RoutingGrid, path: GridPath) -> None:
    """Remove a committed path from the grid's occupancy map."""
    arr = np.asarray(path, dtype=np.intp)
    np.add.at(grid.occupancy, (arr[:, 0], arr[:, 1], arr[:, 2]), -1)


def path_overflows(grid: RoutingGrid, path: GridPath) -> bool:
    """Whether any cell of the path is over capacity."""
    arr = np.asarray(path, dtype=np.intp)
    li, yi, xi = arr[:, 0], arr[:, 1], arr[:, 2]
    return bool((grid.occupancy[li, yi, xi]
                 > grid.capacity[li, yi, xi]).any())


def _path_to_net(name: str, kind: str, path: List[Tuple[int, int, int]],
                 cell_um: float) -> RoutedNet:
    """A :class:`RoutedNet` from a grid path, summed step by step."""
    length_cells = 0.0
    vias = 2  # bump pad vias at both ends
    layers: Set[int] = {path[0][0]}
    for (l0, y0, x0), (l1, y1, x1) in zip(path, path[1:]):
        if l0 != l1:
            vias += 1
        else:
            dy, dx = abs(y1 - y0), abs(x1 - x0)
            length_cells += math.sqrt(2.0) if (dy and dx) else 1.0
        layers.add(l1)
    return RoutedNet(name=name, kind=kind,
                     length_mm=length_cells * cell_um / 1000.0,
                     vias=vias, layers=layers, path=path)


def _route_with_grid_scalar(placement: InterposerPlacement,
                            grid: RoutingGrid, stacked: List[RoutedNet],
                            todo: List[Tuple[str, str, Tuple[float, float],
                                             Tuple[float, float]]]
                            ) -> InterposerRoute:
    """Scalar router engine over a prepared problem (``_pin_problem``)."""
    # ---- phase 1: pattern route, shortest first ----------------------- #
    routed: Dict[str, RoutedNet] = {}
    for name, kind, s_mm, d_mm in sorted(todo, key=routing._manhattan_mm):
        src = grid.to_grid(*s_mm)
        dst = grid.to_grid(*d_mm)
        best, best_cost = None, math.inf
        for cand in pattern_candidates(grid, src, dst):
            c = path_cost_scalar(grid, cand)
            if c < best_cost:
                best, best_cost = cand, c
        assert best is not None
        commit(grid, best)
        routed[name] = _path_to_net(name, kind, best, grid.cell_um)

    # ---- phase 2: rip-up and reroute overflowing nets ------------------ #
    for _round in range(routing.RRR_ROUNDS):
        victims = [n for n in routed.values()
                   if n.path and path_overflows(grid, n.path)]
        if not victims:
            break
        victims.sort(key=lambda n: -n.length_mm)
        for net in victims:
            rip_up(grid, net.path)
            src = (net.path[0][1], net.path[0][2])
            dst = (net.path[-1][1], net.path[-1][2])
            path = grid.maze_route_scalar(src, dst,
                                          routing.MAZE_NODE_BUDGET)
            if path is None:
                path = net.path  # keep the pattern route
            commit(grid, path)
            routed[net.name] = _path_to_net(net.name, net.kind, path,
                                            grid.cell_um)

    nets = stacked + list(routed.values())
    layers_used: Set[int] = set()
    for n in nets:
        layers_used |= n.layers
    return InterposerRoute(placement=placement, nets=nets,
                           signal_layers_used=len(layers_used),
                           overflow_cells=grid.overflow_cells())


def route_interposer_scalar(placement: InterposerPlacement,
                            logic_bumps: List[Tuple[float, float]],
                            memory_bumps: List[Tuple[float, float]],
                            l2m_signals: int = 231,
                            l2l_signals: int = 68) -> InterposerRoute:
    """Scalar twin of :func:`repro.interposer.routing.route_interposer`."""
    return _route_with_grid_scalar(placement, *routing._tile_problem(
        placement, logic_bumps, memory_bumps, l2m_signals, l2l_signals))


def route_interposer_pins_scalar(placement: InterposerPlacement,
                                 pin_map: Dict[str,
                                               List[Tuple[float, float]]],
                                 links: Sequence[PinLink]
                                 ) -> InterposerRoute:
    """Scalar twin of :func:`repro.interposer.routing.route_interposer_pins`."""
    grid, stacked, todo = routing._pin_problem(placement, pin_map, links)
    return _route_with_grid_scalar(placement, grid, stacked, todo)


def walk_field(over: np.ndarray, Dp: np.ndarray, L: int, ny: int, nx: int,
               src: Tuple[int, int], dst: Tuple[int, int],
               via: Optional[int] = None, over_cost: Optional[int] = None
               ) -> List[Tuple[int, int, int]]:
    """Walk the distance field backwards along scalar-A* prev links.

    ``over`` and ``Dp`` are in the oracle's ``(y * L + l) * nx + x``
    state order.  At each step the parent is the neighbor ``p`` with
    ``D[p] + w(p, cur) == D[cur]`` (exact float compare — every
    quantity is an integer-valued float) minimizing the pop key
    ``(f, g, flat index)``; ``Dp = D + h - h0`` shifts f and g by the
    same constant, leaving the order unchanged.  ``via`` and
    ``over_cost`` default to the router's constants.  Raises
    ``RuntimeError`` when a state has no optimal parent.
    """
    sy, sx = src
    ty, tx = dst
    plane = ny * nx
    nxL = nx * L
    oc = float(routing.OVERFLOW_COST if over_cost is None else over_cost)
    via = float(routing.VIA_COST if via is None else via)
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
