"""Chiplet placement: Hilbert-curve fill of module regions.

The synthetic netlists carry locality in *generation-index* space (see
:mod:`repro.arch.generate`); the placer realizes that locality physically
by laying each module's instances out in index order along a Hilbert
space-filling curve over the module's floorplan region.  The Hilbert
curve gives true 2-D locality — instances at index distance ``d`` end up
roughly ``sqrt(d * site_area)`` apart — which is the wirelength structure
a real analytic placer recovers from a real netlist.

Positions are stored as dense numpy arrays plus a name → row index map so
that downstream wirelength and congestion analysis stays vectorized even
at the full 167k-cell scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..arch.netlist import Netlist
from .floorplan import Floorplan, Rect


@dataclass
class Placement:
    """Placed instance locations for one chiplet.

    Attributes:
        netlist: The placed netlist.
        floorplan: The floorplan used.
        index_of: instance name → row in the position arrays.  Not
            pickled: unpickling rebuilds it from the netlist's first
            ``len(x_um)`` instances, the ones it held when placed.
        x_um: X coordinates, shape (num_instances,).
        y_um: Y coordinates, shape (num_instances,).
    """

    netlist: Netlist
    floorplan: Floorplan
    index_of: Dict[str, int]
    x_um: np.ndarray
    y_um: np.ndarray

    def __getstate__(self) -> Dict[str, object]:
        return {k: v for k, v in self.__dict__.items() if k != "index_of"}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.index_of = dict(zip(self.netlist.instances,
                                 range(len(self.x_um))))

    def position(self, instance: str) -> Tuple[float, float]:
        """(x, y) of one instance in microns."""
        idx = self.index_of[instance]
        return float(self.x_um[idx]), float(self.y_um[idx])


def hilbert_d2xy(side: int, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hilbert-curve positions of distances ``d`` on a ``side x side`` grid.

    Vectorized form of the classic d→(x, y) conversion; ``side`` must be a
    power of two.

    Args:
        side: Grid side (power of two).
        d: Integer curve distances in ``[0, side*side)``.

    Returns:
        ``(x, y)`` integer coordinate arrays.
    """
    if side < 1 or side & (side - 1):
        raise ValueError(f"side must be a power of two, got {side}")
    t = np.asarray(d, dtype=np.int64).copy()
    if ((t < 0) | (t >= side * side)).any():
        raise ValueError("curve distance out of range")
    x = np.zeros_like(t)
    y = np.zeros_like(t)
    s = 1
    while s < side:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        # Rotate quadrant contents.
        flip = (ry == 0) & (rx == 1)
        x = np.where(flip, s - 1 - x, x)
        y = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, y, x), np.where(swap, x, y)
        x = x + s * rx
        y = y + s * ry
        t //= 4
        s *= 2
    return x, y


def place(netlist: Netlist, floorplan: Floorplan) -> Placement:
    """Place every instance of the netlist inside its module region.

    Within a region, instances are laid out in generation order along a
    Hilbert curve subsampled to the instance count, so the region is
    covered evenly and index locality becomes 2-D spatial locality.

    Returns:
        A :class:`Placement`; every instance is inside its region.
    """
    view = netlist.arrays()
    x = np.zeros(len(view.cell))
    y = np.zeros(len(view.cell))
    # Each module's rows in instance order, modules in order of first
    # appearance.
    by_module = np.argsort(view.module, kind="stable")
    ends = np.cumsum(np.bincount(view.module, minlength=len(view.modules)))
    for path, rows in zip(view.modules, np.split(by_module, ends[:-1])):
        _fill_hilbert(rows, floorplan.region_of(path), x, y)
    return Placement(netlist=netlist, floorplan=floorplan,
                     index_of={n: i for i, n in enumerate(netlist.instances)},
                     x_um=x, y_um=y)


def _fill_hilbert(rows: np.ndarray, region: Rect, x: np.ndarray,
                  y: np.ndarray) -> None:
    """Lay the instances at ``rows`` along a subsampled Hilbert curve
    over ``region``."""
    n = len(rows)
    side = 1
    while side * side < n:
        side *= 2
    total = side * side
    # Evenly subsample the curve so the whole square is covered.
    dists = (np.arange(n, dtype=np.int64) * total) // n
    gx, gy = hilbert_d2xy(side, dists)
    px = region.x + (gx + 0.5) * (region.w / side)
    py = region.y + (gy + 0.5) * (region.h / side)
    x[rows] = px
    y[rows] = py


#: Axial-coordinate neighbor steps of a hex grid, in the counter-
#: clockwise walk order the spiral uses after jumping to a ring start.
_HEX_DIRECTIONS = ((-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1))


def hex_spiral(n: int) -> List[Tuple[int, int]]:
    """First ``n`` axial hex-grid coordinates in spiral order.

    HexaMesh-style packing: the center cell first, then rings walked
    counter-clockwise at increasing radius, so any prefix of the
    sequence is a compact near-circular cluster.  Ring ``k`` holds
    ``6k`` cells, so ``n`` sites span radius ``O(sqrt(n))``.

    Args:
        n: Number of sites (>= 1).

    Returns:
        ``n`` distinct ``(q, r)`` axial coordinates.  Cartesian centers
        follow as ``x = q + r/2`` and ``y = r * sqrt(3)/2`` (in units
        of the site pitch).
    """
    if n < 1:
        raise ValueError(f"need at least one site, got {n}")
    out: List[Tuple[int, int]] = [(0, 0)]
    ring = 0
    while len(out) < n:
        ring += 1
        # Ring start: `ring` steps along +q from the center.
        q, r = ring, 0
        for dq, dr in _HEX_DIRECTIONS:
            for _ in range(ring):
                if len(out) >= n:
                    return out
                out.append((q, r))
                q, r = q + dq, r + dr
    return out
