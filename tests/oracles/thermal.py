"""Per-cell golden reference for the thermal grid's assembly.

The original loop over every cell of a :class:`~repro.thermal.grid.
ThermalGrid`: one ``couple`` call per neighbouring pair, each adding
``-g`` off the diagonal and ``g`` to both diagonal entries, then the top
and bottom convection cell by cell.  Production
(:meth:`ThermalGrid.system`) assembles the same matrix and right-hand
side in numpy and must reproduce them byte for byte.
"""

from typing import List, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro.thermal.grid import ThermalGrid


def _hmean(a: float, b: float) -> float:
    return 2.0 * a * b / (a + b)


def system_scalar(grid: ThermalGrid) -> Tuple[scipy.sparse.csr_matrix,
                                              np.ndarray]:
    """``(G, b)`` of the steady system ``G T = b + q``, cell by cell."""
    def index(z: int, y: int, x: int) -> int:
        return (z * grid.ny + y) * grid.nx + x

    n = grid.nz * grid.ny * grid.nx
    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    diag = np.zeros(n)
    rhs = np.zeros(n)

    def couple(a: int, b: int, g: float) -> None:
        rows.extend([a, b])
        cols.extend([b, a])
        vals.extend([-g, -g])
        diag[a] += g
        diag[b] += g

    k = grid.k
    for z in range(grid.nz):
        tz = grid.dz[z]
        area_x = grid.dy * tz
        area_y = grid.dx * tz
        area_z = grid.dx * grid.dy
        for y in range(grid.ny):
            for x in range(grid.nx):
                a = index(z, y, x)
                if x + 1 < grid.nx:
                    kh = _hmean(k[z, y, x], k[z, y, x + 1])
                    couple(a, a + 1, kh * area_x / grid.dx)
                if y + 1 < grid.ny:
                    kh = _hmean(k[z, y, x], k[z, y + 1, x])
                    couple(a, index(z, y + 1, x), kh * area_y / grid.dy)
                if z + 1 < grid.nz:
                    dz_pair = (tz + grid.dz[z + 1]) / 2.0
                    kh = _hmean(k[z, y, x], k[z + 1, y, x])
                    couple(a, index(z + 1, y, x), kh * area_z / dz_pair)

    # Convection boundaries (top of top layer, bottom of bottom).
    area_z = grid.dx * grid.dy
    for y in range(grid.ny):
        for x in range(grid.nx):
            top = index(grid.nz - 1, y, x)
            diag[top] += grid.h_top * area_z
            rhs[top] += grid.h_top * area_z * grid.ambient_c
            bot = index(0, y, x)
            diag[bot] += grid.h_bottom * area_z
            rhs[bot] += grid.h_bottom * area_z * grid.ambient_c

    for i, d in enumerate(diag):
        rows.append(i)
        cols.append(i)
        vals.append(d)
    G = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return G, rhs


def solve_scalar(grid: ThermalGrid) -> np.ndarray:
    """The temperature field, shape ``(nz, ny, nx)``, solved from
    :func:`system_scalar`."""
    G, b = system_scalar(grid)
    b += grid.q.ravel()
    t = scipy.sparse.linalg.spsolve(G, b)
    return t.reshape(grid.nz, grid.ny, grid.nx)
