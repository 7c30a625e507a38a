"""3-D finite-difference steady-state thermal solver.

Replaces Ansys IcePak for the paper's thermal study: the package is
voxelized into a ``nz x ny x nx`` grid of cells, each with its own
thermal conductivity; heat sources are volumetric per cell; the top and
bottom surfaces lose heat by convection to ambient.  Conduction between
adjacent cells uses harmonic-mean conductances (exact for layered
stacks), and the resulting sparse linear system is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


@dataclass
class ThermalSolution:
    """Solved temperature field.

    Attributes:
        temperature_c: Cell temperatures, shape (nz, ny, nx).
        ambient_c: Ambient used.
        total_power_w: Injected power.
    """

    temperature_c: np.ndarray
    ambient_c: float
    total_power_w: float

    def peak(self) -> float:
        """Peak temperature anywhere."""
        return float(self.temperature_c.max())

    def layer(self, z: int) -> np.ndarray:
        """Temperature map of one z layer."""
        return self.temperature_c[z]


class ThermalGrid:
    """Voxel model of a package for FD thermal analysis.

    Args:
        nx: Lateral cells in x.
        ny: Lateral cells in y.
        layer_thickness_m: Thickness of each z layer (bottom first).
        cell_w_m: Cell width (x pitch).
        cell_h_m: Cell height (y pitch).
        ambient_c: Ambient temperature.
    """

    def __init__(self, nx: int, ny: int,
                 layer_thickness_m: Sequence[float],
                 cell_w_m: float, cell_h_m: float,
                 ambient_c: float = 22.0):
        if nx < 2 or ny < 2 or not layer_thickness_m:
            raise ValueError("grid too small")
        if min(layer_thickness_m) <= 0 or cell_w_m <= 0 or cell_h_m <= 0:
            raise ValueError("dimensions must be positive")
        self.nx = nx
        self.ny = ny
        self.nz = len(layer_thickness_m)
        self.dz = np.asarray(layer_thickness_m, dtype=float)
        self.dx = cell_w_m
        self.dy = cell_h_m
        self.ambient_c = ambient_c
        #: Per-cell conductivity (W/mK); default: still air.
        self.k = np.full((self.nz, ny, nx), 0.026)
        #: Per-cell heat source (W).
        self.q = np.zeros((self.nz, ny, nx))
        #: Convection coefficient on the top face of the top layer.
        self.h_top = 10.0
        #: Convection coefficient on the bottom face (board side).
        self.h_bottom = 150.0

    # ------------------------------------------------------------------ #

    def set_region_k(self, z: int, y0: int, y1: int, x0: int, x1: int,
                     k: float) -> None:
        """Set conductivity in a box of one layer."""
        if k <= 0:
            raise ValueError("conductivity must be positive")
        self.k[z, y0:y1, x0:x1] = k

    def set_layer_k(self, z: int, k: float) -> None:
        """Set conductivity of an entire layer."""
        self.set_region_k(z, 0, self.ny, 0, self.nx, k)

    def add_power(self, z: int, y0: int, y1: int, x0: int, x1: int,
                  power_w: float,
                  pattern: Optional[np.ndarray] = None) -> None:
        """Inject power into a box, optionally shaped by a pattern map.

        Args:
            z: Layer index.
            y0: Box bounds (cell indices).
            y1: Box bounds.
            x0: Box bounds.
            x1: Box bounds.
            power_w: Total power to inject.
            pattern: Optional relative-density map resampled to the box
                (e.g. the 8x8 chiplet power map of Fig. 16).
        """
        ny_, nx_ = y1 - y0, x1 - x0
        if ny_ <= 0 or nx_ <= 0:
            raise ValueError("empty power region")
        if pattern is None:
            self.q[z, y0:y1, x0:x1] += power_w / (ny_ * nx_)
            return
        pat = np.asarray(pattern, dtype=float)
        if pat.min() < 0 or pat.sum() <= 0:
            raise ValueError("pattern must be non-negative and non-zero")
        # Nearest-neighbour resample of the pattern onto the box.
        yy = (np.arange(ny_) * pat.shape[0] // ny_).clip(0, pat.shape[0] - 1)
        xx = (np.arange(nx_) * pat.shape[1] // nx_).clip(0, pat.shape[1] - 1)
        resampled = pat[np.ix_(yy, xx)]
        resampled = resampled / resampled.sum() * power_w
        self.q[z, y0:y1, x0:x1] += resampled

    # ------------------------------------------------------------------ #

    def system(self) -> Tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """The steady system ``G T = b + q``, assembled in numpy.

        ``G`` holds the harmonic-mean conductance between each pair of
        neighbouring cells, off the diagonal as ``-g`` and summed on it,
        plus the top and bottom convection on the diagonal; ``b`` is
        the convection's pull towards ambient.  Each cell's diagonal
        adds, from 0.0, its coupling to the z-1, y-1 and x-1
        neighbours, then to the x+1, y+1 and z+1 ones, then top and
        bottom convection: the order of the original per-cell loop, so
        ``G`` and ``b`` are the same bytes it built.
        """
        nz, ny, nx = self.nz, self.ny, self.nx
        k, dz = self.k, self.dz
        area_z = self.dx * self.dy
        gx = (_hmean(k[:, :, :-1], k[:, :, 1:])
              * (self.dy * dz)[:, None, None] / self.dx)
        gy = (_hmean(k[:, :-1], k[:, 1:])
              * (self.dx * dz)[:, None, None] / self.dy)
        gz = (_hmean(k[:-1], k[1:]) * area_z
              / ((dz[:-1] + dz[1:]) / 2.0)[:, None, None])
        diag = np.zeros((nz, ny, nx))
        diag[1:] += gz
        diag[:, 1:] += gy
        diag[:, :, 1:] += gx
        diag[:, :, :-1] += gx
        diag[:, :-1] += gy
        diag[:-1] += gz
        diag[-1] += self.h_top * area_z
        diag[0] += self.h_bottom * area_z
        b = np.zeros((nz, ny, nx))
        b[-1] += self.h_top * area_z * self.ambient_c
        b[0] += self.h_bottom * area_z * self.ambient_c
        n = nz * ny * nx
        cell = np.arange(n).reshape(nz, ny, nx)
        # Each coupled pair (a, c) with conductance g, in x, y, z.
        a = np.concatenate([cell[:, :, :-1].ravel(), cell[:, :-1].ravel(),
                            cell[:-1].ravel()])
        c = np.concatenate([cell[:, :, 1:].ravel(), cell[:, 1:].ravel(),
                            cell[1:].ravel()])
        g = np.concatenate([gx.ravel(), gy.ravel(), gz.ravel()])
        cell = cell.ravel()
        G = scipy.sparse.csr_matrix(
            (np.concatenate([-g, -g, diag.ravel()]),
             (np.concatenate([a, c, cell]), np.concatenate([c, a, cell]))),
            shape=(n, n))
        return G, b.ravel()

    def solve(self) -> ThermalSolution:
        """Assemble (:meth:`system`) and solve the steady-state
        conduction problem."""
        G, b = self.system()
        t = scipy.sparse.linalg.spsolve(G, b + self.q.ravel())
        return ThermalSolution(
            temperature_c=t.reshape(self.nz, self.ny, self.nx),
            ambient_c=self.ambient_c,
            total_power_w=float(self.q.sum()))


def _hmean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Harmonic mean of two conductivities (series interface)."""
    return 2.0 * a * b / (a + b)
