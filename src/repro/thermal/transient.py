"""Transient thermal analysis (extension beyond the paper's steady state).

The paper evaluates steady-state maps; a designer also needs thermal
*time constants* — how quickly the embedded die heats when the L3 wakes
up, and whether short bursts stay within limits.  This module adds
implicit-Euler time stepping on top of the steady FD grid: each cell
gets a heat capacity from its material's volumetric capacity, and the
constant-step system ``(C/dt + G) T_{n+1} = C/dt T_n + q(t) + b`` is
factored once and stepped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .grid import ThermalGrid

#: Volumetric heat capacity (J/(m^3 K)) by approximate conductivity class.
#: Silicon ~1.66e6, copper ~3.4e6, glass ~1.7e6, polymers ~1.8e6.
def volumetric_capacity_for_k(k: float) -> float:
    """Heuristic volumetric heat capacity from conductivity.

    Cells are classified by their conductivity (the grid stores no
    material tags): metals/silicon vs insulators differ by < 2.5x in
    volumetric capacity, so this coarse mapping keeps transients within
    engineering accuracy.
    """
    if k > 100.0:
        return 1.66e6  # silicon / metal-rich
    if k > 10.0:
        return 2.5e6   # copper-rich composite
    return 1.75e6      # glass / polymer / laminate


@dataclass
class ThermalTransientResult:
    """Result of a thermal transient run.

    Attributes:
        time_s: Sample times.
        probe_temps_c: probe name → temperature waveform.
        final_c: Final temperatures per probe.
    """

    time_s: np.ndarray
    probe_temps_c: Dict[str, np.ndarray]

    def probe(self, name: str) -> np.ndarray:
        """Temperature waveform of one probe."""
        return self.probe_temps_c[name]

    def time_constant_s(self, name: str) -> float:
        """Time to reach 63.2% of the final rise at a probe."""
        wave = self.probe_temps_c[name]
        start, final = wave[0], wave[-1]
        if abs(final - start) < 1e-12:
            return 0.0
        target = start + 0.632 * (final - start)
        rising = final > start
        for t, v in zip(self.time_s, wave):
            if (v >= target) if rising else (v <= target):
                return float(t)
        return float(self.time_s[-1])


def simulate_thermal_transient(grid: ThermalGrid, t_stop: float,
                               dt: float,
                               probes: Dict[str, Tuple[int, int, int]],
                               power_scale: Optional[Callable[[float],
                                                              float]] = None,
                               start_at_ambient: bool = True
                               ) -> ThermalTransientResult:
    """Step the grid's heat equation with implicit Euler.

    Args:
        grid: A configured :class:`ThermalGrid` (conductivities + power).
        t_stop: End time (seconds).
        dt: Time step.
        probes: name → (z, y, x) cell to record.
        power_scale: Optional ``t -> scale`` multiplying the grid's power
            sources (e.g. a step: ``lambda t: 1.0 if t > 1e-3 else 0.0``).
        start_at_ambient: Start from a uniform ambient field (True) or
            from the steady-state solution (False).

    Returns:
        A :class:`ThermalTransientResult`.
    """
    if dt <= 0 or t_stop <= dt:
        raise ValueError("need 0 < dt < t_stop")
    n = grid.nz * grid.ny * grid.nx

    # The steady-state assembly: G T = b + q.
    G, b = grid.system()
    q = grid.q

    # Capacity per cell: volume * volumetric capacity.
    cell_vol = np.zeros((grid.nz, grid.ny, grid.nx))
    for z in range(grid.nz):
        cell_vol[z] = grid.dx * grid.dy * grid.dz[z]
    cap = np.vectorize(volumetric_capacity_for_k)(grid.k) * cell_vol
    c_over_dt = scipy.sparse.diags(cap.ravel() / dt)

    A = (c_over_dt + G).tocsc()
    solver = scipy.sparse.linalg.splu(A)

    if start_at_ambient:
        t_field = np.full(n, grid.ambient_c)
    else:
        t_field = scipy.sparse.linalg.spsolve(G.tocsc(), b + q.ravel())

    steps = int(round(t_stop / dt))
    times = np.arange(steps + 1) * dt
    out = {name: np.zeros(steps + 1) for name in probes}
    idx = {name: (z * grid.ny + y) * grid.nx + x
           for name, (z, y, x) in probes.items()}
    for name, i in idx.items():
        out[name][0] = t_field[i]

    for s in range(1, steps + 1):
        t_now = times[s]
        scale = power_scale(t_now) if power_scale else 1.0
        rhs = cap.ravel() / dt * t_field + b + scale * q.ravel()
        t_field = solver.solve(rhs)
        for name, i in idx.items():
            out[name][s] = t_field[i]

    return ThermalTransientResult(time_s=times, probe_temps_c=out)
