"""Process/voltage/temperature corners for the cell library.

Production sign-off (the paper's Tempus runs) happens at corners, not
just typical.  This module derives SS/TT/FF libraries from the N28
typical library with standard 28nm derating factors, plus voltage and
temperature scaling, so the chiplet flow can close timing at worst-case
and report the corner spread.

Scaling model (first-order, standard hand-analysis factors):

* drive resistance ~ 1/(V - Vt)^1.3, slow corner +18% R, fast -14%;
* leakage: exponential in Vt shift and temperature (doubles per ~25 K);
* delays inherit the drive-resistance change; intrinsic delay scales
  with the same factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from .stdcell import CellLibrary, N28_LIB

#: Threshold-voltage proxy for the alpha-power delay model (V).
_VT = 0.35

#: Delay-model exponent.
_ALPHA = 1.3

#: Leakage temperature doubling constant (K).
_LEAK_T0 = 25.0 / math.log(2.0)


@dataclass(frozen=True)
class Corner:
    """One PVT corner.

    Attributes:
        name: Corner name, e.g. ``"ss_0.81v_125c"``.
        process_speed: Drive-strength multiplier (<1 = slow silicon).
        process_leakage: Leakage multiplier at 25 C (>1 = leaky fast
            silicon).
        vdd: Supply voltage.
        temperature_c: Junction temperature.
    """

    name: str
    process_speed: float
    process_leakage: float
    vdd: float
    temperature_c: float

    def __post_init__(self):
        if self.process_speed <= 0 or self.vdd <= 0:
            raise ValueError("corner parameters must be positive")


#: The classic three sign-off corners for a 0.9 V 28nm library.
SS_CORNER = Corner("ss_0.81v_125c", process_speed=0.85,
                   process_leakage=0.45, vdd=0.81, temperature_c=125.0)
TT_CORNER = Corner("tt_0.90v_25c", process_speed=1.0,
                   process_leakage=1.0, vdd=0.90, temperature_c=25.0)
FF_CORNER = Corner("ff_0.99v_0c", process_speed=1.16,
                   process_leakage=2.6, vdd=0.99, temperature_c=0.0)

CORNERS: Dict[str, Corner] = {"ss": SS_CORNER, "tt": TT_CORNER,
                              "ff": FF_CORNER}


def _voltage_speed_factor(vdd: float, ref_vdd: float = 0.9) -> float:
    """Alpha-power drive-current ratio vs the reference supply."""
    return ((vdd - _VT) / (ref_vdd - _VT)) ** _ALPHA * (ref_vdd / vdd)


def derate_library(corner: Corner,
                   base: CellLibrary = N28_LIB) -> CellLibrary:
    """Build a corner library from the typical one.

    Args:
        corner: The PVT point.
        base: Typical library (the calibrated N28 set).

    Returns:
        A new :class:`CellLibrary` named ``{base}_{corner}``.
    """
    speed = corner.process_speed * _voltage_speed_factor(corner.vdd)
    leak_t = math.exp((corner.temperature_c - 25.0) / _LEAK_T0)
    leak = corner.process_leakage * leak_t \
        * (corner.vdd / base.vdd) ** 2

    cells = []
    for cell in base.cells():
        cells.append(replace(
            cell,
            drive_res_ohm=cell.drive_res_ohm / speed,
            intrinsic_delay_ps=cell.intrinsic_delay_ps / speed,
            leakage_nw=cell.leakage_nw * leak,
            # Internal energy tracks CV^2.
            internal_energy_fj=cell.internal_energy_fj
            * (corner.vdd / base.vdd) ** 2))
    return CellLibrary(f"{base.name}_{corner.name}", cells,
                       vdd=corner.vdd)


def corner_speed_ratio(corner: Corner) -> float:
    """Expected Fmax ratio vs typical (drive-limited paths)."""
    return corner.process_speed * _voltage_speed_factor(corner.vdd)
