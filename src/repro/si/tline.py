"""Transmission-line RLGC models from interposer stackup geometry.

Replaces HyperLynx Advanced Solver: per-unit-length R, L, G, C of an RDL
trace are computed from the technology's wire width, metal thickness,
dielectric thickness (height over the reference plane), and dielectric
constant, using quasi-static microstrip approximations.  The qualitative
technology story of Table V/VI falls out directly:

* Silicon's 0.4 um x 1 um wires are ~50x more resistive per mm than
  glass's 2 um x 4 um wires → RC-dominated delay.
* APX's 6 um-wide, 6 um-thick wires have the lowest loss.
* Glass's low Dk (3.3) gives the fastest time-of-flight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..circuit.elements import Circuit
from ..tech.interposer import InterposerSpec
from ..tech.materials import (EPS0, MU0, effective_resistance_per_m)


@dataclass(frozen=True)
class RlgcLine:
    """Per-unit-length transmission-line parameters.

    Attributes:
        r_per_m: Series resistance (ohm/m) at the analysis frequency.
        l_per_m: Series inductance (H/m).
        g_per_m: Shunt conductance (S/m) at the analysis frequency.
        c_per_m: Shunt capacitance (F/m).
        frequency_hz: Frequency at which R and G were evaluated.
    """

    r_per_m: float
    l_per_m: float
    g_per_m: float
    c_per_m: float
    frequency_hz: float

    def total_capacitance_f(self, length_m: float) -> float:
        """Total line capacitance for a length in metres."""
        return self.c_per_m * length_m


def microstrip_rlgc(width_um: float, thickness_um: float, height_um: float,
                    eps_r: float, loss_tangent: float,
                    frequency_hz: float = 7e8) -> RlgcLine:
    """Quasi-static RLGC of a microstrip over a reference plane.

    Args:
        width_um: Trace width.
        thickness_um: Trace (metal) thickness.
        height_um: Dielectric height to the reference plane.
        eps_r: Relative permittivity of the dielectric.
        loss_tangent: Dielectric loss tangent.
        frequency_hz: Frequency for skin effect and dielectric loss.
    """
    for label, v in [("width", width_um), ("thickness", thickness_um),
                     ("height", height_um), ("eps_r", eps_r)]:
        if v <= 0:
            raise ValueError(f"{label} must be positive, got {v}")
    w = width_um * 1e-6
    h = height_um * 1e-6
    t = thickness_um * 1e-6

    # Parallel-plate + fringing capacitance.  The 1.3 fringe constant is
    # the standard quasi-static fit for w/h in the 0.1-10 range, with a
    # side-wall term for thick conductors.
    c_per_m = EPS0 * eps_r * (w / h + 1.30 + 0.50 * (t / h) ** 0.5)
    # TEM consistency: L C = mu0 eps0 eps_eff.  RDL traces are embedded in
    # dielectric on both sides, so eps_eff ~ eps_r.
    l_per_m = MU0 * EPS0 * eps_r / c_per_m

    r_per_m = effective_resistance_per_m(width_um, thickness_um,
                                         frequency_hz)
    w_ang = 2 * math.pi * frequency_hz
    g_per_m = w_ang * c_per_m * loss_tangent
    return RlgcLine(r_per_m=r_per_m, l_per_m=l_per_m, g_per_m=g_per_m,
                    c_per_m=c_per_m, frequency_hz=frequency_hz)


def line_for_spec(spec: InterposerSpec, width_um: Optional[float] = None,
                  spacing_um: Optional[float] = None,
                  frequency_hz: float = 7e8) -> RlgcLine:
    """RLGC of a minimum-pitch trace on one interposer technology.

    Args:
        spec: Interposer technology.
        width_um: Trace width (defaults to the technology minimum).
        spacing_um: Unused here but accepted so call sites can carry the
            crosstalk geometry alongside; coupling is handled by
            :mod:`repro.si.crosstalk`.
        frequency_hz: Analysis frequency.
    """
    w = width_um if width_um is not None else spec.min_wire_width_um
    # Signal traces reference the PDN planes, which sit a couple of
    # dielectric layers below mid-stack signals (one layer in the
    # three-metal glass 3D stackup).
    plane_depth = 1 if spec.metal_layers - 2 <= 1 else 2
    h_ref = spec.dielectric_thickness_um * plane_depth
    return microstrip_rlgc(width_um=w,
                           thickness_um=spec.metal_thickness_um,
                           height_um=h_ref,
                           eps_r=spec.dielectric.eps_r,
                           loss_tangent=spec.dielectric.loss_tangent,
                           frequency_hz=frequency_hz)


def add_tline_ladder(circuit: Circuit, prefix: str, node_in: str,
                     node_out: str, line: RlgcLine, length_um: float,
                     segments: int = 16) -> None:
    """Expand a transmission line into an RLGC ladder in ``circuit``.

    Each segment is a series R-L followed by a shunt C (and G when the
    dielectric is lossy).  Sixteen segments keep the ladder accurate past
    the 5th harmonic of the paper's 0.7 Gbps signalling.

    Args:
        circuit: Target circuit (mutated).
        prefix: Element/node name prefix (must be unique per line).
        node_in: Input node name.
        node_out: Output node name.
        line: Per-unit-length parameters.
        length_um: Line length in microns.
        segments: Ladder segments.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    if length_um <= 0:
        raise ValueError("length must be positive")
    seg_len_m = length_um * 1e-6 / segments
    r = line.r_per_m * seg_len_m
    l = line.l_per_m * seg_len_m
    c = line.c_per_m * seg_len_m
    g = line.g_per_m * seg_len_m

    prev = node_in
    for k in range(segments):
        mid = f"{prefix}_m{k}"
        nxt = node_out if k == segments - 1 else f"{prefix}_n{k}"
        circuit.add_resistor(f"{prefix}_R{k}", prev, mid, max(r, 1e-6))
        circuit.add_inductor(f"{prefix}_L{k}", mid, nxt, max(l, 1e-15))
        circuit.add_capacitor(f"{prefix}_C{k}", nxt, "0", c)
        if g > 0:
            circuit.add_resistor(f"{prefix}_G{k}", nxt, "0", 1.0 / g)
        prev = nxt
