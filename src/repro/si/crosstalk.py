"""Coupled-line crosstalk models.

The paper's eye diagrams (Fig. 14) are measured on the worst-case victim
net with its two nearest aggressors.  This module computes the coupling
parameters between adjacent minimum-pitch traces and expands a coupled
three-line bundle into the circuit simulator: capacitive coupling between
neighbouring ladder nodes plus inductive coupling between segment
inductors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..circuit.elements import Circuit
from ..tech.interposer import InterposerSpec
from ..tech.materials import EPS0
from .tline import RlgcLine, line_for_spec


@dataclass(frozen=True)
class CoupledLine:
    """A uniform coupled-line bundle description.

    Attributes:
        line: Per-unit-length parameters of each individual trace.
        cm_per_m: Mutual (coupling) capacitance to each neighbour (F/m).
        k_l: Inductive coupling coefficient to each neighbour.
        spacing_um: Edge-to-edge spacing used.
        return_factor: Shared-return-path aggravation factor.  Thin PDN
            metal (silicon's 1 um planes) raises the common return
            impedance, so aggressor return currents couple into the
            victim — the paper's "limited metal layers" effect that makes
            Silicon 2.5D the worst eye in each class.
    """

    line: RlgcLine
    cm_per_m: float
    k_l: float
    spacing_um: float
    return_factor: float = 1.0


def coupled_line_for_spec(spec: InterposerSpec,
                          spacing_um: float = 0.0,
                          frequency_hz: float = 7e8) -> CoupledLine:
    """Coupling parameters for two minimum-width traces on a technology.

    Mutual capacitance uses the side-wall parallel-plate term (metal
    thickness over spacing) plus a fringe contribution; inductive coupling
    decays with spacing relative to the height above the return plane.

    Args:
        spec: Interposer technology.
        spacing_um: Edge spacing; defaults to the technology minimum.
        frequency_hz: Analysis frequency.
    """
    s = spacing_um if spacing_um > 0 else spec.min_wire_space_um
    line = line_for_spec(spec, frequency_hz=frequency_hz)
    eps = EPS0 * spec.dielectric.eps_r
    t = spec.metal_thickness_um * 1e-6
    s_m = s * 1e-6
    h_m = spec.dielectric_thickness_um * 1e-6

    # Side-wall coupling + fringing through the dielectric above.
    cm = eps * (t / s_m + 0.25 * math.log1p(2.0 * h_m / s_m))
    # Inductive coupling: ln-based decay with spacing over height.
    ratio = (s_m + spec.min_wire_width_um * 1e-6) / h_m
    k_l = max(0.02, min(0.6, 0.55 / (1.0 + ratio ** 2)))
    # Shared-return aggravation: thin PDN metal -> high return impedance.
    rf = max(1.0, min(4.0, 4.0 / spec.metal_thickness_um))
    return CoupledLine(line=line, cm_per_m=cm, k_l=k_l, spacing_um=s,
                       return_factor=rf)


def add_coupled_bundle(circuit: Circuit, prefix: str,
                       nodes_in: Sequence[str], nodes_out: Sequence[str],
                       coupled: CoupledLine, length_um: float,
                       segments: int = 16) -> None:
    """Expand an N-conductor coupled bundle into the circuit.

    Conductor ``i`` couples to conductors ``i-1``/``i+1`` through the
    mutual capacitance and inductance of :class:`CoupledLine`.

    Args:
        circuit: Target circuit (mutated).
        prefix: Name prefix.
        nodes_in: Input node per conductor (victim usually the middle).
        nodes_out: Output node per conductor.
        coupled: Bundle parameters.
        length_um: Bundle length in microns.
        segments: Ladder segments.
    """
    n = len(nodes_in)
    if n != len(nodes_out):
        raise ValueError("nodes_in and nodes_out must have equal length")
    if n < 2:
        raise ValueError("a coupled bundle needs at least two conductors")
    if segments < 1 or length_um <= 0:
        raise ValueError("bad segments/length")

    line = coupled.line
    seg_len_m = length_um * 1e-6 / segments
    r = max(line.r_per_m * seg_len_m, 1e-6)
    l = max(line.l_per_m * seg_len_m, 1e-15)
    cg = line.c_per_m * seg_len_m
    cm = coupled.cm_per_m * seg_len_m * coupled.return_factor
    k_eff = min(0.6, coupled.k_l * math.sqrt(coupled.return_factor))
    g = line.g_per_m * seg_len_m

    # Per-conductor chains with remembered internal node names.
    chain_nodes: List[List[str]] = []
    for ci in range(n):
        nodes = [nodes_in[ci]]
        prev = nodes_in[ci]
        for k in range(segments):
            mid = f"{prefix}_c{ci}_m{k}"
            nxt = (nodes_out[ci] if k == segments - 1
                   else f"{prefix}_c{ci}_n{k}")
            circuit.add_resistor(f"{prefix}_c{ci}_R{k}", prev, mid, r)
            circuit.add_inductor(f"{prefix}_c{ci}_L{k}", mid, nxt, l)
            circuit.add_capacitor(f"{prefix}_c{ci}_C{k}", nxt, "0", cg)
            if g > 0:
                circuit.add_resistor(f"{prefix}_c{ci}_G{k}", nxt, "0",
                                     1.0 / g)
            nodes.append(nxt)
            prev = nxt
        chain_nodes.append(nodes)

    # Neighbour coupling: mutual caps between matching ladder nodes and
    # mutual inductance between matching segment inductors.
    for ci in range(n - 1):
        for k in range(segments):
            a = chain_nodes[ci][k + 1]
            b = chain_nodes[ci + 1][k + 1]
            circuit.add_capacitor(f"{prefix}_x{ci}_{k}", a, b, cm)
            circuit.add_mutual(f"{prefix}_k{ci}_{k}",
                               f"{prefix}_c{ci}_L{k}",
                               f"{prefix}_c{ci + 1}_L{k}", k_eff)
