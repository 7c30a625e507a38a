"""Packaging cost and yield models.

The paper's motivation for glass is economic — "die embedding at low
cost", "cost-effective solution for 3D chiplet stacking" — but it never
quantifies the claim.  This module adds the standard packaging cost
machinery so the claim can be computed: substrate-level economics (dies
per 300 mm silicon wafer vs dies per 510x515 mm glass panel vs organic
laminate panels), defect-limited yield (negative-binomial model), and
per-process cost adders (TSV formation, substrate thinning for 3D
stacks, cavity formation for embedding, assembly/bonding per die).

Cost parameters are representative public numbers (wafer-cost surveys,
panel-level packaging literature); like every absolute number in this
reproduction they set the scale, while the comparisons across
technologies come from the geometry computed by the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..interposer.placement import InterposerPlacement
from ..tech.interposer import IntegrationStyle, InterposerSpec


@dataclass(frozen=True)
class SubstrateEconomics:
    """Cost structure of one interposer substrate process.

    Attributes:
        name: Substrate name.
        format_area_mm2: Usable area of one wafer/panel.
        base_cost_usd: Cost of the bare substrate format.
        cost_per_metal_layer_usd: Patterning cost per metal layer for the
            whole format (litho + plating + CMP/planarization).
        through_via_cost_usd: Cost of the through-via module (TSV etch +
            liner + fill, TGV laser drill, or PTH) for the whole format.
        cavity_cost_usd: Cost of the cavity-formation module (glass
            embedding only) for the whole format.
        defect_density_per_cm2: Interconnect defect density.
        edge_exclusion_mm: Unusable edge ring.
    """

    name: str
    format_area_mm2: float
    base_cost_usd: float
    cost_per_metal_layer_usd: float
    through_via_cost_usd: float
    cavity_cost_usd: float
    defect_density_per_cm2: float
    edge_exclusion_mm: float = 3.0


#: 300 mm silicon interposer wafer (65nm-class BEOL, CoWoS-style).
SILICON_WAFER = SubstrateEconomics(
    name="silicon_300mm",
    format_area_mm2=math.pi * 147.0 ** 2,
    base_cost_usd=500.0,
    cost_per_metal_layer_usd=180.0,
    through_via_cost_usd=400.0,  # TSV etch/liner/fill + reveal
    cavity_cost_usd=0.0,
    defect_density_per_cm2=0.10)

#: 510 x 515 mm glass panel (Georgia Tech PRC-style panel RDL).
GLASS_PANEL = SubstrateEconomics(
    name="glass_panel",
    format_area_mm2=510.0 * 515.0,
    base_cost_usd=60.0,
    cost_per_metal_layer_usd=220.0,  # semi-additive RDL per layer
    through_via_cost_usd=150.0,      # laser-drilled TGVs
    cavity_cost_usd=120.0,           # wet-etch/laser cavities
    defect_density_per_cm2=0.25)

#: Organic laminate panel (build-up, 510 x 515 class).
ORGANIC_PANEL = SubstrateEconomics(
    name="organic_panel",
    format_area_mm2=510.0 * 515.0,
    base_cost_usd=40.0,
    cost_per_metal_layer_usd=90.0,
    through_via_cost_usd=50.0,       # mechanical PTH
    cavity_cost_usd=0.0,
    defect_density_per_cm2=0.45)

#: Per-die assembly cost adders (bonding, underfill, test), USD.
ASSEMBLY_COST_PER_DIE = 0.9

#: Extra per-die cost of TSV-stack processing (thinning to 20 um,
#: back-side reveal, bond/debond carrier), USD.
STACKING_COST_PER_DIE = 2.4

#: Extra per-die cost of placing a die into a glass cavity (DAF attach,
#: planarization share), USD.
EMBED_COST_PER_DIE = 0.8


def economics_for(spec: InterposerSpec) -> SubstrateEconomics:
    """The substrate economics record for a technology."""
    if spec.name.startswith("glass"):
        return GLASS_PANEL
    if spec.name.startswith("silicon"):
        return SILICON_WAFER
    return ORGANIC_PANEL


def units_per_format(unit_w_mm: float, unit_h_mm: float,
                     econ: SubstrateEconomics,
                     saw_street_mm: float = 0.2) -> int:
    """Interposers obtainable from one wafer/panel.

    Rectangular formats pack a grid; circular wafers use the standard
    die-per-wafer approximation (area term minus circumference loss).
    """
    if unit_w_mm <= 0 or unit_h_mm <= 0:
        raise ValueError("unit dimensions must be positive")
    w = unit_w_mm + saw_street_mm
    h = unit_h_mm + saw_street_mm
    if econ.name == "silicon_300mm":
        radius = math.sqrt(econ.format_area_mm2 / math.pi) \
            - econ.edge_exclusion_mm
        area = math.pi * radius * radius
        diameter = 2 * radius
        n = area / (w * h) - math.pi * diameter / math.sqrt(
            2.0 * w * h)
        return max(0, int(n))
    side_w = math.sqrt(econ.format_area_mm2
                       * (510.0 / 515.0))  # true panel aspect
    side_h = econ.format_area_mm2 / side_w
    usable_w = side_w - 2 * econ.edge_exclusion_mm
    usable_h = side_h - 2 * econ.edge_exclusion_mm
    return max(0, int(usable_w // w) * int(usable_h // h))


def interconnect_yield(area_mm2: float, defect_density_per_cm2: float,
                       alpha: float = 2.0) -> float:
    """Negative-binomial (Stapper) yield model.

    Args:
        area_mm2: Critical area.
        defect_density_per_cm2: Defect density D0.
        alpha: Clustering parameter (2-4 typical).
    """
    if area_mm2 < 0 or defect_density_per_cm2 < 0:
        raise ValueError("area and defect density must be non-negative")
    a_cm2 = area_mm2 / 100.0
    return (1.0 + a_cm2 * defect_density_per_cm2 / alpha) ** (-alpha)


@dataclass
class CostReport:
    """Cost breakdown for one design point (USD per good system).

    Attributes:
        design: Design name.
        interposer_cost: Substrate share per interposer site.
        interposer_yield: Defect-limited interposer yield.
        assembly_cost: Bonding/embedding/stacking adders for four dies.
        assembly_yield: Compound assembly yield.
        cost_per_good_system: Total packaging cost divided by yield.
        units_per_format: Interposer sites per wafer/panel.
    """

    design: str
    interposer_cost: float
    interposer_yield: float
    assembly_cost: float
    assembly_yield: float
    cost_per_good_system: float
    units_per_format: int


def package_cost(placement: InterposerPlacement,
                 assembly_yield_per_die: float = 0.995,
                 econ: Optional[SubstrateEconomics] = None) -> CostReport:
    """Packaging cost of one design (excludes the chiplets themselves).

    Args:
        placement: The design's die placement (area, die count, style).
        assembly_yield_per_die: Yield of one die attach.
        econ: Override the substrate economics.
    """
    spec = placement.spec
    econ = econ or economics_for(spec)
    n_dies = len(placement.dies)

    if spec.style is IntegrationStyle.TSV_STACK:
        # No interposer: cost is the stacking process itself.
        format_cost = 0.0
        interposer_cost = 0.0
        units = 0
        iyield = 1.0
        assembly = n_dies * (ASSEMBLY_COST_PER_DIE
                             + STACKING_COST_PER_DIE)
    else:
        format_cost = (econ.base_cost_usd
                       + spec.metal_layers * econ.cost_per_metal_layer_usd
                       + econ.through_via_cost_usd)
        embedded = [d for d in placement.dies if d.level == "embedded"]
        if embedded:
            format_cost += econ.cavity_cost_usd
        units = units_per_format(placement.width_mm, placement.height_mm,
                                 econ)
        if units == 0:
            raise ValueError("interposer larger than the substrate format")
        interposer_cost = format_cost / units
        iyield = interconnect_yield(placement.area_mm2,
                                    econ.defect_density_per_cm2)
        assembly = n_dies * ASSEMBLY_COST_PER_DIE \
            + len(embedded) * EMBED_COST_PER_DIE
    ayield = assembly_yield_per_die ** n_dies

    total_yield = iyield * ayield
    raw = interposer_cost + assembly
    return CostReport(design=spec.name,
                      interposer_cost=interposer_cost,
                      interposer_yield=iyield,
                      assembly_cost=assembly,
                      assembly_yield=ayield,
                      cost_per_good_system=raw / total_yield,
                      units_per_format=units)
