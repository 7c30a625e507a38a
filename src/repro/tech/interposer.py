"""Interposer technology specifications (paper Table I).

Each :class:`InterposerSpec` captures the stackup geometry and design rules
of one packaging technology.  The six design points evaluated in the paper
are exposed as module-level constants and through :func:`get_spec`.

Glass 2.5D and Glass 3D share the same manufacturing stackup (Georgia Tech
PRC glass panel process) but differ in metal-layer budget and in the die
placement style (side-by-side vs. embedded-die stacking), so they are two
distinct specs here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from .materials import Dielectric, DIELECTRICS


class IntegrationStyle(enum.Enum):
    """How chiplets are physically arranged for a technology."""

    #: Chiplets side-by-side on the interposer surface (classic 2.5D).
    SIDE_BY_SIDE = "2.5D"
    #: Memory die embedded in a glass cavity under the logic die ("5.5D").
    EMBEDDED_STACK = "5.5D"
    #: Chiplets stacked face-to-back with TSVs (TSV-based 3D, no interposer).
    TSV_STACK = "3D"


class RoutingStyle(enum.Enum):
    """Routing direction discipline used by the interposer router."""

    #: Horizontal/vertical per-layer preferred directions.
    MANHATTAN = "manhattan"
    #: 45-degree routing allowed (used for organics with wide wires).
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class InterposerSpec:
    """Design rules and stackup parameters for one interposer technology.

    Dimensions are in microns.  See paper Table I.

    Attributes:
        name: Design-point name, e.g. ``"glass_3d"``.
        display_name: Name as printed in the paper's tables.
        style: Physical integration style of the chiplets.
        routing: Router direction discipline for this material.
        metal_layers: Total routing metal layers available (signal + P/G).
        metal_thickness_um: RDL metal thickness.
        dielectric_thickness_um: Inter-layer dielectric thickness.
        dielectric_key: Key into :data:`repro.tech.materials.DIELECTRICS`.
        min_wire_width_um: Minimum wire width.
        min_wire_space_um: Minimum wire spacing.
        via_size_um: Via (microvia/TSV/TGV land) diameter.
        bump_size_um: C4/microbump diameter on the interposer side.
        die_spacing_um: Minimum die-to-die spacing for side-by-side placement.
        microbump_pitch_um: Chiplet micro-bump pitch.
        substrate_thickness_um: Core substrate thickness (glass panel is
            150-160um; silicon interposer ~100um; organics ~400um core).
        supports_embedding: Whether a die can be embedded in the substrate.
        tgv_diameter_um: Through-via (TGV/TSV) diameter for vertical power.
    """

    name: str
    display_name: str
    style: IntegrationStyle
    routing: RoutingStyle
    metal_layers: int
    metal_thickness_um: float
    dielectric_thickness_um: float
    dielectric_key: str
    min_wire_width_um: float
    min_wire_space_um: float
    via_size_um: float
    bump_size_um: float
    die_spacing_um: float
    microbump_pitch_um: float
    substrate_thickness_um: float
    supports_embedding: bool
    tgv_diameter_um: float

    @property
    def dielectric(self) -> Dielectric:
        """The dielectric material record for this technology."""
        return DIELECTRICS[self.dielectric_key]

    @property
    def wire_pitch_um(self) -> float:
        """Minimum wire pitch (width + spacing)."""
        return self.min_wire_width_um + self.min_wire_space_um

    def validate(self) -> None:
        """Sanity-check the rule set; raises ``ValueError`` on nonsense."""
        if self.metal_layers < 1:
            raise ValueError(f"{self.name}: needs at least one metal layer")
        for label, v in [("metal thickness", self.metal_thickness_um),
                         ("dielectric thickness", self.dielectric_thickness_um),
                         ("wire width", self.min_wire_width_um),
                         ("wire space", self.min_wire_space_um),
                         ("via size", self.via_size_um),
                         ("bump size", self.bump_size_um),
                         ("microbump pitch", self.microbump_pitch_um)]:
            if v <= 0:
                raise ValueError(f"{self.name}: {label} must be positive")
        if self.microbump_pitch_um < self.bump_size_um:
            raise ValueError(
                f"{self.name}: bump pitch {self.microbump_pitch_um} smaller "
                f"than bump size {self.bump_size_um}")
        if self.dielectric_key not in DIELECTRICS:
            raise ValueError(f"{self.name}: unknown dielectric "
                             f"{self.dielectric_key!r}")


#: Glass interposer, chiplets side-by-side (Table I "Glass 2.5D" column).
GLASS_25D = InterposerSpec(
    name="glass_25d", display_name="Glass 2.5D",
    style=IntegrationStyle.SIDE_BY_SIDE, routing=RoutingStyle.MANHATTAN,
    metal_layers=7, metal_thickness_um=4.0, dielectric_thickness_um=15.0,
    dielectric_key="glass", min_wire_width_um=2.0, min_wire_space_um=2.0,
    via_size_um=22.0, bump_size_um=16.0, die_spacing_um=100.0,
    microbump_pitch_um=35.0, substrate_thickness_um=155.0,
    supports_embedding=True, tgv_diameter_um=30.0)

#: Glass interposer with embedded memory die under logic die ("5.5D").
GLASS_3D = InterposerSpec(
    name="glass_3d", display_name="Glass 3D",
    style=IntegrationStyle.EMBEDDED_STACK, routing=RoutingStyle.MANHATTAN,
    metal_layers=3, metal_thickness_um=4.0, dielectric_thickness_um=15.0,
    dielectric_key="glass", min_wire_width_um=2.0, min_wire_space_um=2.0,
    via_size_um=22.0, bump_size_um=16.0, die_spacing_um=100.0,
    microbump_pitch_um=35.0, substrate_thickness_um=155.0,
    supports_embedding=True, tgv_diameter_um=30.0)

#: CoWoS-style silicon interposer (Table I "Silicon" column).
SILICON_25D = InterposerSpec(
    name="silicon_25d", display_name="Silicon 2.5D",
    style=IntegrationStyle.SIDE_BY_SIDE, routing=RoutingStyle.MANHATTAN,
    metal_layers=4, metal_thickness_um=1.0, dielectric_thickness_um=1.0,
    dielectric_key="silicon", min_wire_width_um=0.4, min_wire_space_um=0.4,
    via_size_um=0.7, bump_size_um=20.0, die_spacing_um=100.0,
    microbump_pitch_um=40.0, substrate_thickness_um=100.0,
    supports_embedding=False, tgv_diameter_um=10.0)

#: TSV-based 4-tier 3D silicon stack; no interposer routing layers — the
#: metal/dielectric entries describe the top-metal bump redistribution only.
SILICON_3D = InterposerSpec(
    name="silicon_3d", display_name="Silicon 3D",
    style=IntegrationStyle.TSV_STACK, routing=RoutingStyle.MANHATTAN,
    metal_layers=1, metal_thickness_um=1.0, dielectric_thickness_um=1.0,
    dielectric_key="silicon", min_wire_width_um=0.4, min_wire_space_um=0.4,
    via_size_um=0.7, bump_size_um=20.0, die_spacing_um=0.0,
    microbump_pitch_um=40.0, substrate_thickness_um=20.0,
    supports_embedding=False, tgv_diameter_um=2.0)

#: Shinko i-THOP organic interposer with thin-film fine-line layers.
SHINKO = InterposerSpec(
    name="shinko", display_name="Organic (Shinko)",
    style=IntegrationStyle.SIDE_BY_SIDE, routing=RoutingStyle.DIAGONAL,
    metal_layers=7, metal_thickness_um=2.0, dielectric_thickness_um=3.0,
    dielectric_key="shinko", min_wire_width_um=2.0, min_wire_space_um=2.0,
    via_size_um=10.0, bump_size_um=25.0, die_spacing_um=100.0,
    microbump_pitch_um=40.0, substrate_thickness_um=400.0,
    supports_embedding=False, tgv_diameter_um=50.0)

#: APX conventional organic interposer.
APX = InterposerSpec(
    name="apx", display_name="Organic (APX)",
    style=IntegrationStyle.SIDE_BY_SIDE, routing=RoutingStyle.DIAGONAL,
    metal_layers=8, metal_thickness_um=6.0, dielectric_thickness_um=14.0,
    dielectric_key="apx", min_wire_width_um=6.0, min_wire_space_um=6.0,
    via_size_um=32.0, bump_size_um=32.0, die_spacing_um=150.0,
    microbump_pitch_um=50.0, substrate_thickness_um=400.0,
    supports_embedding=False, tgv_diameter_um=60.0)

#: All design points in the paper's table order.
ALL_SPECS: List[InterposerSpec] = [
    GLASS_25D, GLASS_3D, SILICON_25D, SILICON_3D, SHINKO, APX,
]

_SPEC_INDEX: Dict[str, InterposerSpec] = {s.name: s for s in ALL_SPECS}

#: The 2.5D interposer subset (technologies with actual interposer routing).
INTERPOSER_SPECS: List[InterposerSpec] = [
    s for s in ALL_SPECS if s.style is not IntegrationStyle.TSV_STACK
]


def _normalize_spec_name(name: str) -> str:
    """Canonicalize a spec name: lowercase, drop separators and dots.

    Makes common aliases resolve — ``"glass_2_5d"``, ``"glass-2.5d"``,
    and ``"Glass_25D"`` all map to ``"glass_25d"``.
    """
    return "".join(ch for ch in name.lower() if ch.isalnum())


_SPEC_ALIASES: Dict[str, InterposerSpec] = {
    _normalize_spec_name(s.name): s for s in ALL_SPECS
}


def get_spec(name: str) -> InterposerSpec:
    """Look up a design point by name (e.g. ``"glass_3d"``).

    Accepts forgiving aliases: lookup is case-insensitive and ignores
    underscores, hyphens, and dots, so ``"glass_2_5d"`` and
    ``"glass-2.5d"`` resolve to ``"glass_25d"``.

    Raises:
        KeyError: If the name is unknown; the message lists valid names.
    """
    spec = _SPEC_INDEX.get(name)
    if spec is None:
        spec = _SPEC_ALIASES.get(_normalize_spec_name(name))
    if spec is None:
        valid = ", ".join(sorted(_SPEC_INDEX))
        raise KeyError(f"unknown interposer spec {name!r}; valid: {valid}")
    return spec


def spec_names() -> List[str]:
    """Names of all design points in table order."""
    return [s.name for s in ALL_SPECS]
