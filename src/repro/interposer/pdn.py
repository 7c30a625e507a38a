"""Power delivery network construction for each interposer technology.

Section VI-B: every design gets two dedicated PDN metal layers — a power
plane directly above a ground plane — fed from the package side through
through-vias (TGVs for glass, TSVs for silicon, plated through-holes for
organics) and delivering current up to the chiplet bumps through the RDL
stack.  This module derives the *geometry* of that network from the
technology stackup; the electrical analyses live in :mod:`repro.pi`.

The decisive technology differences, mirrored in the paper's Fig. 15:

* **Glass 3D** places the planes immediately under the chiplets (only 3
  metal layers total) → tiny current-loop area → lowest impedance.
* **Glass 2.5D** needs 5 signal layers above the planes, pushing the
  planes ~5 dielectric layers (15 um each) away from the chiplets.
* **Silicon** has very thin dielectrics (1 um) so the loop stays small,
  but its thin 1 um metal raises plane resistance.
* **Organics** feed power through a thick laminate core (~400 um PTHs)
  and have low metal-to-dielectric thickness ratios → largest loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..tech.interconnect3d import LumpedRLC, tgv_model, tsv_model
from ..tech.interposer import (IntegrationStyle, InterposerSpec)
from ..tech.materials import MU0, RDL_COPPER
from .placement import InterposerPlacement


@dataclass
class PdnStackup:
    """Geometric/electrical summary of one design's PDN.

    Attributes:
        spec: The interposer technology.
        plane_area_mm2: Area of the power/ground plane pair.
        plane_separation_um: Dielectric gap between the P and G planes.
        feed_depth_um: Vertical distance from the chiplet bumps down to
            the plane pair (RDL dielectric path) — the dominant loop-area
            term.
        core_feed_um: Extra feed path through the substrate core for
            technologies fed from the BGA side (organics), 0 otherwise.
        metal_thickness_um: PDN plane metal thickness.
        n_feed_vias: Parallel through-vias feeding the planes.
        via: Electrical model of one feed via.
    """

    spec: InterposerSpec
    plane_area_mm2: float
    plane_separation_um: float
    feed_depth_um: float
    core_feed_um: float
    metal_thickness_um: float
    n_feed_vias: int
    via: LumpedRLC

    # ------------------------------------------------------------------ #
    # Derived electrical parameters consumed by repro.pi.
    # ------------------------------------------------------------------ #

    def plane_capacitance_f(self) -> float:
        """Parallel-plate capacitance of the P/G plane pair."""
        eps = self.spec.dielectric.permittivity()
        area_m2 = self.plane_area_mm2 * 1e-6
        return eps * area_m2 / (self.plane_separation_um * 1e-6)

    def plane_sheet_resistance(self) -> float:
        """Sheet resistance (ohm/sq) of one PDN plane."""
        return RDL_COPPER.sheet_resistance(self.metal_thickness_um)

    def plane_spreading_inductance_h(self) -> float:
        """Spreading inductance of the plane pair (current loop in the
        P-G gap), ~ mu0 * d * k for a near-square plane."""
        d_m = self.plane_separation_um * 1e-6
        return MU0 * d_m * 0.6  # 0.6: square-plane spreading factor

    def feed_loop_inductance_h(self) -> float:
        """Loop inductance of the vertical feed from bumps to planes.

        The current loop spans the feed depth (plus any core feed) over a
        lateral spread comparable to the bump-field pitch; per unit cell
        this is ``mu0 * depth * k`` and the cells parallel across the
        feed vias.
        """
        depth_m = (self.feed_depth_um + self.core_feed_um) * 1e-6
        l_cell = MU0 * depth_m * 2.2  # narrow loop factor
        l_vias = (self.via.inductance_h * 2.0) / max(self.n_feed_vias, 1)
        return l_cell / max(math.sqrt(self.n_feed_vias), 1.0) + l_vias

    def feed_resistance_ohm(self) -> float:
        """Series resistance of the via feed array (P + G paths)."""
        return 2.0 * self.via.resistance_ohm / max(self.n_feed_vias, 1)

    def loop_inductance_h(self) -> float:
        """Total PDN loop inductance seen from the chiplet bumps."""
        return (self.feed_loop_inductance_h()
                + self.plane_spreading_inductance_h())


def build_pdn(placement: InterposerPlacement,
              n_feed_vias: Optional[int] = None) -> PdnStackup:
    """Derive the PDN stackup for a placed design.

    Args:
        placement: The die placement (provides the plane area).
        n_feed_vias: Through-via count feeding the planes; defaults to a
            technology-appropriate array (one via per ~150 um of die-field
            perimeter, which is how the paper rings its designs with
            TGVs/TSVs — see Fig. 11).

    Returns:
        A :class:`PdnStackup`.
    """
    spec = placement.spec
    area = placement.area_mm2

    signal_layers = max(1, spec.metal_layers - 2)
    if spec.style is IntegrationStyle.EMBEDDED_STACK:
        # Planes directly beneath the die field (1 signal layer above).
        feed_depth = spec.dielectric_thickness_um * 1.0
    else:
        feed_depth = spec.dielectric_thickness_um * signal_layers

    core_feed = 0.0
    if spec.name in ("shinko", "apx"):
        # Organic interposers are fed from the BGA through core PTHs.
        core_feed = spec.substrate_thickness_um

    if n_feed_vias is None:
        if spec.style is IntegrationStyle.TSV_STACK:
            # Power climbs the stack through a TSV array matching the
            # base die's P/G bump field (165 bumps in Table II) — a
            # perimeter ring of 2 um mini-TSVs could not carry the
            # stack current within electromigration limits.
            n_feed_vias = 160
        else:
            perimeter_mm = 2.0 * (placement.width_mm
                                  + placement.height_mm)
            n_feed_vias = max(8, int(perimeter_mm * 1000.0 / 150.0))

    if spec.name.startswith("glass"):
        via = tgv_model(diameter_um=spec.tgv_diameter_um,
                        height_um=spec.substrate_thickness_um,
                        pitch_um=150.0)
    elif spec.name.startswith("silicon"):
        via = tsv_model(diameter_um=spec.tgv_diameter_um,
                        height_um=spec.substrate_thickness_um,
                        pitch_um=50.0)
    else:
        # Organic PTH: fat copper barrel through the core.
        via = tgv_model(diameter_um=spec.tgv_diameter_um,
                        height_um=spec.substrate_thickness_um,
                        pitch_um=300.0)

    return PdnStackup(
        spec=spec,
        plane_area_mm2=area,
        plane_separation_um=spec.dielectric_thickness_um,
        feed_depth_um=feed_depth,
        core_feed_um=core_feed,
        metal_thickness_um=spec.metal_thickness_um,
        n_feed_vias=n_feed_vias,
        via=via)
