"""CTE-mismatch stress and warpage estimation.

The paper's materials discussion leans on glass's "customizable thermal
expansion" for chip reliability: ENA1 glass at ~3.8 ppm/K nearly matches
silicon dies (2.6 ppm/K), while organic laminates at 17-20 ppm/K do not.
This module quantifies that claim with the standard first-order models:

* **Bi-material curvature** (Stoney/Timoshenko): die-on-substrate
  curvature and warpage over a reflow excursion.
* **Distance-to-neutral-point (DNP) shear**: the strain the outermost
  micro-bump joint absorbs, the classic solder-fatigue driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ..tech.interposer import InterposerSpec
from ..tech.materials import DIELECTRICS

#: Young's moduli (GPa).
E_SILICON_GPA = 130.0
E_GLASS_GPA = 77.0
E_ORGANIC_GPA = 26.0

#: Die CTE (silicon).
DIE_CTE_PPM = 2.6

#: Reflow excursion for warpage quoting (25 C -> 250 C).
REFLOW_DELTA_K = 225.0

#: Micro-bump height used for DNP shear strain (um).
BUMP_HEIGHT_UM = 15.0


def substrate_properties(spec: InterposerSpec) -> Dict[str, float]:
    """(CTE ppm/K, modulus GPa) of a technology's substrate."""
    if spec.name.startswith("glass"):
        return {"cte_ppm": DIELECTRICS["glass"].cte_ppm,
                "modulus_gpa": E_GLASS_GPA}
    if spec.name.startswith("silicon"):
        return {"cte_ppm": DIELECTRICS["silicon_bulk"].cte_ppm,
                "modulus_gpa": E_SILICON_GPA}
    key = "shinko" if spec.name == "shinko" else "apx"
    return {"cte_ppm": DIELECTRICS[key].cte_ppm,
            "modulus_gpa": E_ORGANIC_GPA}


@dataclass
class WarpageReport:
    """CTE-mismatch analysis of a die on one substrate.

    Attributes:
        design: Technology name.
        cte_mismatch_ppm: |substrate - die| CTE.
        curvature_per_m: Bi-material curvature at the reflow excursion.
        warpage_um: Bow across the die diagonal.
        dnp_shear_strain_pct: Shear strain of the corner micro-bump.
    """

    design: str
    cte_mismatch_ppm: float
    curvature_per_m: float
    warpage_um: float
    dnp_shear_strain_pct: float


def analyze_warpage(spec: InterposerSpec, die_width_mm: float = 0.94,
                    die_thickness_um: float = 100.0,
                    delta_t_k: float = REFLOW_DELTA_K) -> WarpageReport:
    """First-order warpage/strain analysis of a die on one substrate.

    Timoshenko's bi-material-strip curvature with equal-width layers::

        kappa = 6 E1 E2 t1 t2 (t1 + t2) dCTE dT / D

    where ``D`` collects the flexural terms; warpage is the circular-arc
    bow across the die's diagonal.

    Args:
        spec: Interposer technology (substrate material + thickness).
        die_width_mm: Die edge length.
        die_thickness_um: Die thickness.
        delta_t_k: Temperature excursion.
    """
    if die_width_mm <= 0 or die_thickness_um <= 0 or delta_t_k < 0:
        raise ValueError("geometry and excursion must be positive")
    sub = substrate_properties(spec)
    d_cte = abs(sub["cte_ppm"] - DIE_CTE_PPM) * 1e-6

    t1 = die_thickness_um * 1e-6
    t2 = spec.substrate_thickness_um * 1e-6
    e1 = E_SILICON_GPA * 1e9
    e2 = sub["modulus_gpa"] * 1e9
    # Timoshenko bi-metal curvature (unit width).
    h = t1 + t2
    m = t1 / t2
    n = e1 / e2
    kappa = (6.0 * d_cte * delta_t_k * (1 + m) ** 2) / (
        h * (3 * (1 + m) ** 2
             + (1 + m * n) * (m ** 2 + 1.0 / (m * n))))

    # Bow over the die diagonal: w = kappa * L^2 / 8 (shallow arc).
    diag_m = die_width_mm * math.sqrt(2.0) * 1e-3
    warpage_um = kappa * diag_m ** 2 / 8.0 * 1e6

    # DNP shear on the corner joint at operating excursion (~100 K):
    dnp_m = diag_m / 2.0
    shear = d_cte * 100.0 * dnp_m / (BUMP_HEIGHT_UM * 1e-6)
    return WarpageReport(design=spec.name,
                         cte_mismatch_ppm=d_cte * 1e6,
                         curvature_per_m=kappa,
                         warpage_um=warpage_um,
                         dnp_shear_strain_pct=shear * 100.0)
