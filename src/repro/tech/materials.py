"""Material property database for interposer substrates and conductors.

The paper compares glass, silicon, and organic (Shinko build-up film and APX)
interposer substrates.  Signal-integrity, power-integrity, and thermal
behaviour all trace back to a small set of bulk material properties collected
here.  Values are taken from the paper where stated (dielectric constants in
Table I) and from standard references otherwise (thermal conductivities,
loss tangents, copper resistivity).

Units are SI throughout: ohm-metres, farads-per-metre, watts per
metre-kelvin, etc.  Geometry elsewhere in the package is handled in microns
and converted at the model boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Vacuum permittivity (F/m).
EPS0 = 8.8541878128e-12

#: Vacuum permeability (H/m).
MU0 = 1.25663706212e-6

#: Speed of light in vacuum (m/s).
C0 = 299792458.0

#: Bulk resistivity of electroplated copper at room temperature (ohm-m).
#: RDL copper is slightly more resistive than bulk annealed copper.
COPPER_RESISTIVITY = 1.72e-8

#: Copper thermal conductivity (W/m-K).
COPPER_THERMAL_K = 385.0


@dataclass(frozen=True)
class Dielectric:
    """An insulating material used as interposer substrate or build-up film.

    Attributes:
        name: Human-readable material name.
        eps_r: Relative permittivity at ~1 GHz.
        loss_tangent: Dielectric loss tangent at ~1 GHz.
        thermal_k: Thermal conductivity in W/(m K).
        cte_ppm: Coefficient of thermal expansion in ppm/K.  Glass CTE is
            tunable; the value here is the ENA1 panel glass used by the
            Georgia Tech PRC process.
    """

    name: str
    eps_r: float
    loss_tangent: float
    thermal_k: float
    cte_ppm: float

    def permittivity(self) -> float:
        """Absolute permittivity in F/m."""
        return EPS0 * self.eps_r


@dataclass(frozen=True)
class Conductor:
    """A metal used for RDL wiring, planes, and vias.

    Attributes:
        name: Human-readable metal name.
        resistivity: Bulk resistivity in ohm-m.
        thermal_k: Thermal conductivity in W/(m K).
    """

    name: str
    resistivity: float
    thermal_k: float

    def sheet_resistance(self, thickness_um: float) -> float:
        """Sheet resistance (ohm/sq) of a film of the given thickness.

        Args:
            thickness_um: Metal thickness in microns.
        """
        if thickness_um <= 0:
            raise ValueError(f"thickness must be positive, got {thickness_um}")
        return self.resistivity / (thickness_um * 1e-6)


#: ENA1 panel glass (Georgia Tech PRC) — the paper's glass core.
#: Dielectric constant 3.3 stated in Table I; loss tangent ~0.004 is typical
#: for alkali-free display glass; thermal conductivity ~1.1 W/mK is the
#: dominant reason glass traps heat relative to silicon.
GLASS = Dielectric(name="ENA1 glass", eps_r=3.3, loss_tangent=0.004,
                   thermal_k=1.1, cte_ppm=3.8)

#: Bulk silicon with thin SiO2 liner; eps_r 3.9 is the oxide value used for
#: RDL capacitance on silicon interposers (Table I).  Silicon substrates are
#: lossy at GHz due to substrate conductivity, captured by an elevated
#: effective loss tangent.
SILICON_OXIDE = Dielectric(name="SiO2 on Si", eps_r=3.9, loss_tangent=0.012,
                           thermal_k=1.4, cte_ppm=0.5)

#: The silicon bulk itself — used by the thermal model, not the SI model.
SILICON_BULK = Dielectric(name="bulk Si", eps_r=11.7, loss_tangent=0.015,
                          thermal_k=149.0, cte_ppm=2.6)

#: Shinko i-THOP style thin-film organic build-up dielectric (Table I: 3.5).
ORGANIC_SHINKO = Dielectric(name="Shinko build-up film", eps_r=3.5,
                            loss_tangent=0.008, thermal_k=0.3, cte_ppm=17.0)

#: APX conventional organic build-up dielectric (Table I: 3.1).
ORGANIC_APX = Dielectric(name="APX build-up film", eps_r=3.1,
                         loss_tangent=0.007, thermal_k=0.25, cte_ppm=20.0)

#: Die-attach film used to fix embedded dies in blind glass cavities.
DIE_ATTACH_FILM = Dielectric(name="die-attach film", eps_r=3.4,
                             loss_tangent=0.01, thermal_k=0.4, cte_ppm=50.0)

#: Underfill between flip-chip bumps.
UNDERFILL = Dielectric(name="underfill", eps_r=3.6, loss_tangent=0.01,
                       thermal_k=0.5, cte_ppm=30.0)

#: Electroplated RDL copper.
RDL_COPPER = Conductor(name="RDL copper", resistivity=COPPER_RESISTIVITY,
                       thermal_k=COPPER_THERMAL_K)

#: All dielectric materials keyed by short name, for lookup from specs.
DIELECTRICS = {
    "glass": GLASS,
    "silicon": SILICON_OXIDE,
    "silicon_bulk": SILICON_BULK,
    "shinko": ORGANIC_SHINKO,
    "apx": ORGANIC_APX,
    "daf": DIE_ATTACH_FILM,
    "underfill": UNDERFILL,
}


def skin_depth(frequency_hz: float,
               resistivity: float = COPPER_RESISTIVITY) -> float:
    """Skin depth (m) of a conductor at the given frequency.

    Args:
        frequency_hz: Frequency in Hz; must be positive.
        resistivity: Conductor resistivity in ohm-m.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    import math
    return math.sqrt(resistivity / (math.pi * frequency_hz * MU0))


def effective_resistance_per_m(width_um: float, thickness_um: float,
                               frequency_hz: float,
                               resistivity: float = COPPER_RESISTIVITY) -> float:
    """AC resistance per metre of a rectangular trace including skin effect.

    Below the skin-effect corner the DC value is returned; above it the
    current is confined to a perimeter shell one skin depth thick.

    Args:
        width_um: Trace width in microns.
        thickness_um: Trace thickness in microns.
        frequency_hz: Analysis frequency in Hz (0 allowed → DC).
        resistivity: Conductor resistivity in ohm-m.
    """
    w = width_um * 1e-6
    t = thickness_um * 1e-6
    r_dc = resistivity / (w * t)
    if frequency_hz <= 0:
        return r_dc
    delta = skin_depth(frequency_hz, resistivity)
    if delta >= t / 2 and delta >= w / 2:
        return r_dc
    # Conduction shell: perimeter times min(delta, half-thickness).
    shell = 2 * (w + t) * min(delta, min(w, t) / 2)
    shell = min(shell, w * t)
    return resistivity / shell
