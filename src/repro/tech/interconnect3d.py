"""Quasi-static electrical models of 3D interconnects: TSV, TGV, micro-bump.

The paper extracts S-parameters of TSV and micro-bump arrays with Ansys HFSS
and converts them to SPICE circuits.  HFSS is proprietary, so this module
provides the closed-form quasi-static equivalents (following the
formulations used in Kim et al., "A PPA Study for Heterogeneous 3-D IC
Options", TVLSI 2023): each vertical interconnect is reduced to a lumped
R-L-C pi model whose values scale correctly with diameter, height, pitch,
and the surrounding material.

Three structures are modelled:

* **TSV** — copper cylinder through silicon with an oxide liner.  The liner
  contributes a large capacitance to the (conductive) substrate; this is
  the dominant TSV parasitic.
* **TGV** — copper cylinder through glass.  Glass is an insulator, so the
  capacitance is only the small coupling to neighbouring vias; this is the
  key electrical advantage of glass quantified in the paper.
* **Micro-bump** — short, fat solder cylinder between stacked dies;
  negligible R and C, a few tens of pH of inductance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .materials import COPPER_RESISTIVITY, EPS0, MU0

#: SiO2 liner relative permittivity.
_EPS_OX = 3.9

#: Bulk silicon relative permittivity (depletion/substrate coupling).
_EPS_SI = 11.7

#: Glass relative permittivity.
_EPS_GLASS = 3.3


@dataclass(frozen=True)
class LumpedRLC:
    """Lumped pi-model parasitics of one vertical interconnect.

    Attributes:
        resistance_ohm: Series resistance.
        inductance_h: Series (partial self) inductance in henries.
        capacitance_f: Total shunt capacitance in farads (split equally
            between the two pi legs when building a circuit).
        conductance_s: Shunt conductance (substrate loss) in siemens.
    """

    resistance_ohm: float
    inductance_h: float
    capacitance_f: float
    conductance_s: float = 0.0

    def series_impedance(self, frequency_hz: float) -> complex:
        """Series branch impedance R + jwL at ``frequency_hz``."""
        w = 2 * math.pi * frequency_hz
        return complex(self.resistance_ohm, w * self.inductance_h)

    def shunt_admittance(self, frequency_hz: float) -> complex:
        """Total shunt admittance G + jwC at ``frequency_hz``."""
        w = 2 * math.pi * frequency_hz
        return complex(self.conductance_s, w * self.capacitance_f)


def _cylinder_resistance(diameter_um: float, height_um: float,
                         frequency_hz: float = 0.0) -> float:
    """DC/AC resistance of a copper cylinder (ohm)."""
    r = diameter_um * 1e-6 / 2
    h = height_um * 1e-6
    area = math.pi * r * r
    r_dc = COPPER_RESISTIVITY * h / area
    if frequency_hz <= 0:
        return r_dc
    # Skin-effect: treat as annulus of one skin depth when delta < radius.
    from .materials import skin_depth
    delta = skin_depth(frequency_hz)
    if delta >= r:
        return r_dc
    shell = math.pi * (r * r - (r - delta) ** 2)
    return COPPER_RESISTIVITY * h / shell


def _partial_self_inductance(diameter_um: float, height_um: float) -> float:
    """Partial self-inductance of a cylinder (Rosa's formula), in henries."""
    r = diameter_um * 1e-6 / 2
    h = height_um * 1e-6
    if h <= 0 or r <= 0:
        raise ValueError("via geometry must be positive")
    # L = (mu0 h / 2pi) [ ln((h + sqrt(h^2+r^2))/r) + r/h - sqrt(1+(r/h)^2) ]
    term = math.log((h + math.sqrt(h * h + r * r)) / r)
    term += r / h - math.sqrt(1 + (r / h) ** 2)
    return MU0 * h / (2 * math.pi) * term


def _coax_capacitance(inner_diameter_um: float, outer_diameter_um: float,
                      height_um: float, eps_r: float) -> float:
    """Coaxial capacitance between via body and a virtual return (farads)."""
    ri = inner_diameter_um * 1e-6 / 2
    ro = outer_diameter_um * 1e-6 / 2
    if ro <= ri:
        raise ValueError("outer radius must exceed inner radius")
    h = height_um * 1e-6
    return 2 * math.pi * EPS0 * eps_r * h / math.log(ro / ri)


def tsv_model(diameter_um: float = 2.0, height_um: float = 20.0,
              pitch_um: float = 10.0, liner_thickness_um: float = 0.1,
              frequency_hz: float = 7e8) -> LumpedRLC:
    """Electrical model of one TSV (paper: mini-TSV 2um dia / 10um pitch).

    The oxide liner capacitance in series with the silicon depletion/bulk
    capacitance to the neighbouring return path dominates.  Substrate
    conductance models silicon loss.

    Args:
        diameter_um: Copper core diameter.
        height_um: TSV height (thinned substrate thickness).
        pitch_um: Centre-to-centre pitch to the return TSV.
        liner_thickness_um: SiO2 liner thickness.
        frequency_hz: Frequency for the skin-effect resistance.
    """
    if pitch_um <= diameter_um:
        raise ValueError("TSV pitch must exceed diameter")
    r = _cylinder_resistance(diameter_um, height_um, frequency_hz)
    l = _partial_self_inductance(diameter_um, height_um)
    c_ox = _coax_capacitance(diameter_um,
                             diameter_um + 2 * liner_thickness_um,
                             height_um, _EPS_OX)
    # Silicon capacitance between liner and return conductor at `pitch`.
    c_si = _coax_capacitance(diameter_um + 2 * liner_thickness_um,
                             2 * pitch_um, height_um, _EPS_SI)
    # Series combination of liner and substrate capacitance.
    c = c_ox * c_si / (c_ox + c_si)
    # Substrate loss: silicon conductivity ~10 S/m (10 ohm-cm wafer).
    # The conductance shares the capacitive geometry factor (G =
    # sigma/eps * C_si), scaled by the liner capacitive divider and
    # suppressed by the depletion region that forms around a biased TSV
    # (the paper's mini-TSVs are depletion-isolated).
    sigma_si = 10.0
    g_sub = sigma_si / (EPS0 * _EPS_SI) * c_si
    divider = c_ox / (c_ox + c_si)
    depletion_suppression = 0.05
    return LumpedRLC(resistance_ohm=r, inductance_h=l, capacitance_f=c,
                     conductance_s=g_sub * divider ** 2
                     * depletion_suppression)


def tgv_model(diameter_um: float = 30.0, height_um: float = 155.0,
              pitch_um: float = 100.0,
              frequency_hz: float = 7e8) -> LumpedRLC:
    """Electrical model of one TGV (through-glass via).

    Glass is an insulator: no liner is needed and no substrate conductance
    exists, so the only capacitance is direct coupling through glass to the
    return via — typically an order of magnitude below a TSV's.

    Args:
        diameter_um: Copper core diameter.
        height_um: Glass core thickness (150-160um per the paper).
        pitch_um: Pitch to the return via.
        frequency_hz: Frequency for the skin-effect resistance.
    """
    if pitch_um <= diameter_um:
        raise ValueError("TGV pitch must exceed diameter")
    r = _cylinder_resistance(diameter_um, height_um, frequency_hz)
    l = _partial_self_inductance(diameter_um, height_um)
    c = _coax_capacitance(diameter_um, 2 * pitch_um, height_um, _EPS_GLASS)
    g = 2 * math.pi * frequency_hz * c * 0.004  # glass loss tangent
    return LumpedRLC(resistance_ohm=r, inductance_h=l, capacitance_f=c,
                     conductance_s=g)


def microbump_model(diameter_um: float = 20.0, height_um: float = 15.0,
                    pitch_um: float = 40.0,
                    frequency_hz: float = 7e8) -> LumpedRLC:
    """Electrical model of one micro-bump (paper: 20um dia / 40um pitch).

    Solder resistivity is ~7x copper; the bump is short so all parasitics
    are small — micro-bumps are the best vertical interconnect in Table V.
    """
    if pitch_um <= diameter_um:
        raise ValueError("bump pitch must exceed diameter")
    solder_resistivity = 12.5e-8  # SnAg solder, ohm-m
    rr = diameter_um * 1e-6 / 2
    h = height_um * 1e-6
    r = solder_resistivity * h / (math.pi * rr * rr)
    l = _partial_self_inductance(diameter_um, height_um)
    c = _coax_capacitance(diameter_um, 2 * pitch_um, height_um, 3.6)
    return LumpedRLC(resistance_ohm=r, inductance_h=l, capacitance_f=c)


def stacked_via_model(via_size_um: float = 22.0,
                      dielectric_thickness_um: float = 15.0,
                      num_layers: int = 3,
                      frequency_hz: float = 7e8) -> LumpedRLC:
    """Stacked RDL microvia chain used by Glass 3D for logic-to-memory links.

    The Glass 3D design connects the embedded memory die to the logic die
    above it through a stack of RDL microvias (Table V: 65um total
    "thickness" path).  Each level is one microvia through one dielectric
    layer; levels are summed in series.

    Args:
        via_size_um: Microvia diameter.
        dielectric_thickness_um: One dielectric layer thickness (= via
            height, since UV-drilled microvias are 1:1 aspect ratio).
        num_layers: Number of stacked via levels.
        frequency_hz: Frequency for the skin-effect resistance.
    """
    if num_layers < 1:
        raise ValueError("need at least one via level")
    one = tgv_model(diameter_um=via_size_um,
                    height_um=dielectric_thickness_um,
                    pitch_um=max(2.0 * via_size_um, via_size_um + 13.0),
                    frequency_hz=frequency_hz)
    return LumpedRLC(resistance_ohm=one.resistance_ohm * num_layers,
                     inductance_h=one.inductance_h * num_layers,
                     capacitance_f=one.capacitance_f * num_layers,
                     conductance_s=one.conductance_s * num_layers)


def cascade(*models: LumpedRLC) -> LumpedRLC:
    """Series-cascade several lumped models (e.g. B2B = two TSVs).

    Series R and L add; shunt C and G add.  This mirrors the paper's
    back-to-back TSV cascade for logic-to-logic connections in Silicon 3D.
    """
    if not models:
        raise ValueError("cascade needs at least one model")
    return LumpedRLC(
        resistance_ohm=sum(m.resistance_ohm for m in models),
        inductance_h=sum(m.inductance_h for m in models),
        capacitance_f=sum(m.capacitance_f for m in models),
        conductance_s=sum(m.conductance_s for m in models))
