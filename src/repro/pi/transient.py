"""Power transient analysis: regulator settling and droop (Table IV).

Section VII-A: an integrated voltage regulator switching at 125 MHz
powers each interposer's PDN; the paper measures the voltage droop when
the chiplets start switching and the time for the rail to stabilize
(3.7-5.4 us depending on the interposer).

Here the IVR is modelled as an ideal source behind its effective output
inductance/resistance (a buck stage's LC averaged response), driving the
PDN equivalent circuit loaded by the chiplet current.  The transient
engine integrates the rail voltage and the settling time is extracted
with a tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit import Circuit, simulate
from ..circuit.waveforms import step
from ..interposer.pdn import PdnStackup
from .impedance import PACKAGE_L_H, PACKAGE_R_OHM, loop_scale_for

#: Effective IVR output inductance (buck averaged model), henries.
REGULATOR_L_H = 15e-9

#: Effective IVR output resistance, ohm.
REGULATOR_R_OHM = 0.05

#: IVR switching frequency (ripple source), Hz.
REGULATOR_FSW_HZ = 125e6


@dataclass
class PowerTransientReport:
    """Regulator/PDN transient result.

    Attributes:
        settling_time_us: Time for the rail to stay within the band.
        droop_mv: Worst instantaneous deviation below the final rail.
        final_voltage_v: Rail voltage at the end of the run.
        time_s: Simulation time points.
        rail_v: Rail waveform.
    """

    settling_time_us: float
    droop_mv: float
    final_voltage_v: float
    time_s: np.ndarray
    rail_v: np.ndarray


def analyze_power_transient(pdn: PdnStackup, load_power_w: float,
                            vdd: float = 0.9,
                            t_stop: float = 8e-6,
                            tolerance: float = 0.015
                            ) -> PowerTransientReport:
    """Simulate rail power-up + load engagement and extract settling.

    Args:
        pdn: PDN stackup of the design.
        load_power_w: Total chiplet power (sets the load current).
        vdd: Regulator target voltage.
        t_stop: Simulation length.
        tolerance: Settling band (fraction of final value).

    Raises:
        KeyError: If the spec has no PDN loop calibration
            (:data:`~repro.pi.impedance.LOOP_SCALE`).
    """
    if load_power_w <= 0:
        raise ValueError("load power must be positive")
    scale = loop_scale_for(pdn.spec.name)

    ckt = Circuit(f"pwr_{pdn.spec.name}")
    # Regulator: target step through its averaged output impedance, plus
    # a small 125 MHz ripple component.
    ckt.add_vsource("Vreg", "vr", "0", step(vdd, t_start=0.0,
                                            rise_time=50e-9))
    ckt.add_resistor("Rreg", "vr", "nr", REGULATOR_R_OHM)
    ckt.add_inductor("Lreg", "nr", "plane_in", REGULATOR_L_H)
    # Package between regulator and interposer planes.
    ckt.add_resistor("Rpkg", "plane_in", "npk", PACKAGE_R_OHM)
    ckt.add_inductor("Lpkg", "npk", "plane", PACKAGE_L_H)
    # Interposer planes and feed to the bumps.
    ckt.add_resistor("Resr", "plane", "nc",
                     max(pdn.plane_sheet_resistance(), 1e-5))
    ckt.add_capacitor("Cplane", "nc", "0", pdn.plane_capacitance_f())
    ckt.add_resistor("Rfeed", "plane", "nf",
                     max(pdn.feed_resistance_ohm()
                         + 2.0 * pdn.plane_sheet_resistance(), 1e-4))
    ckt.add_inductor("Lfeed", "nf", "bump",
                     max(pdn.loop_inductance_h() * scale, 1e-13))
    # On-die decap of the chiplets (~1 nF/chip at 28nm) steadies the bump.
    ckt.add_capacitor("Cdie", "bump", "0", 2.0e-9)
    # Die-level loss (gate leakage, lossy decap ESR) — weak damping only;
    # a switching load is a current sink, not a resistor, so it provides
    # no damping of the PDN's L-C resonance.
    ckt.add_resistor("Rdie", "bump", "0", 250.0)
    # Load profile: half the chiplet current ramps in gently once the
    # rail is up, then the other half steps in hard.  The step excites
    # the PDN loop inductance against the die decap; high-inductance PDNs
    # ring longer before re-entering the settling band (the mechanism
    # behind Table IV's settling-time spread).
    i_avg = load_power_w / vdd
    t_base = min(1.6e-6, 0.25 * t_stop)
    t_step = min(2.8e-6, 0.45 * t_stop)
    ckt.add_isource("Ibase", "bump", "0",
                    step(0.5 * i_avg, t_start=t_base, rise_time=400e-9))
    ckt.add_isource("Istep", "bump", "0",
                    step(0.5 * i_avg, t_start=t_step, rise_time=10e-9))

    dt = 2.0e-9
    result = simulate(ckt, t_stop=t_stop, dt=dt, record=["bump"],
                      use_ic=False)
    rail = result.voltage("bump")
    final = float(np.mean(rail[-int(0.4e-6 / dt):]))
    band = tolerance * final
    outside = np.abs(rail - final) > band
    if outside.any():
        last = int(np.nonzero(outside)[0][-1])
        settle_s = result.time[min(last + 1, len(result.time) - 1)]
    else:
        settle_s = 0.0
    # Droop: worst dip after the load step (excludes the power-up ramp).
    post = rail[result.time >= t_step]
    droop = float(max(0.0, final - post.min()))
    return PowerTransientReport(settling_time_us=settle_s * 1e6,
                                droop_mv=droop * 1e3,
                                final_voltage_v=final,
                                time_s=result.time, rail_v=rail)
