"""Chiplet-to-chiplet channel assembly and delay/power measurement.

Builds the circuits behind Table V: AIB transmitter (Thevenin source with
the 128X driver's 47.4-ohm output impedance) → interconnect (an RDL
transmission-line ladder, a TSV/micro-bump lumped network, or a stacked
via) → AIB receiver load — then measures propagation delay and power
from transient simulation, exactly the quantities the paper extracts with
HSPICE.

Each measurement is one per-circuit transient run, memoized by the
channel's physical definition (``_CHANNEL_SIM_CACHE``) rather than its
name, so identical links at different sweep points reuse one
simulation bit-exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..chiplet.iodriver import AIB_DRIVER, IoDriverSpec
from ..circuit import Circuit, simulate
from ..circuit.waveforms import pulse
from ..tech.interconnect3d import LumpedRLC
from .tline import RlgcLine, add_tline_ladder


@dataclass
class Channel:
    """One chiplet-to-chiplet link.

    Exactly one of ``line`` (with ``length_um``) or ``lumped`` describes
    the interconnect.

    Attributes:
        name: Link name, e.g. ``"glass_3d/l2l"``.
        driver: Transmit/receive driver characterization.
        line: Distributed RDL line parameters, or ``None``.
        length_um: Line length when ``line`` is set.
        lumped: Lumped vertical interconnect (TSV/bump/stacked via).
        vdd: Signalling supply.
    """

    name: str
    driver: IoDriverSpec = AIB_DRIVER
    line: Optional[RlgcLine] = None
    length_um: float = 0.0
    lumped: Optional[LumpedRLC] = None
    vdd: float = 0.9

    def __post_init__(self):
        if (self.line is None) == (self.lumped is None):
            raise ValueError("specify exactly one of line or lumped")
        if self.line is not None and self.length_um <= 0:
            raise ValueError("distributed channel needs a positive length")

    def total_capacitance_f(self) -> float:
        """Interconnect capacitance (excluding pads/receiver)."""
        if self.line is not None:
            return self.line.total_capacitance_f(self.length_um * 1e-6)
        return self.lumped.capacitance_f


def add_lumped_pi(ckt: Circuit, prefix: str, n1: str, n2: str,
                  rlc: LumpedRLC) -> None:
    """Expand a lumped vertical interconnect as a pi network.

    The capacitive legs load the node directly (exact C); shunt loss
    (TSV substrate conductance) is added as a separate AC-coupled branch
    — a resistor behind a large blocking capacitor — so it dissipates at
    signal frequencies but never creates a DC leakage path (physically
    the oxide liner blocks DC).
    """
    half_c = rlc.capacitance_f / 2
    for side, node in (("1", n1), ("2", n2)):
        if half_c <= 0:
            continue
        ckt.add_capacitor(f"{prefix}_C{side}", node, "0", half_c)
        if rlc.conductance_s > 0:
            mid = f"{prefix}_g{side}"
            ckt.add_resistor(f"{prefix}_Rg{side}", node, mid,
                             2.0 / rlc.conductance_s)
            ckt.add_capacitor(f"{prefix}_Cg{side}", mid, "0",
                              10.0 * half_c)
    ckt.add_resistor(f"{prefix}_Rs", n1, f"{prefix}_m",
                     max(rlc.resistance_ohm, 1e-4))
    ckt.add_inductor(f"{prefix}_Ls", f"{prefix}_m", n2,
                     max(rlc.inductance_h, 1e-14))


def build_channel_circuit(channel: Channel, frequency_hz: float = 7e8,
                          segments: int = 16) -> Tuple[Circuit, str, str]:
    """Build the TX → interconnect → RX circuit for a channel.

    The transmitter toggles every cycle (the paper's worst-case monitor
    net), swinging 0 → vdd with a 25 ps edge behind the driver's output
    impedance.

    Returns:
        (circuit, tx_pad_node, rx_pad_node).
    """
    ckt = Circuit(channel.name)
    period = 1.0 / frequency_hz
    drive = pulse(0.0, channel.vdd, delay=0.1 * period, rise=25e-12,
                  fall=25e-12, width=period / 2 - 25e-12, period=period)
    ckt.add_vsource("Vtx", "src", "0", drive)
    ckt.add_resistor("Rtx", "src", "txpad", channel.driver.output_impedance_ohm)
    ckt.add_capacitor("Ctxpad", "txpad", "0",
                      channel.driver.pad_cap_ff * 1e-15)

    if channel.line is not None:
        add_tline_ladder(ckt, "line", "txpad", "rxpad", channel.line,
                         channel.length_um, segments=segments)
    else:
        add_lumped_pi(ckt, "v", "txpad", "rxpad", channel.lumped)

    ckt.add_capacitor("Crxpad", "rxpad", "0",
                      channel.driver.pad_cap_ff * 1e-15)
    ckt.add_capacitor("Crx", "rxpad", "0",
                      channel.driver.rx_input_cap_ff * 1e-15)
    return ckt, "txpad", "rxpad"


@dataclass
class ChannelReport:
    """Delay/power measurement of one channel (one Table V row).

    Attributes:
        name: Channel name.
        driver_delay_ps: TX+RX chain delay (AIB characterization).
        interconnect_delay_ps: 50%-to-50% delay through the interconnect.
        total_delay_ps: Sum.
        driver_power_uw: TX+RX internal power at the link rate.
        interconnect_power_uw: Power delivered into the interconnect
            (measured from the transient source current).
        total_power_uw: Sum.
    """

    name: str
    driver_delay_ps: float
    interconnect_delay_ps: float
    total_delay_ps: float
    driver_power_uw: float
    interconnect_power_uw: float
    total_power_uw: float


def measure_channel(channel: Channel, frequency_hz: float = 7e8,
                    activity: float = 1.0) -> ChannelReport:
    """Simulate a channel and extract the Table V metrics.

    Args:
        channel: The link under test.
        frequency_hz: Link toggle rate (700 MHz in the paper).
        activity: Toggle activity for the driver-power model.
    """
    period = 1.0 / frequency_hz
    dt = period / 700.0
    key = _channel_sim_key(channel, frequency_hz, dt)
    raw = _CHANNEL_SIM_CACHE.get(key)
    if raw is None:
        raw = _simulate_delay_power(channel, frequency_hz, dt)
        _CHANNEL_SIM_CACHE[key] = raw
    raw_delay, raw_power = raw

    # De-embed the driver pads: measure a pads-only reference channel
    # (zero-length interconnect) and subtract its delay and power — the
    # paper charges pad parasitics to the "IO drivers" column.
    base_delay, base_power = _pads_only_reference(channel, frequency_hz,
                                                  dt)
    interconnect_delay_ps = max(0.0, raw_delay - base_delay)
    interconnect_power_uw = max(0.0, raw_power - base_power) * activity

    drv_delay = channel.driver.driver_delay_ps(0.0)
    drv_power = channel.driver.driver_power_uw(frequency_hz, activity)
    return ChannelReport(
        name=channel.name,
        driver_delay_ps=drv_delay,
        interconnect_delay_ps=interconnect_delay_ps,
        total_delay_ps=drv_delay + interconnect_delay_ps,
        driver_power_uw=drv_power,
        interconnect_power_uw=interconnect_power_uw,
        total_power_uw=drv_power + interconnect_power_uw)


#: Memoized raw channel measurements keyed by the channel's *physical*
#: definition (driver parasitics, swing, interconnect parameters,
#: timebase) rather than its name.  Sweep points whose axes leave a
#: given link untouched — the dse_smoke sweep rebuilds identical
#: TSV/micro-bump channels at every point — reuse one simulation, and
#: because the hit returns the per-circuit solver's own floats the
#: reuse is bit-exact.
_CHANNEL_SIM_CACHE: dict = {}


def _channel_sim_key(channel: Channel, frequency_hz: float,
                     dt: float) -> tuple:
    """Physical identity of a channel measurement (name-independent)."""
    if channel.line is not None:
        inter = ("line", channel.length_um) + dataclasses.astuple(channel.line)
    else:
        inter = ("lumped",) + dataclasses.astuple(channel.lumped)
    return (channel.driver.output_impedance_ohm, channel.driver.pad_cap_ff,
            channel.driver.rx_input_cap_ff, channel.vdd, frequency_hz,
            dt) + inter


def _simulate_delay_power(channel: Channel, frequency_hz: float,
                          dt: float) -> Tuple[float, float]:
    """(delay_ps src→rx, avg power W→uW) of one channel simulation."""
    ckt, tx, rx = build_channel_circuit(channel, frequency_hz)
    period = 1.0 / frequency_hz
    result = simulate(ckt, t_stop=4.0 * period, dt=dt,
                      record=["src", tx, rx], record_currents=["Vtx"])
    vmid = channel.vdd / 2.0
    t_src = _first_crossing(result.time, result.voltage("src"), vmid)
    t_rx = _first_crossing(result.time, result.voltage(rx), vmid)
    if t_src is None or t_rx is None:
        raise RuntimeError(f"{channel.name}: signal never crossed mid-rail"
                           " — channel is broken or too lossy")
    delay_ps = max(0.0, (t_rx - t_src) * 1e12)
    # Average power over the last full period (steady-state toggling):
    # P = mean(v_src * i_src).  Source current sign: positive into n1, so
    # delivered power is v * (-i).
    i = result.vsource_currents["Vtx"]
    v = result.voltage("src")
    n_tail = int(period / dt)
    p_uw = max(0.0, float(np.mean((v * -i)[-n_tail:]))) * 1e6
    return delay_ps, p_uw


#: Memoized pads-only reference measurements.  The reference depends
#: only on the driver parasitics, swing, and timebase — not on the
#: channel's interconnect — so the l2m and l2l channels of one design
#: (and every design sharing the AIB driver) reuse one simulation.
_PADS_REF_CACHE: dict = {}


def _pads_only_reference(channel: Channel, frequency_hz: float,
                         dt: float) -> Tuple[float, float]:
    """Delay/power of the same driver into pads only (for de-embedding)."""
    from ..tech.interconnect3d import LumpedRLC as _RLC
    key = (channel.driver.output_impedance_ohm, channel.driver.pad_cap_ff,
           channel.driver.rx_input_cap_ff, channel.vdd, frequency_hz, dt)
    hit = _PADS_REF_CACHE.get(key)
    if hit is None:
        ref = Channel(name=f"{channel.name}/pads", driver=channel.driver,
                      lumped=_RLC(resistance_ohm=1e-4, inductance_h=1e-14,
                                  capacitance_f=0.0),
                      vdd=channel.vdd)
        hit = _simulate_delay_power(ref, frequency_hz, dt)
        _PADS_REF_CACHE[key] = hit
    return hit


def _first_crossing(time: np.ndarray, wave: np.ndarray,
                    level: float) -> Optional[float]:
    """Time of the first upward crossing of ``level`` (linear interp)."""
    above = wave >= level
    idx = np.nonzero(~above[:-1] & above[1:])[0]
    if len(idx) == 0:
        return None
    k = int(idx[0])
    v0, v1 = wave[k], wave[k + 1]
    frac = (level - v0) / (v1 - v0) if v1 != v0 else 0.0
    return float(time[k] + frac * (time[k + 1] - time[k]))
