"""PRBS eye-diagram analysis (plays Keysight ADS for Fig. 14).

A victim channel is driven with a PRBS-7 pattern while two neighbouring
aggressors carry independent PRBS patterns through the coupled-line
bundle.  The received waveform is folded into a unit-interval eye and the
standard metrics — eye width at the decision threshold and eye height at
the sampling phase — are extracted.

The paper simulates at 0.7 Gbps with two aggressors on the worst-case
victim; those are the defaults here.

The channels this flow builds are linear, so one pulse-response bank
determines the received waveform for *every* bit pattern by shifted
superposition (see :func:`repro.circuit.transient.pulse_response_bank`);
no per-pattern re-stepping.  A circuit the bank cannot carry (an empty
one, or a singular DC system) automatically falls back to full
trapezoidal stepping.  The test suite pins the superposition result to
a forced-stepping reference at ≤1e-9 on every design's channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chiplet.iodriver import AIB_DRIVER, IoDriverSpec
from ..circuit import Circuit, simulate
from ..circuit.mna import CircuitStamps
from ..circuit.transient import pulse_response_bank
from ..circuit.waveforms import bitstream, prbs_bits
from ..tech.interconnect3d import LumpedRLC
from .channel import add_lumped_pi
from .crosstalk import CoupledLine, add_coupled_bundle
from .tline import RlgcLine, add_tline_ladder


@dataclass
class EyeResult:
    """Extracted eye metrics.

    Attributes:
        eye_width_ns: Horizontal opening at the mid-rail threshold.
        eye_height_v: Vertical opening at the optimal sampling phase.
        ui_ns: Unit interval.
        samples_per_ui: Time resolution of the folded eye.
        high_min: Per-phase lower envelope of '1' traces.
        low_max: Per-phase upper envelope of '0' traces.
    """

    eye_width_ns: float
    eye_height_v: float
    ui_ns: float
    samples_per_ui: int
    high_min: np.ndarray
    low_max: np.ndarray

    @property
    def is_open(self) -> bool:
        """Whether the eye has positive width and height."""
        return self.eye_width_ns > 0 and self.eye_height_v > 0


def fold_eye(time: np.ndarray, wave: np.ndarray, bits: Sequence[int],
             bit_period: float, latency: float,
             samples_per_ui: int = 64) -> Tuple[np.ndarray, np.ndarray]:
    """Fold a waveform into per-phase '1'/'0' envelopes.

    For each transmitted bit, the received waveform over that bit's UI
    (shifted by the channel latency) is sampled on a uniform phase grid;
    '1' traces contribute to the lower envelope of highs, '0' traces to
    the upper envelope of lows.

    Args:
        time: Simulation time points (uniform).
        wave: Received waveform.
        bits: Transmitted bit sequence.
        bit_period: UI in seconds.
        latency: Channel latency in seconds (aligns bits to the output).
        samples_per_ui: Phase resolution.

    Returns:
        (high_min, low_max) arrays of length ``samples_per_ui``; entries
        are NaN where no trace of that polarity exists.

    Raises:
        ValueError: If the waveform covers fewer UIs than ``bits`` after
            the latency shift — pass fewer bits or a longer waveform.
    """
    dt = time[1] - time[0]
    high_min = np.full(samples_per_ui, np.nan)
    low_max = np.full(samples_per_ui, np.nan)
    phases = np.arange(samples_per_ui) / samples_per_ui * bit_period
    bit_arr = np.asarray(bits, dtype=bool)
    # One gather for every (bit, phase) sample; folding with fmin/fmax
    # reductions is associative, so the envelopes are bit-identical to
    # the per-bit loop this replaces.
    starts = np.arange(len(bit_arr)) * bit_period + latency
    idx = np.round((starts[:, None] + phases[None, :]) / dt).astype(int)
    if len(bit_arr):
        bad = idx[:, -1] >= len(wave)
        if bad.any():
            covered = int(np.argmax(bad))
            raise ValueError(
                f"waveform covers only {covered} of {len(bit_arr)} UIs "
                f"after the {latency * 1e12:.1f} ps latency shift "
                f"({len(bit_arr) - covered} bit(s) short) — pass at most "
                f"{covered} bits or simulate a longer waveform")
    if len(bit_arr):
        traces = wave[idx]
        if bit_arr.any():
            high_min = np.fmin.reduce(traces[bit_arr], axis=0)
        if not bit_arr.all():
            low_max = np.fmax.reduce(traces[~bit_arr], axis=0)
    return high_min, low_max


def eye_metrics(high_min: np.ndarray, low_max: np.ndarray,
                bit_period: float, vdd: float) -> EyeResult:
    """Compute eye width/height from the folded envelopes.

    Eye height is the maximum per-phase opening; eye width is the span of
    phases (treated circularly) where the eye is open at mid-rail.
    """
    n = len(high_min)
    opening = high_min - low_max
    opening = np.where(np.isnan(opening), -vdd, opening)
    height = float(np.nanmax(opening))
    if height <= 0:
        return EyeResult(eye_width_ns=0.0, eye_height_v=0.0,
                         ui_ns=bit_period * 1e9, samples_per_ui=n,
                         high_min=high_min, low_max=low_max)

    vmid = vdd / 2.0
    open_mask = ((np.where(np.isnan(high_min), -np.inf, high_min) > vmid)
                 & (np.where(np.isnan(low_max), np.inf, low_max) < vmid))
    # Longest circular run of open phases.
    if open_mask.all():
        run = n
    else:
        doubled = np.concatenate([open_mask, open_mask])
        run = best = 0
        for v in doubled:
            run = run + 1 if v else 0
            best = max(best, run)
        run = min(best, n)
    width_s = run / n * bit_period
    return EyeResult(eye_width_ns=width_s * 1e9, eye_height_v=height,
                     ui_ns=bit_period * 1e9, samples_per_ui=n,
                     high_min=high_min, low_max=low_max)


def _build_eye_circuit(line: Optional[RlgcLine], length_um: float,
                       lumped: Optional[LumpedRLC],
                       coupled: Optional[CoupledLine],
                       data_rate_gbps: float, num_bits: int,
                       aggressors: int, driver: IoDriverSpec, vdd: float,
                       samples_per_ui: int,
                       seed: int) -> Tuple[Circuit, List[int], float,
                                           float]:
    """Assemble the victim + aggressor eye circuit.

    Returns:
        (circuit, victim_bits, ui_s, dt_s).
    """
    if (line is None) == (lumped is None):
        raise ValueError("specify exactly one of line or lumped")
    ui = 1e-9 / data_rate_gbps
    rise = min(30e-12, ui / 8)
    steps_per_ui = max(2 * samples_per_ui, 100)
    dt = ui / steps_per_ui

    vic_bits = prbs_bits(order=7, length=num_bits, seed=0x5A)
    ckt = Circuit("eye")
    ckt.add_vsource("Vvic", "vsrc", "0",
                    bitstream(vic_bits, ui, 0.0, vdd, rise))
    ckt.add_resistor("Rvic", "vsrc", "vtx", driver.output_impedance_ohm)
    ckt.add_capacitor("Cvtx", "vtx", "0", driver.pad_cap_ff * 1e-15)

    if line is not None:
        if coupled is not None and aggressors > 0:
            names_in = []
            names_out = []
            order = []
            half = aggressors // 2
            for a in range(aggressors):
                order.append(f"a{a}")
            conductors = order[:half] + ["vic"] + order[half:]
            for c in conductors:
                names_in.append("vtx" if c == "vic" else f"{c}_tx")
                names_out.append("vrx" if c == "vic" else f"{c}_rx")
            for a in range(aggressors):
                abits = prbs_bits(order=7, length=num_bits + 8,
                                  seed=seed + 13 * a + 1)
                ui_a = ui * (1.0 + 0.041 * (1 if a % 2 == 0 else -1))
                ckt.add_vsource(f"Vagg{a}", f"a{a}_src", "0",
                                _offset_wave(bitstream(abits, ui_a, 0.0,
                                                       vdd, rise),
                                             ui / 2.0))
                ckt.add_resistor(f"Ragg{a}", f"a{a}_src", f"a{a}_tx",
                                 driver.output_impedance_ohm)
                ckt.add_capacitor(f"Carx{a}", f"a{a}_rx", "0",
                                  driver.rx_input_cap_ff * 1e-15)
            add_coupled_bundle(ckt, "bund", names_in, names_out, coupled,
                               length_um)
        else:
            add_tline_ladder(ckt, "line", "vtx", "vrx", line, length_um)
    else:
        rlc = lumped
        add_lumped_pi(ckt, "v", "vtx", "vrx", rlc)
        if coupled is not None and aggressors > 0:
            # Adjacent via/bump capacitive coupling from one aggressor.
            for a in range(aggressors):
                abits = prbs_bits(order=7, length=num_bits + 8,
                                  seed=seed + 13 * a + 1)
                ui_a = ui * (1.0 + 0.041 * (1 if a % 2 == 0 else -1))
                ckt.add_vsource(f"Vagg{a}", f"a{a}_src", "0",
                                _offset_wave(bitstream(abits, ui_a, 0.0,
                                                       vdd, rise),
                                             ui / 2.0))
                ckt.add_resistor(f"Ragg{a}", f"a{a}_src", f"a{a}_tx",
                                 driver.output_impedance_ohm)
                ckt.add_capacitor(f"Cx{a}", f"a{a}_tx", "vrx",
                                  rlc.capacitance_f * 0.25)

    ckt.add_capacitor("Cvrxpad", "vrx", "0", driver.pad_cap_ff * 1e-15)
    ckt.add_capacitor("Cvrxin", "vrx", "0",
                      driver.rx_input_cap_ff * 1e-15)
    return ckt, vic_bits, ui, dt


def simulate_eye(line: Optional[RlgcLine] = None,
                 length_um: float = 0.0,
                 lumped: Optional[LumpedRLC] = None,
                 coupled: Optional[CoupledLine] = None,
                 data_rate_gbps: float = 0.7,
                 num_bits: int = 96,
                 aggressors: int = 2,
                 driver: IoDriverSpec = AIB_DRIVER,
                 vdd: float = 0.9,
                 samples_per_ui: int = 64,
                 seed: int = 11) -> EyeResult:
    """Run a PRBS eye simulation on a channel.

    Exactly one of ``line`` (+ ``length_um``) or ``lumped`` selects the
    interconnect.  When ``coupled`` is given with a distributed line, the
    victim runs inside a coupled bundle with ``aggressors`` neighbours
    carrying independent PRBS streams; lumped channels couple a fraction
    of each aggressor's swing capacitively (adjacent via/bump coupling).
    The waveform is synthesized from the circuit's pulse-response bank;
    a circuit the bank cannot carry is stepped in full instead.

    Args:
        line: Distributed line parameters.
        length_um: Line length.
        lumped: Lumped vertical interconnect.
        coupled: Coupling description (enables crosstalk).
        data_rate_gbps: Bit rate (paper: 0.7 Gbps).
        num_bits: PRBS length simulated.
        aggressors: Neighbour count (paper: 2).
        driver: Driver characterization.
        vdd: Swing.
        samples_per_ui: Eye phase resolution.
        seed: Aggressor PRBS seed base.

    Returns:
        An :class:`EyeResult`.
    """
    ckt, vic_bits, ui, dt = _build_eye_circuit(
        line, length_um, lumped, coupled, data_rate_gbps, num_bits,
        aggressors, driver, vdd, samples_per_ui, seed)
    t_stop = num_bits * ui
    steps = int(round(t_stop / dt)) + 1

    bank = pulse_response_bank(ckt, dt, steps, record=("vrx",))
    if bank is not None:
        stamps = CircuitStamps.of(ckt)
        time = np.arange(steps) * dt
        samples = stamps.sample_waveforms(
            stamps.vsrc_waves + stamps.isrc_waves, time)
        wave = bank.synthesize(samples)["vrx"]
    else:
        result = simulate(ckt, t_stop=t_stop, dt=dt,
                          record=["vtx", "vrx"])
        time, wave = result.time, result.voltage("vrx")

    latency = _estimate_latency(time, wave, vic_bits, ui, vdd)
    usable = num_bits - int(math.ceil(latency / ui)) - 1
    high_min, low_max = fold_eye(time, wave, vic_bits[:usable], ui,
                                 latency, samples_per_ui)
    return eye_metrics(high_min, low_max, ui, vdd)


def _offset_wave(wave, offset_s: float):
    """Shift a waveform later in time — the paper's worst-case crosstalk
    alignment puts aggressor edges at the victim's sampling instant."""

    def shifted(t: float) -> float:
        return wave(t - offset_s)

    if hasattr(wave, "sample"):
        shifted.sample = lambda ts: wave.sample(ts - offset_s)
    return shifted


def _estimate_latency(time: np.ndarray, wave: np.ndarray,
                      bits: Sequence[int], ui: float, vdd: float) -> float:
    """Channel latency via best alignment of the ideal NRZ waveform.

    Returns 0.0 when the waveform is too short to align (fewer than two
    samples) — the degenerate inputs the folding guards reject anyway.
    """
    if len(time) < 2 or len(wave) < 2 or len(bits) == 0:
        return 0.0
    dt = time[1] - time[0]
    steps_per_ui = int(round(ui / dt))
    ideal = np.repeat(np.asarray(bits, dtype=float) * vdd, steps_per_ui)
    n = min(len(ideal), len(wave))
    best_shift, best_err = 0, math.inf
    max_shift = min(3 * steps_per_ui, n - 1)
    for shift in range(0, max_shift):
        err = float(np.mean((wave[shift:n] - ideal[:n - shift]) ** 2))
        if err < best_err:
            best_err = err
            best_shift = shift
    return best_shift * dt
