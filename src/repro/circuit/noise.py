"""Thermal (Johnson-Nyquist) noise analysis.

Every resistor contributes ``v_n^2 = 4 k T R`` per hertz; this module
computes the total output-referred noise spectral density and its
integrated RMS at any node of a linear circuit, one AC solve per
resistor per frequency (the circuits here are small, so the direct
method beats setting up an adjoint solve).

Feeds the statistical-eye analysis: the receiver's input-referred noise
floor becomes the ``noise_mv`` sigma instead of a guessed constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .elements import Circuit
from .mna import CircuitStamps, ac_block_factor, assemble_ac

#: Boltzmann constant (J/K).
K_BOLTZMANN = 1.380649e-23

#: numpy 2.x renamed trapz -> trapezoid; support both.
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


@dataclass
class NoiseReport:
    """Output noise at one observation node.

    Attributes:
        frequencies_hz: Analysis frequencies.
        density_v2_per_hz: Total output noise PSD per frequency.
        contributions: resistor name → PSD array (same shape).
        rms_v: Integrated RMS noise over the band (trapezoidal).
    """

    frequencies_hz: np.ndarray
    density_v2_per_hz: np.ndarray
    contributions: Dict[str, np.ndarray]
    rms_v: float

    def dominant_source(self) -> str:
        """Resistor contributing the most integrated noise power."""
        totals = {name: float(_trapezoid(psd, self.frequencies_hz))
                  for name, psd in self.contributions.items()}
        return max(totals, key=totals.get)

    @property
    def rms_mv(self) -> float:
        """Integrated RMS noise in millivolts."""
        return self.rms_v * 1e3


def output_noise(circuit: Circuit, node: str,
                 frequencies_hz: Sequence[float],
                 temperature_k: float = 300.0) -> NoiseReport:
    """Compute the thermal-noise PSD at ``node``.

    Each resistor is replaced (one at a time) by its Norton noise
    current source ``i_n^2 = 4 k T / R`` and the transfer to the output
    node is solved with the AC engine (independent sources zeroed).

    Args:
        circuit: Linear circuit under analysis.
        node: Output node name.
        frequencies_hz: Analysis frequencies (ascending for RMS).
        temperature_k: Device temperature.

    Raises:
        ValueError: If the circuit has no resistors or the node is
            ground.
    """
    if not circuit.resistors:
        raise ValueError("circuit has no resistors — no thermal noise")
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if (freqs <= 0).any():
        raise ValueError("frequencies must be positive")
    if temperature_k <= 0:
        raise ValueError("temperature must be positive")

    contributions: Dict[str, np.ndarray] = {
        r.name: np.zeros(len(freqs)) for r in circuit.resistors}

    st = CircuitStamps.of(circuit).structure
    out_idx = st.node(node)
    if out_idx < 0:
        raise ValueError("cannot observe noise at ground")
    # The Norton injection pattern of each resistor is frequency-
    # independent, so the whole analysis is one block factorization
    # over the sweep with one RHS column per resistor.
    n_res = len(circuit.resistors)
    rhs = np.zeros((st.size, n_res), dtype=complex)
    i2 = np.empty(n_res)
    for k, r in enumerate(circuit.resistors):
        i2[k] = 4.0 * K_BOLTZMANN * temperature_k / r.resistance
        n1, n2 = st.node(r.n1), st.node(r.n2)
        if n1 >= 0:
            rhs[n1, k] += 1.0
        if n2 >= 0:
            rhs[n2, k] -= 1.0
    fac = ac_block_factor(circuit, freqs)
    if fac is not None:
        Z = np.repeat(rhs[None, :, :], len(freqs), axis=0)
        X = fac.solve(Z)
        gain2 = np.abs(X[:, out_idx, :]) ** 2  # (freq, resistor)
        for k, r in enumerate(circuit.resistors):
            contributions[r.name][:] = i2[k] * gain2[:, k]
    else:  # singular sweep: per-frequency dense factorization
        import scipy.linalg
        from .mna import SOLVER_COUNTERS
        for fi, f in enumerate(freqs):
            _st, A, _z = assemble_ac(circuit, 2 * math.pi * f)
            lu = scipy.linalg.lu_factor(A)
            SOLVER_COUNTERS["mna_factorizations"] += 1
            x = scipy.linalg.lu_solve(lu, rhs)
            SOLVER_COUNTERS["mna_solves"] += n_res
            gain2 = np.abs(x[out_idx, :]) ** 2
            for k, r in enumerate(circuit.resistors):
                contributions[r.name][fi] = i2[k] * gain2[k]

    total = np.zeros(len(freqs))
    for psd in contributions.values():
        total += psd
    rms = math.sqrt(float(_trapezoid(total, freqs))) if len(freqs) > 1 \
        else 0.0
    return NoiseReport(frequencies_hz=freqs, density_v2_per_hz=total,
                       contributions=contributions, rms_v=rms)


def receiver_noise_mv(source_impedance_ohm: float = 47.4,
                      input_cap_ff: float = 25.0,
                      bandwidth_hz: float = 2e9,
                      temperature_k: float = 300.0) -> float:
    """RMS kTC-style noise of a terminated receiver input, in mV.

    A closed-form helper for the statistical eye: the RC-filtered
    Johnson noise of the source impedance integrates to ``kT/C`` when
    the bandwidth exceeds the RC corner — the floor a real RX sees.
    """
    if source_impedance_ohm <= 0 or input_cap_ff <= 0:
        raise ValueError("impedance and capacitance must be positive")
    c = input_cap_ff * 1e-15
    corner = 1.0 / (2 * math.pi * source_impedance_ohm * c)
    if bandwidth_hz >= corner:
        v2 = K_BOLTZMANN * temperature_k / c
    else:
        v2 = (4.0 * K_BOLTZMANN * temperature_k * source_impedance_ohm
              * bandwidth_hz)
    return math.sqrt(v2) * 1e3
