"""AC analyses: frequency sweeps and driving-point impedance extraction.

The PDN impedance profile of Fig. 15 is a driving-point impedance sweep:
inject a 1 A AC current at the chiplet power bumps and record the voltage.
This module provides that sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .elements import Circuit
from .mna import AcBlockFactor, CircuitStamps, assemble_ac, _robust_solve


@dataclass
class AcSweepResult:
    """Frequency sweep of one complex quantity.

    Attributes:
        frequencies_hz: Sweep points.
        values: Complex response, same length.
    """

    frequencies_hz: np.ndarray
    values: np.ndarray

    def magnitude(self) -> np.ndarray:
        """|value| per sweep point."""
        return np.abs(self.values)

    def at(self, frequency_hz: float) -> complex:
        """Value at the sweep point nearest to ``frequency_hz``."""
        idx = int(np.argmin(np.abs(self.frequencies_hz - frequency_hz)))
        return complex(self.values[idx])

    def peak_magnitude(self) -> Tuple[float, float]:
        """(frequency, |value|) of the magnitude peak."""
        mags = self.magnitude()
        idx = int(np.argmax(mags))
        return float(self.frequencies_hz[idx]), float(mags[idx])


def log_frequencies(f_start: float, f_stop: float,
                    points_per_decade: int = 20) -> np.ndarray:
    """Logarithmically spaced sweep frequencies (inclusive of endpoints)."""
    if f_start <= 0 or f_stop <= f_start:
        raise ValueError("need 0 < f_start < f_stop")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be >= 1")
    decades = np.log10(f_stop / f_start)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n)


def driving_point_impedance(circuit: Circuit, node: str,
                            frequencies_hz: Sequence[float],
                            reference: str = "0") -> AcSweepResult:
    """Impedance seen looking into ``node`` (vs ``reference``) vs frequency.

    A 1 A phasor is injected into ``node`` and the resulting node voltage
    *is* the impedance.  Independent sources inside the circuit are
    zeroed (V sources shorted via their branch equations with 0 RHS,
    I sources opened) as linear AC analysis requires.

    Args:
        circuit: Circuit under test.
        node: Observation/injection node name.
        frequencies_hz: Frequencies to sweep.
        reference: Return node (default: ground).
    """
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    if (freqs <= 0).any():
        raise ValueError("AC frequencies must be positive")
    st = CircuitStamps.of(circuit).structure
    ni = st.node(node)
    if ni < 0:
        raise ValueError("cannot probe impedance at ground")
    nr = st.node(reference)
    Z = np.zeros((len(freqs), st.size), dtype=complex)
    Z[:, ni] += 1.0  # independent sources stay zeroed
    if nr >= 0:
        Z[:, nr] -= 1.0
    X = _solve_sweep(circuit, freqs, Z)
    values = X[:, ni] - (X[:, nr] if nr >= 0 else 0.0)
    return AcSweepResult(frequencies_hz=freqs, values=values)


def _solve_sweep(circuit: Circuit, freqs: np.ndarray,
                 Z: np.ndarray) -> np.ndarray:
    """Solve one RHS per sweep point: block-factored, per-point backup."""
    try:
        fac = AcBlockFactor(CircuitStamps.of(circuit), 2.0 * np.pi * freqs)
    except RuntimeError:  # SuperLU: the stacked system is singular
        pass
    else:
        return fac.solve(Z)
    # Per-point robust solves (counted and warned about by the MNA
    # layer).
    X = np.zeros_like(Z)
    for i, f in enumerate(freqs):
        _st, A, _z = assemble_ac(circuit, 2 * np.pi * f)
        X[i] = _robust_solve(A, Z[i])
    return X
