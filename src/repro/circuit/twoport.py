"""Two-port network parameters: ABCD to S conversion and cascading.

Plays the role of Keysight ADS + BBSpice in the paper's flow: vertical
interconnect models (TSV/TGV/micro-bump) become ABCD matrices, get
cascaded (e.g. back-to-back TSVs), and convert to S-parameters for
eye-diagram channel characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..tech.interconnect3d import LumpedRLC


@dataclass
class TwoPort:
    """A two-port described by its ABCD (chain) matrix at one frequency.

    Attributes:
        frequency_hz: Frequency of validity.
        abcd: 2x2 complex chain matrix [[A, B], [C, D]].
    """

    frequency_hz: float
    abcd: np.ndarray

    def __post_init__(self):
        self.abcd = np.asarray(self.abcd, dtype=complex)
        if self.abcd.shape != (2, 2):
            raise ValueError("ABCD matrix must be 2x2")

    # ------------------------------------------------------------------ #
    # Constructors.
    # ------------------------------------------------------------------ #

    @classmethod
    def series(cls, impedance: complex, frequency_hz: float) -> "TwoPort":
        """Series impedance element."""
        return cls(frequency_hz, np.array([[1, impedance], [0, 1]]))

    @classmethod
    def shunt(cls, admittance: complex, frequency_hz: float) -> "TwoPort":
        """Shunt admittance element."""
        return cls(frequency_hz, np.array([[1, 0], [admittance, 1]]))

    @classmethod
    def from_rlc_pi(cls, rlc: LumpedRLC, frequency_hz: float) -> "TwoPort":
        """Pi network: half the shunt C/G on each side of the series RL."""
        y_half = rlc.shunt_admittance(frequency_hz) / 2.0
        z_ser = rlc.series_impedance(frequency_hz)
        return (cls.shunt(y_half, frequency_hz)
                @ cls.series(z_ser, frequency_hz)
                @ cls.shunt(y_half, frequency_hz))

    # ------------------------------------------------------------------ #
    # Algebra.
    # ------------------------------------------------------------------ #

    def __matmul__(self, other: "TwoPort") -> "TwoPort":
        if abs(self.frequency_hz - other.frequency_hz) > 1e-6 * max(
                self.frequency_hz, other.frequency_hz, 1.0):
            raise ValueError("cannot cascade two-ports at different "
                             "frequencies")
        return TwoPort(self.frequency_hz, self.abcd @ other.abcd)

    # ------------------------------------------------------------------ #
    # Parameter conversions.
    # ------------------------------------------------------------------ #

    def to_s(self, z0: float = 50.0) -> np.ndarray:
        """Convert to S-parameters with reference impedance ``z0``."""
        a, b = self.abcd[0]
        c, d = self.abcd[1]
        denom = a + b / z0 + c * z0 + d
        s11 = (a + b / z0 - c * z0 - d) / denom
        s12 = 2 * (a * d - b * c) / denom
        s21 = 2 / denom
        s22 = (-a + b / z0 - c * z0 + d) / denom
        return np.array([[s11, s12], [s21, s22]])

    def insertion_loss_db(self, z0: float = 50.0) -> float:
        """|S21| in dB (negative = loss)."""
        s = self.to_s(z0)
        return 20.0 * math.log10(max(abs(s[1, 0]), 1e-30))


def cascade(ports: Sequence[TwoPort]) -> TwoPort:
    """Cascade a list of two-ports in order (port 2 of k into port 1 of k+1)."""
    if not ports:
        raise ValueError("cascade needs at least one two-port")
    out = ports[0]
    for p in ports[1:]:
        out = out @ p
    return out


def is_passive(s: np.ndarray, tolerance: float = 1e-9) -> bool:
    """Whether a 2x2 S-matrix is passive (largest singular value <= 1)."""
    s = np.asarray(s, dtype=complex)
    return bool(np.linalg.svd(s, compute_uv=False).max() <= 1.0 + tolerance)
