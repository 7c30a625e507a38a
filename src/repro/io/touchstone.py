"""Touchstone (.s2p) S-parameter file writer.

The paper's SI flow passes S-parameters between tools (HFSS → ADS,
HyperLynx → SPICE).  This module gives the reproduction the same
interchange surface: any two-port frequency response (from
:mod:`repro.circuit.twoport` models) can be written as an
industry-standard Touchstone v1 ``.s2p`` file.

Format emitted: ``# Hz S RI R <z0>`` (real/imaginary pairs), one
frequency per line in S11 S21 S12 S22 column order, as the standard
requires for 2-ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class SParameterData:
    """A sampled 2-port S-parameter response.

    Attributes:
        frequencies_hz: Sample frequencies (ascending).
        s: Complex S-matrices, shape (n, 2, 2).
        z0: Reference impedance in ohms.
    """

    frequencies_hz: np.ndarray
    s: np.ndarray
    z0: float = 50.0

    def __post_init__(self):
        self.frequencies_hz = np.asarray(self.frequencies_hz, dtype=float)
        self.s = np.asarray(self.s, dtype=complex)
        if self.s.shape != (len(self.frequencies_hz), 2, 2):
            raise ValueError(f"S data shape {self.s.shape} does not match "
                             f"{len(self.frequencies_hz)} frequencies")
        if (np.diff(self.frequencies_hz) <= 0).any():
            raise ValueError("frequencies must be strictly ascending")
        if self.z0 <= 0:
            raise ValueError("reference impedance must be positive")

    def insertion_loss_db(self) -> np.ndarray:
        """|S21| in dB per frequency."""
        return 20.0 * np.log10(np.maximum(np.abs(self.s[:, 1, 0]),
                                          1e-30))

    def return_loss_db(self) -> np.ndarray:
        """|S11| in dB per frequency."""
        return 20.0 * np.log10(np.maximum(np.abs(self.s[:, 0, 0]),
                                          1e-30))

    def is_passive(self, tolerance: float = 1e-6) -> bool:
        """Largest singular value of every sample ≤ 1."""
        for k in range(len(self.frequencies_hz)):
            if np.linalg.svd(self.s[k], compute_uv=False).max() > \
                    1.0 + tolerance:
                return False
        return True


def sample_two_port(build, frequencies_hz: Sequence[float],
                    z0: float = 50.0) -> SParameterData:
    """Sample a TwoPort-producing constructor over a frequency list.

    Args:
        build: Callable ``f_hz -> TwoPort`` (e.g. a lambda wrapping
            :meth:`repro.circuit.twoport.TwoPort.from_rlc_pi`).
        frequencies_hz: Sample points.
        z0: Reference impedance.
    """
    freqs = np.asarray(list(frequencies_hz), dtype=float)
    s = np.zeros((len(freqs), 2, 2), dtype=complex)
    for i, f in enumerate(freqs):
        s[i] = build(f).to_s(z0)
    return SParameterData(frequencies_hz=freqs, s=s, z0=z0)


def write_touchstone(data: SParameterData, path: str,
                     comment: Optional[str] = None) -> None:
    """Write a 2-port response as a Touchstone v1 .s2p file."""
    lines: List[str] = []
    if comment:
        for line in comment.splitlines():
            lines.append(f"! {line}")
    lines.append(f"# Hz S RI R {data.z0:g}")
    for k, f in enumerate(data.frequencies_hz):
        m = data.s[k]
        # Touchstone 2-port column order: S11 S21 S12 S22.
        vals = [m[0, 0], m[1, 0], m[0, 1], m[1, 1]]
        nums = " ".join(f"{v.real:.9e} {v.imag:.9e}" for v in vals)
        lines.append(f"{f:.6e} {nums}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
