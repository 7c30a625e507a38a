"""Linear circuit simulator: MNA with DC, AC, and transient analyses.

This package replaces the proprietary simulators in the paper's flow
(HSPICE for timing/power decks, HyperLynx for model extraction, ADS for
eye diagrams).  It is a general linear circuit engine: R/L/C with mutual
inductance, independent sources with SPICE-style waveforms, and VCVS.
"""

from .ac import AcSweepResult, driving_point_impedance, log_frequencies
from .elements import (Capacitor, Circuit, CurrentSource, Inductor,
                       MutualInductance, Resistor, VCVS, VoltageSource,
                       is_ground)
from .mna import Solution, solve_ac, solve_dc
from .transient import TransientResult, simulate
from .twoport import TwoPort, cascade, is_passive
from .waveforms import bitstream, dc, prbs_bits, pulse, step

__all__ = [
    "AcSweepResult", "Capacitor", "Circuit", "CurrentSource", "Inductor",
    "MutualInductance", "Resistor", "Solution",
    "TransientResult", "TwoPort",
    "VCVS", "VoltageSource", "bitstream", "cascade", "dc",
    "driving_point_impedance", "is_ground", "is_passive", "log_frequencies",
    "prbs_bits", "pulse", "simulate", "solve_ac", "solve_dc", "step",
]
