"""Design-space studies: sensitivity sweeps over interposer parameters."""

from .sensitivity import (SweepPoint, SweepResult, sweep_bump_pitch,
                          sweep_dielectric_thickness, sweep_wire_width)

__all__ = [
    "SweepPoint", "SweepResult", "sweep_bump_pitch",
    "sweep_dielectric_thickness", "sweep_wire_width",
]
