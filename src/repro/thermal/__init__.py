"""Thermal analysis: FD solver and package stackup models."""

from .grid import ThermalGrid, ThermalSolution
from .transient import (ThermalTransientResult,
                        simulate_thermal_transient)
from .electrothermal import (ElectrothermalResult, leakage_at,
                             solve_electrothermal)
from .warpage import WarpageReport, analyze_warpage, substrate_properties
from .model import (AMBIENT_C, ChipletThermal, PackageThermalReport,
                    analyze_package_thermal, build_package_grid,
                    build_stack_grid, substrate_conductivity)

__all__ = [
    "AMBIENT_C", "ChipletThermal", "PackageThermalReport", "ThermalGrid",
    "ThermalSolution", "ThermalTransientResult",
    "analyze_package_thermal", "build_package_grid", "build_stack_grid",
    "ElectrothermalResult", "WarpageReport", "analyze_warpage",
    "leakage_at", "solve_electrothermal",
    "simulate_thermal_transient", "substrate_conductivity",
    "substrate_properties",
]
