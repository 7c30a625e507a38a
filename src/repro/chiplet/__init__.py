"""Chiplet physical design: bumps, floorplan, place, route, timing, power."""

from .bumps import Bump, BumpPlan, plan_bumps, plan_for_design
from .design import (ChipletResult, build_chiplet,
                     build_chiplet_from_netlist, infer_chiplet_kind)
from .floorplan import Floorplan, Rect, arrange_outlines, floorplan
from .iodriver import AIB_DRIVER, AIB_DRIVER_X64, IoDriverSpec
from .place import Placement, hex_spiral, place
from .power import PowerReport, analyze_power, power_density_map
from .route import GlobalRoute, RoutedNet, WIRE_CAP_FF_PER_UM, global_route
from .timing import TimingReport, analyze_timing

__all__ = [
    "AIB_DRIVER", "AIB_DRIVER_X64", "Bump", "BumpPlan", "ChipletResult",
    "Floorplan", "GlobalRoute", "IoDriverSpec", "Placement", "PowerReport",
    "Rect", "RoutedNet", "TimingReport", "WIRE_CAP_FF_PER_UM",
    "analyze_power", "analyze_timing", "arrange_outlines",
    "build_chiplet", "build_chiplet_from_netlist",
    "floorplan", "global_route", "hex_spiral",
    "infer_chiplet_kind", "place",
    "plan_bumps", "plan_for_design", "power_density_map",
]
