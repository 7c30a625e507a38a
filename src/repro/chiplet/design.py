"""End-to-end chiplet implementation: netlist → bumps → P&R → PPA.

This is the per-chiplet slice of the paper's co-design flow (Fig. 4):
synthesize (generate) the chiplet netlist, insert SerDes and account for
AIB I/O drivers, plan the bump grid for the target interposer technology,
floorplan/place/route, and run timing and power sign-off.  The result
object carries every row of Table III for that chiplet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..arch.generate import generate_chiplet_netlist
from ..arch.modules import INTER_TILE_BUSES, LOGIC_CHIPLET, MEMORY_CHIPLET
from ..arch.netlist import Netlist
from ..tech.interposer import InterposerSpec
from ..tech.stdcell import CellKind
from .bumps import BumpPlan, plan_bumps, plan_for_design
from .floorplan import Floorplan, floorplan
from .iodriver import AIB_DRIVER, IoDriverSpec
from .place import Placement, place
from .power import PowerReport, analyze_power
from .route import GlobalRoute, global_route
from .timing import TimingReport, analyze_timing
from ..partition.serdes import (SerDesConfig, insert_serdes_cells,
                                serialize_buses)


@dataclass
class ChipletResult:
    """Complete implementation result for one chiplet on one technology.

    Mirrors one column block of Table III plus the working objects the
    interposer/SI/PI/thermal stages consume.
    """

    kind: str
    spec: InterposerSpec
    netlist: Netlist
    bump_plan: BumpPlan
    floorplan: Floorplan
    placement: Placement
    route: GlobalRoute
    timing: TimingReport
    power: PowerReport
    aib_area_um2: float
    aib_power_mw: float

    @property
    def fmax_mhz(self) -> float:
        """Achieved maximum frequency in MHz."""
        return self.timing.fmax_mhz

    @property
    def footprint_mm(self) -> float:
        """Die edge length in millimetres."""
        return self.bump_plan.width_mm

    @property
    def cell_count(self) -> int:
        """Number of netlist instances."""
        return len(self.netlist)

    @property
    def cell_utilization(self) -> float:
        """Placed cell area over die area (the Table III definition)."""
        die_area = (self.bump_plan.width_mm * 1000.0) ** 2
        return self.netlist.total_cell_area_um2() / die_area

    @property
    def wirelength_m(self) -> float:
        """Total routed wirelength in metres."""
        return self.route.total_wirelength_m()

    def table3_row(self) -> Dict[str, float]:
        """The Table III metrics as a flat dict."""
        return {
            "fmax_mhz": round(self.fmax_mhz, 1),
            "footprint_mm": self.footprint_mm,
            "cell_count": self.cell_count,
            "cell_utilization_pct": round(100 * self.cell_utilization, 2),
            "wirelength_m": round(self.wirelength_m, 2),
            "total_power_mw": round(self.power.total_mw, 2),
            "internal_mw": round(self.power.internal_mw, 2),
            "switching_mw": round(self.power.switching_mw, 2),
            "leakage_mw": round(self.power.leakage_mw, 2),
            "pin_cap_pf": round(self.power.pin_cap_pf, 1),
            "wire_cap_pf": round(self.power.wire_cap_pf, 1),
            "aib_area_um2": round(self.aib_area_um2, 0),
            "aib_power_mw": round(self.aib_power_mw, 2),
        }


def build_chiplet(kind: str, spec: InterposerSpec, scale: float = 1.0,
                  seed: int = 2023, target_frequency_mhz: float = 700.0,
                  driver: IoDriverSpec = AIB_DRIVER,
                  serdes: SerDesConfig = SerDesConfig(),
                  library=None) -> ChipletResult:
    """Implement one chiplet on one interposer technology.

    Args:
        kind: ``"logic"`` or ``"memory"``.
        spec: Target interposer technology (sets the bump pitch and hence
            the footprint).
        scale: Netlist scale (1.0 = paper size; tests use small scales).
        seed: Netlist generation seed.
        target_frequency_mhz: Timing target (paper: 700 MHz).
        driver: I/O driver characterization.
        serdes: SerDes configuration for inter-tile buses.
        library: Cell library (e.g. a PVT corner from
            :func:`repro.tech.corners.derate_library`); default N28
            typical.

    Returns:
        A :class:`ChipletResult`.
    """
    if kind not in (LOGIC_CHIPLET, MEMORY_CHIPLET):
        raise ValueError(f"kind must be 'logic' or 'memory', got {kind!r}")
    netlist = generate_chiplet_netlist(kind, scale=scale, seed=seed,
                                       library=library)

    serialized = serialize_buses(INTER_TILE_BUSES, serdes)
    if kind == LOGIC_CHIPLET:
        # The serializer cells live on the logic chiplet (Section V-A).
        if scale >= 0.99:
            insert_serdes_cells(netlist, serialized, serdes)
        else:
            # Keep proportions at reduced scale: insert a thin slice.
            thin = SerDesConfig(ratio=serdes.ratio,
                                latency_cycles=serdes.latency_cycles,
                                flops_per_lane=max(
                                    1, int(serdes.flops_per_lane * scale)),
                                control_bypass=serdes.control_bypass)
            insert_serdes_cells(netlist, serialized, thin)

    signal_count = (sum(s.lanes for s in serialized) + 231
                    if kind == LOGIC_CHIPLET else 231)
    aib_area = driver.total_area_um2(signal_count)
    plan = plan_for_design(
        spec, kind, cell_area_um2=netlist.total_cell_area_um2() + aib_area)
    return _implement(kind, spec, netlist, plan, signal_count, aib_area,
                      target_frequency_mhz, driver)


def _implement(kind: str, spec: InterposerSpec, netlist: Netlist,
               plan: BumpPlan, signal_count: int, aib_area_um2: float,
               target_frequency_mhz: float,
               driver: IoDriverSpec) -> ChipletResult:
    """Floorplan, place, route and sign off a bump-planned chiplet."""
    width_um = plan.width_mm * 1000.0
    fp = floorplan(netlist, width_um, width_um)
    placement = place(netlist, fp)
    route = global_route(placement)
    timing = analyze_timing(route, target_frequency_mhz)
    # Power is signed off at the target clock, as in the paper (all
    # chiplets run the same 700 MHz system clock regardless of margin).
    power = analyze_power(route, frequency_mhz=target_frequency_mhz)

    # AIB power: every signal pin, at the link activity of the paper's
    # full-chip analysis (data toggles ~15% of cycles on average).
    aib_power_mw = signal_count * driver.driver_power_uw(
        power.frequency_mhz * 1e6, activity=0.15) * 1e-3

    return ChipletResult(kind=kind, spec=spec, netlist=netlist,
                         bump_plan=plan, floorplan=fp, placement=placement,
                         route=route, timing=timing, power=power,
                         aib_area_um2=aib_area_um2,
                         aib_power_mw=aib_power_mw)


def infer_chiplet_kind(netlist: Netlist) -> str:
    """Classify a partition as logic- or memory-dominated.

    A part whose cell area is at least half SRAM macros behaves like
    the paper's memory chiplet (dense, low-toggle) for bump planning
    and link classification; anything else is logic-like.
    """
    sram = 0.0
    total = 0.0
    for name in netlist.instances:
        cell = netlist.cell(name)
        total += cell.area_um2
        if cell.kind is CellKind.SRAM_MACRO:
            sram += cell.area_um2
    if total <= 0.0:
        return LOGIC_CHIPLET
    return MEMORY_CHIPLET if sram / total >= 0.5 else LOGIC_CHIPLET


def build_chiplet_from_netlist(netlist: Netlist, spec: InterposerSpec,
                               kind: Optional[str] = None,
                               target_frequency_mhz: float = 700.0,
                               driver: IoDriverSpec = AIB_DRIVER
                               ) -> ChipletResult:
    """Implement one pre-partitioned chiplet netlist on one technology.

    The N-chiplet generalization of :func:`build_chiplet`: instead of
    generating the paper's logic or memory netlist, it takes any part
    carved out of the monolithic system by
    :meth:`~repro.arch.netlist.Netlist.subset`, plans its bumps and
    runs the same floorplan → place → route → timing → power tail.
    The signal bump count is the part's port count — one escape per
    cut net — so the partitioner's cut quality shows up directly in
    die area and AIB power.

    Args:
        netlist: The chiplet's flat netlist (cut nets exposed as ports).
        spec: Target interposer technology.
        kind: ``"logic"`` / ``"memory"``; inferred from the SRAM area
            fraction (:func:`infer_chiplet_kind`) when omitted.
        target_frequency_mhz: Timing/power sign-off clock.
        driver: I/O driver characterization.

    Returns:
        A :class:`ChipletResult` for the part.
    """
    if kind is None:
        kind = infer_chiplet_kind(netlist)
    elif kind not in (LOGIC_CHIPLET, MEMORY_CHIPLET):
        raise ValueError(f"kind must be 'logic' or 'memory', got {kind!r}")
    signal_count = max(1, len(netlist.ports))
    aib_area = driver.total_area_um2(signal_count)
    plan = plan_bumps(
        signal_count, spec,
        min_cell_area_um2=netlist.total_cell_area_um2() + aib_area)
    return _implement(kind, spec, netlist, plan, signal_count, aib_area,
                      target_frequency_mhz, driver)
