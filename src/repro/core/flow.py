"""The chiplet/interposer co-design flow (paper Fig. 4).

:func:`run_design` runs one design point as a single stage pipeline
over three things: the implemented parts, their placement on the
interposer, and the link bundles between them.  A topology step yields
them — the paper's logic/memory pair, two tiles placed by
:func:`~repro.interposer.placement.place_dies` with 231 logic-to-memory
nets per tile and 68 logic-to-logic nets between the tiles, or, for any
other ``(num_chiplets, arrangement)``, an N-way partition of the
monolithic netlist placed by
:func:`~repro.interposer.placement.place_chiplets` with one bundle per
cut die pair.  Interposer RDL routing, PDN construction, SI (worst-net
channels + eye diagrams), PI (impedance profile, IR drop, regulator
transient), thermal analysis, and the full-chip roll-up then run once,
the same way for both.

Every stage is deterministic, so a design point is keyed by its
:class:`~repro.core.request.EvalRequest` (``kind="flow"``), and the
one result cache is the :class:`~repro.core.store.ContentStore` under
the request's ``cache_token()`` (which embeds a hash of the package
source).  :func:`run_design` looks its request up there and stores
what it computed; :func:`run_designs` does the same for a batch through
:func:`~repro.core.store.cached_outcomes`, evaluating misses on the
worker pool.  :func:`run_flow_task` is the bare evaluation, which never
touches the store.

:func:`run_monolithic` implements the 2D-monolithic baseline column of
Table IV: both tiles on a single die, no SerDes/AIB, no interposer.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch.generate import generate_monolithic_netlist
from ..arch.topology import is_default_topology
from ..chiplet.design import (ChipletResult, build_chiplet,
                              build_chiplet_from_netlist)
from ..chiplet.floorplan import floorplan
from ..chiplet.place import place
from ..chiplet.power import analyze_power, power_density_map
from ..chiplet.route import global_route
from ..chiplet.timing import analyze_timing
from ..circuit.mna import reset_solver_counters, solver_counters
from ..cost.model import package_cost
from ..interposer.pdn import PdnStackup, build_pdn
from ..interposer.placement import (InterposerPlacement, place_chiplets,
                                    place_dies)
from ..interposer.routing import (InterposerRoute, PinLink,
                                  route_interposer_pins, tile_links)
from ..partition.multiway import nway_partition, pairwise_cut_links
from ..pi.impedance import PdnImpedanceReport, analyze_pdn_impedance
from ..pi.irdrop import IrDropReport, solve_plane_ir_drop
from ..pi.transient import PowerTransientReport, analyze_power_transient
from ..si.channel import Channel, ChannelReport, measure_channel
from ..si.crosstalk import coupled_line_for_spec
from ..si.eye import EyeResult, simulate_eye
from ..si.tline import line_for_spec
from ..tech.interconnect3d import (cascade, microbump_model,
                                   stacked_via_model, tsv_model)
from ..tech.interposer import IntegrationStyle, InterposerSpec
from ..thermal.model import PackageThermalReport, analyze_package_thermal
from .fullchip import FullChipSummary, full_chip_summary_nway
from .pool import imap_retry
from .request import EvalRequest, ServeResult
from .store import ContentStore, cached_outcomes


@dataclass
class DesignResult:
    """Everything the flow produced for one design point.

    Attributes mirror the paper's per-design artifacts; the per-table
    accessors format them the way the evaluation section reports them.
    """

    spec: InterposerSpec
    logic: ChipletResult
    memory: ChipletResult
    placement: InterposerPlacement
    route: Optional[InterposerRoute]
    pdn: Optional[PdnStackup]
    pdn_impedance: Optional[PdnImpedanceReport]
    ir_drop: Optional[IrDropReport]
    power_transient: Optional[PowerTransientReport]
    l2m_channel: ChannelReport
    l2l_channel: ChannelReport
    l2m_eye: Optional[EyeResult]
    l2l_eye: Optional[EyeResult]
    thermal: Optional[PackageThermalReport]
    fullchip: FullChipSummary
    #: Wall time per flow stage in seconds (perf harness input); not part
    #: of the design point itself, so it is excluded from comparisons.
    stage_times: Optional[Dict[str, float]] = None
    #: Circuit-solver counters for this run (``mna_factorizations``,
    #: ``mna_solves``, ``transient_factorizations``, ``transient_solves``,
    #: ``robust_fallbacks``); observability only, like ``stage_times``.
    solver_stats: Optional[Dict[str, int]] = None
    #: Per-stage solver-counter deltas (stage name → counter dict), the
    #: breakdown behind ``solver_stats``; observability only.
    stage_solver_stats: Optional[Dict[str, Dict[str, int]]] = None
    #: All implemented parts of an N-chiplet run (``None`` for the
    #: paper's topology, where ``logic``/``memory`` are the whole story;
    #: on N-chiplet runs those two fields alias representative parts
    #: out of this tuple).
    chiplets: Optional[Tuple[ChipletResult, ...]] = None
    #: The topology axes this point was run at (see
    #: :mod:`repro.arch.topology`).
    num_chiplets: int = 2
    arrangement: str = "grid"

    def table4_row(self) -> Dict[str, object]:
        """One column of Table IV (interposer design results)."""
        row: Dict[str, object] = {
            "design": self.spec.display_name,
            "footprint_mm": (round(self.placement.width_mm, 2),
                             round(self.placement.height_mm, 2)),
            "area_mm2": round(self.placement.area_mm2, 2),
            "power_mw": round(self.fullchip.total_power_mw, 2),
        }
        if self.route is not None and self.route.routed_nets():
            routed = self.route.routed_nets()
            lengths = [n.length_mm for n in routed]
            row.update({
                "signal_layers": self.route.signal_layers_used,
                "total_wl_mm": round(sum(lengths), 2),
                "min_wl_mm": round(min(lengths), 2),
                "avg_wl_mm": round(sum(lengths) / len(lengths), 2),
                "max_wl_mm": round(max(lengths), 2),
                "via_usage": self.route.total_vias(),
            })
        if self.pdn_impedance is not None:
            row["pdn_impedance_ohm"] = round(
                self.pdn_impedance.z_at_1ghz_ohm, 2)
        if self.power_transient is not None:
            row["settling_time_us"] = round(
                self.power_transient.settling_time_us, 2)
        if self.ir_drop is not None:
            row["ir_drop_mv"] = round(self.ir_drop.worst_drop_mv, 1)
        return row

    def table5_rows(self) -> Dict[str, Dict[str, float]]:
        """The design's two Table V rows (L2M and L2L links)."""
        out = {}
        for label, rep in (("logic_to_mem", self.l2m_channel),
                           ("logic_to_logic", self.l2l_channel)):
            out[label] = {
                "io_delay_ps": round(rep.driver_delay_ps, 2),
                "interconnect_delay_ps": round(
                    rep.interconnect_delay_ps, 2),
                "total_delay_ps": round(rep.total_delay_ps, 2),
                "io_power_uw": round(rep.driver_power_uw, 2),
                "interconnect_power_uw": round(
                    rep.interconnect_power_uw, 2),
                "total_power_uw": round(rep.total_power_uw, 2),
            }
        return out


def flow_metrics(result: DesignResult) -> Dict[str, Optional[float]]:
    """Flat metric record of one full flow result.

    The record covers the paper's evaluation axes — power, Fmax, link
    delay, PDN impedance, IR drop, peak temperature — plus the package
    cost model; metrics a partial run skipped are ``None``.
    """
    cost = package_cost(result.placement)
    metrics: Dict[str, Optional[float]] = {
        "area_mm2": float(result.placement.area_mm2),
        "power_mw": float(result.fullchip.total_power_mw),
        "fmax_mhz": float(result.logic.fmax_mhz),
        "system_fmax_mhz": float(result.fullchip.system_fmax_mhz),
        "l2m_delay_ps": float(result.l2m_channel.total_delay_ps),
        "l2l_delay_ps": float(result.l2l_channel.total_delay_ps),
        "l2m_power_uw": float(result.l2m_channel.total_power_uw),
        "cost_usd": float(cost.cost_per_good_system),
        "interposer_yield": float(cost.interposer_yield),
        "pdn_z_1ghz_ohm": (float(result.pdn_impedance.z_at_1ghz_ohm)
                           if result.pdn_impedance else None),
        "ir_drop_mv": (float(result.ir_drop.worst_drop_mv)
                       if result.ir_drop else None),
        "settling_time_us": (float(result.power_transient.settling_time_us)
                             if result.power_transient else None),
        "peak_temp_c": (float(result.thermal.peak_c)
                        if result.thermal else None),
        "l2m_eye_height_v": (float(result.l2m_eye.eye_height_v)
                             if result.l2m_eye else None),
    }
    return metrics


def _served(request: EvalRequest, result: DesignResult,
            wall_s: float = 0.0) -> ServeResult:
    """The outcome a computed flow result is stored as."""
    return ServeResult(request=request, result=result, wall_s=wall_s,
                       metrics=dict(flow_metrics(result),
                                    design=request.design))


def _channels_for(spec: InterposerSpec,
                  route: Optional[InterposerRoute]
                  ) -> Tuple[Channel, Channel]:
    """Worst-case mixed-kind (l2m) and same-kind (l2l) channels.

    Lengths come from the routed interposer (longest net per class).
    A class with no lateral nets borrows the other's worst length (the
    electrical worst case on the same interposer); l2m links that are
    all stacked microvias (glass 3D) use the vertical via model, and
    TSV stacks the 3D interconnect models.
    """
    if spec.style is IntegrationStyle.TSV_STACK:
        l2m = Channel(f"{spec.name}/l2m", lumped=microbump_model())
        l2l = Channel(f"{spec.name}/l2l",
                      lumped=cascade(tsv_model(), tsv_model()))
        return l2m, l2l
    assert route is not None
    line = line_for_spec(spec)
    kinds = {n.kind for n in route.nets}
    l2m_len, l2l_len = (
        route.longest_net(k).length_mm * 1000.0 if k in kinds else None
        for k in ("l2m", "l2l"))
    lateral_worst = max(l2m_len or 0.0, l2l_len or 0.0)

    l2l = Channel(f"{spec.name}/l2l", line=line,
                  length_um=max(l2l_len or lateral_worst, 10.0))
    if l2m_len is None and "stacked_via" in kinds:
        l2m = Channel(f"{spec.name}/l2m",
                      lumped=stacked_via_model(
                          via_size_um=spec.via_size_um,
                          dielectric_thickness_um=spec.dielectric_thickness_um,
                          num_layers=spec.metal_layers))
    else:
        l2m = Channel(f"{spec.name}/l2m", line=line,
                      length_um=max(l2m_len or lateral_worst, 10.0))
    return l2m, l2l


def _topology(spec: InterposerSpec, task: EvalRequest
              ) -> Tuple[Dict[str, ChipletResult], InterposerPlacement,
                         List[PinLink]]:
    """The parts, their placement and the link bundles of a task.

    The parts map each placed die's name to its implementation, in
    placement order.  The paper's topology implements one logic and one
    memory chiplet, places them as two tiles and links them with
    :func:`~repro.interposer.routing.tile_links`.  Any other
    ``(num_chiplets, arrangement)`` min-cut partitions the monolithic
    netlist N ways, implements each part, packs the dies per the
    arrangement, and bundles the cut nets of each die pair into one
    link.
    """
    if is_default_topology(task.num_chiplets, task.arrangement):
        logic = build_chiplet("logic", spec, scale=task.scale,
                              seed=task.seed,
                              target_frequency_mhz=task.target_frequency_mhz)
        memory = build_chiplet("memory", spec, scale=task.scale,
                               seed=task.seed,
                               target_frequency_mhz=task.target_frequency_mhz)
        placement = place_dies(spec, logic.bump_plan, memory.bump_plan)
        parts = {d.name: logic if d.kind == "logic" else memory
                 for d in placement.dies}
        return parts, placement, tile_links(placement)

    system = generate_monolithic_netlist(scale=task.scale, seed=task.seed)
    partition = nway_partition(system, task.num_chiplets, seed=task.seed)
    chiplets = [
        build_chiplet_from_netlist(
            system.subset(partition.part(i), name=f"chiplet{i}"), spec,
            target_frequency_mhz=task.target_frequency_mhz)
        for i in range(partition.k)]
    placement = place_chiplets(spec, [c.bump_plan for c in chiplets],
                               [c.kind for c in chiplets], task.arrangement)
    links = []
    for (i, j), count in sorted(pairwise_cut_links(
            system, partition.assignment).items()):
        kind = "l2m" if chiplets[i].kind != chiplets[j].kind else "l2l"
        links.append(PinLink(f"chiplet{i}", f"chiplet{j}", kind, count,
                             f"c{i}_{j}_{kind}"))
    parts = {d.name: chiplets[d.tile] for d in placement.dies}
    return parts, placement, links


def run_design(name: str, scale: float = 1.0, seed: int = 2023,
               target_frequency_mhz: float = 700.0,
               with_eyes: bool = True,
               with_thermal: bool = True,
               use_cache: bool = True,
               spec_overrides: Optional[Mapping[str, object]] = None,
               num_chiplets: int = 2,
               arrangement: str = "grid") -> DesignResult:
    """Run the complete co-design flow for one design point.

    Args:
        name: Design-point name (``"glass_3d"``, ``"silicon_25d"``...).
        scale: Netlist scale (1.0 = paper-size, tests use small values).
        seed: Determinism seed.
        target_frequency_mhz: Chiplet timing target.
        with_eyes: Run the PRBS eye simulations (the slowest SI step).
        with_thermal: Run the FD thermal solve.
        use_cache: Look the point up in the content store and store
            it when computed (see
            :func:`~repro.core.store.flow_cache_dir`).  A stored result
            carries no ``stage_times`` or solver counters; pass
            ``False`` to compute and keep them.
        spec_overrides: Optional ``InterposerSpec`` field perturbations
            (e.g. ``{"microbump_pitch_um": 50.0}``) applied on top of the
            registered spec — the hook the design-space explorer sweeps
            through.  Identity fields (name/style/routing) are protected.
        num_chiplets: How many chiplets to partition the system into
            (see :mod:`repro.arch.topology`).  The default ``2`` with
            the ``grid`` arrangement is the paper's logic/memory split;
            any other pair N-way-partitions the monolithic netlist.
        arrangement: Die packing of an N-way partition (``grid``,
            ``row``, ``hexagonal``, or ``stacked``).

    Returns:
        A fully populated :class:`DesignResult`; a store hit is an
        equal result loaded from the store, not the one computed.
    """
    task = EvalRequest(
        kind="flow", design=name, scale=scale, seed=seed,
        target_frequency_mhz=target_frequency_mhz, with_eyes=with_eyes,
        with_thermal=with_thermal,
        spec_overrides=tuple((spec_overrides or {}).items()),
        num_chiplets=num_chiplets, arrangement=arrangement)
    store = ContentStore()
    hit = store.get(task) if use_cache else None
    if hit is not None:
        return hit.result
    result = _run_stages(task)
    if use_cache:
        store.put(task, _served(task, result))
    return result


def _run_stages(task: EvalRequest) -> DesignResult:
    """The stage pipeline of one flow request (no store involved)."""
    stage_times: Dict[str, float] = {}
    stage_solver_stats: Dict[str, Dict[str, int]] = {}
    reset_solver_counters()

    @contextmanager
    def stage(label: str):
        t0 = time.perf_counter()
        before = solver_counters()
        yield
        stage_times[label] = time.perf_counter() - t0
        after = solver_counters()
        stage_solver_stats[label] = {k: after[k] - before.get(k, 0)
                                     for k in after}

    t_total = time.perf_counter()
    spec = task.spec()

    with stage("chiplets"):
        parts, placement, links = _topology(spec, task)
    powers = {die: c.power.total_mw * 1e-3 for die, c in parts.items()}

    route = pdn = pdn_imp = ir = transient = None
    if spec.style is not IntegrationStyle.TSV_STACK:
        with stage("routing"):
            pin_map = {die: c.bump_plan.signal_positions()
                       for die, c in parts.items()}
            route = route_interposer_pins(placement, pin_map, links)
        # Sub-keys ("stage/phase") break the routing stage down; they
        # are excluded from whole-stage accounting sums.
        stage_times["routing/pattern"] = route.stats.pattern_time_s
        stage_times["routing/rrr"] = route.stats.rrr_time_s
        stage_times["routing/maze"] = route.stats.maze_time_s
        with stage("pdn"):
            pdn = build_pdn(placement)
            pdn_imp = analyze_pdn_impedance(pdn)
            ir = solve_plane_ir_drop(placement, pdn, powers)
            transient = analyze_power_transient(pdn, sum(powers.values()))

    with stage("channels"):
        channels = _channels_for(spec, route)
        l2m_rep, l2l_rep = (
            measure_channel(ch, task.target_frequency_mhz * 1e6)
            for ch in channels)

    l2m_eye = l2l_eye = None
    if task.with_eyes:
        with stage("eyes"):
            coupled = coupled_line_for_spec(spec)
            l2m_eye, l2l_eye = (
                simulate_eye(line=ch.line, length_um=ch.length_um,
                             lumped=ch.lumped, coupled=coupled, num_bits=64)
                for ch in channels)

    thermal = None
    if task.with_thermal:
        with stage("thermal"):
            maps = {die: power_density_map(c.route, c.power)
                    for die, c in parts.items()}
            thermal = analyze_package_thermal(placement, powers, maps)

    tiles: Dict[int, List[ChipletResult]] = {}
    for die in placement.dies:
        tiles.setdefault(die.tile, []).append(parts[die.name])
    fullchip = full_chip_summary_nway(
        list(tiles.values()), l2m_rep, l2l_rep,
        sum(link.count for link in links if link.kind == "l2m"),
        sum(link.count for link in links if link.kind == "l2l"))

    # Representative parts keep the 2-chiplet accessors (tables, sweep
    # metrics) meaningful on N-chiplet results.
    chiplets = tuple(parts.values())
    logic = next((c for c in chiplets if c.kind == "logic"), chiplets[0])
    memory = next((c for c in chiplets if c.kind == "memory"),
                  chiplets[-1])
    stage_times["total"] = time.perf_counter() - t_total
    return DesignResult(
        spec=spec, logic=logic, memory=memory, placement=placement,
        route=route, pdn=pdn, pdn_impedance=pdn_imp, ir_drop=ir,
        power_transient=transient, l2m_channel=l2m_rep,
        l2l_channel=l2l_rep, l2m_eye=l2m_eye, l2l_eye=l2l_eye,
        thermal=thermal, fullchip=fullchip, stage_times=stage_times,
        solver_stats=solver_counters(),
        stage_solver_stats=stage_solver_stats,
        chiplets=(None if is_default_topology(task.num_chiplets,
                                              task.arrangement)
                  else chiplets),
        num_chiplets=task.num_chiplets, arrangement=task.arrangement)


# --------------------------------------------------------------------- #
# Single-point request API (structured error capture).
# --------------------------------------------------------------------- #


def run_flow_task(request: EvalRequest) -> ServeResult:
    """Evaluate one flow request directly; never raises.

    The bare evaluation that :func:`run_designs` and every fan-out run,
    in this process or on pool workers: it never reads or writes the
    store, so whoever calls it looks up and stores.  Any exception —
    unknown design, invalid override, a numerical failure deep in a
    flow stage — is captured as a structured failure instead of
    propagating, so a batch of requests always runs to completion.
    """
    t0 = time.perf_counter()
    try:
        if request.kind != "flow":
            raise ValueError(f"request kind {request.kind!r} is not a "
                             f"flow request")
        return _served(request, _run_stages(request),
                       time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 — the point is to capture
        return ServeResult.failure(request, exc, time.perf_counter() - t0)


class FlowBatchError(RuntimeError):
    """One or more requests of a multi-design batch failed.

    Raised only after every request has run, so the completed results
    (and the store entries they wrote) are never lost to one bad design
    point.

    Attributes:
        failures: design name → failed :class:`ServeResult`.
        results: design name → completed :class:`DesignResult`.
    """

    def __init__(self, failures: Dict[str, ServeResult],
                 results: Dict[str, DesignResult]):
        self.failures = failures
        self.results = results
        summary = "; ".join(
            f"{name}: {out.error_type}: {out.error_message}"
            for name, out in failures.items())
        super().__init__(
            f"{len(failures)} of {len(failures) + len(results)} design "
            f"task(s) failed ({summary})")


def run_designs(names: Sequence[str], scale: float = 1.0, seed: int = 2023,
                target_frequency_mhz: float = 700.0,
                with_eyes: bool = True, with_thermal: bool = True,
                jobs: int = 1,
                use_cache: bool = True,
                num_chiplets: int = 2,
                arrangement: str = "grid") -> Dict[str, DesignResult]:
    """Run several design points, optionally in parallel worker processes.

    Results are identical to calling :func:`run_design` per name; the
    fan-out only changes wall-clock time.  Design points the store holds
    are not recomputed; the others are evaluated directly, serially or
    on the worker pool, and this process stores what they computed
    (:func:`~repro.core.store.cached_outcomes`).

    A failure in one worker no longer aborts the batch: every task runs
    to completion and the failures are raised afterwards as one
    :class:`FlowBatchError` carrying both the errors and the completed
    results.

    Args:
        names: Design-point names (duplicates are deduplicated).
        scale: Netlist scale shared by all points.
        seed: Determinism seed shared by all points.
        target_frequency_mhz: Chiplet timing target.
        with_eyes: Run the PRBS eye simulations.
        with_thermal: Run the FD thermal solve.
        jobs: Worker processes for cache misses (1 = run serially in
            this process).
        use_cache: Look points up in the store and store misses.
        num_chiplets: Chiplet count shared by all points (see
            :func:`run_design`).
        arrangement: Die packing shared by all points.

    Returns:
        Mapping from design name to its :class:`DesignResult`.

    Raises:
        FlowBatchError: If any task failed (after all tasks finished).
    """
    requests = {n: EvalRequest(kind="flow", design=n, scale=scale, seed=seed,
                               target_frequency_mhz=target_frequency_mhz,
                               with_eyes=with_eyes, with_thermal=with_thermal,
                               num_chiplets=num_chiplets,
                               arrangement=arrangement)
                for n in names}
    results: Dict[str, DesignResult] = {}
    failures: Dict[str, ServeResult] = {}
    # The persistent pool outlives this call: later fan-outs (and every
    # point of a DSE sweep) reuse the same warm workers.  A worker death
    # mid-batch costs one bounded resubmit of the unfinished suffix, not
    # the whole batch (imap_retry).
    fan_out = cached_outcomes if use_cache else imap_retry
    outcomes = fan_out(run_flow_task, list(requests.values()), jobs)
    for n, out in zip(requests, outcomes):
        if out.ok:
            results[n] = out.result
        else:
            failures[n] = out
    if failures:
        raise FlowBatchError(failures, results)
    return results


@dataclass
class MonolithicResult:
    """The 2D-monolithic baseline (Table IV's first column).

    Attributes:
        footprint_mm: Die edge length.
        area_mm2: Die area.
        total_power_mw: Sign-off power at the target clock.
        fmax_mhz: Achieved frequency.
        cell_count: Netlist size.
        wirelength_m: Routed wirelength.
    """

    footprint_mm: float
    area_mm2: float
    total_power_mw: float
    fmax_mhz: float
    cell_count: int
    wirelength_m: float


def run_monolithic(scale: float = 1.0, seed: int = 2023,
                   target_frequency_mhz: float = 700.0,
                   max_utilization: float = 0.725) -> MonolithicResult:
    """Implement the single-die baseline (no chipletization).

    Die size comes from total cell area at the utilization the paper's
    1.6 x 1.6 mm monolithic floorplan implies.
    """
    netlist = generate_monolithic_netlist(scale=scale, seed=seed)
    core_margin_um = 20.0
    width_um = (math.sqrt(netlist.total_cell_area_um2() / max_utilization)
                + 2 * core_margin_um)
    width_um = max(width_um, 200.0)
    fp = floorplan(netlist, width_um, width_um,
                   core_margin_um=core_margin_um)
    placement = place(netlist, fp)
    route = global_route(placement)
    timing = analyze_timing(route, target_frequency_mhz)
    power = analyze_power(route, frequency_mhz=target_frequency_mhz)
    return MonolithicResult(
        footprint_mm=round(width_um / 1000.0, 2),
        area_mm2=round((width_um / 1000.0) ** 2, 2),
        total_power_mw=power.total_mw,
        fmax_mhz=timing.fmax_mhz,
        cell_count=len(netlist),
        wirelength_m=route.total_wirelength_m())
