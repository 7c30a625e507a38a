"""Layer boundaries the traced run wraps, and the per-layer metric map.

:data:`FLOW_BOUNDARIES`, :data:`SERVE_BOUNDARIES` (server process) and
:data:`CLIENT_BOUNDARIES` (the ``serve_mix`` client) list, per span
name, the public ``repro`` functions and methods whose calls the span
covers.  :data:`LAYER_MAP` records, for every per-layer metric the
traced run reports, which end-to-end metric it should move, the
workloads it shows on and the workloads where it should stay flat.
Names, units and directions are those of ``BENCHMARK.json`` (the harness
self-test checks that both list the same names).

``dse`` is reached only as the ``serve_mix`` client (``SweepRunner``,
whose ``ServeClient`` calls are wrapped) and through the evaluators
``serve`` calls; ``tech``, ``io``, ``cost`` and ``studies`` are on no
timed path.  None of these is wrapped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _observe_partition(result, args, kwargs) -> Dict[str, float]:
    """Cut and balance of an ``nway_partition`` result."""
    netlist = args[0] if args else kwargs["netlist"]
    areas = result.part_areas(netlist)
    mean = sum(areas) / len(areas)
    return {"cut_nets": result.cut_size,
            "imbalance": max(areas) / mean if mean > 0 else 0.0}


def _observe_store_get(result, args, kwargs) -> Dict[str, object]:
    """Request kind of a ``ContentStore.get`` call."""
    request = args[1] if len(args) > 1 else kwargs["request"]
    return {"kind": request.kind, "hit": result is not None}


def _observe_store_put(result, args, kwargs) -> Dict[str, int]:
    """Bytes a ``ContentStore.put`` call wrote."""
    return {"bytes": len(result) if result is not None else 0}


#: ``RouterStats`` field of each ``interposer.*`` counter.
ROUTER_FIELDS = {"pattern_s": "pattern_time_s", "rrr_s": "rrr_time_s",
                 "maze_s": "maze_time_s", "maze_calls": "maze_calls",
                 "maze_nodes": "maze_nodes",
                 "maze_fallbacks": "maze_fallbacks",
                 "nets_rerouted": "nets_rerouted",
                 "rrr_rounds": "rrr_rounds", "fields_built": "fields_built",
                 "fields_patched": "fields_patched",
                 "overflow_cells": "overflow_cells"}


def router_counters(results) -> Dict[str, float]:
    """Sum of ``RouterStats`` over ``DesignResult``\\ s, as
    ``interposer.*`` counters."""
    out = {f"interposer.{k}": 0 for k in ROUTER_FIELDS}
    for r in results:
        stats = r.route.stats if r.route is not None else None
        if stats is None:
            continue
        for key, attr in ROUTER_FIELDS.items():
            out[f"interposer.{key}"] += getattr(stats, attr)
    return out


class _ExecuteWork:
    """Solver and router work of one ``execute_request`` call in a pool
    worker.

    ``solver_counters()`` is read before and after the call.  A flow
    request resets the counters when its design point starts, so its
    work is the reading after the call; any other request's work is the
    difference.  A flow result's ``RouterStats`` give its router
    counters.
    """

    def before(self) -> Dict[str, int]:
        from repro.circuit.mna import solver_counters
        return solver_counters()

    def __call__(self, result, args, kwargs, before) -> Dict[str, object]:
        from repro.circuit.mna import solver_counters
        after = solver_counters()
        counters = {f"circuit.{k}": v if result.request.kind == "flow"
                    else v - before.get(k, 0) for k, v in after.items()}
        if result.result is not None:
            counters.update(router_counters([result.result]))
        return {"kind": result.request.kind, "counters": counters}


def _observe_submit(result, args, kwargs) -> Dict[str, bool]:
    """Whether the store answered a ``ServeClient.submit``."""
    return {"cached": bool(result.cached)}


def _observe_result(result, args, kwargs) -> Dict[str, object]:
    """Kind, provenance and evaluation time (from the job view) of a
    ``ServeClient.result`` reply."""
    return {"kind": result.request.kind, "cached": bool(result.cached),
            "eval_s": float(result.wall_s)}


_Boundary = Tuple[str, str, Optional[object]]

#: Span name, wrapped target (``module:qualname``), optional observer.
FLOW_BOUNDARIES: List[_Boundary] = [
    ("arch.generate", "repro.arch.generate:generate_chiplet_netlist", None),
    ("arch.generate", "repro.arch.generate:generate_monolithic_netlist",
     None),
    ("arch.clone", "repro.arch.netlist:Netlist.clone", None),
    ("arch.subset", "repro.arch.netlist:Netlist.subset", None),
    ("partition.nway", "repro.partition.multiway:nway_partition",
     _observe_partition),
    ("partition.fm", "repro.partition.fm:fm_bipartition", None),
    ("partition.cut_links", "repro.partition.multiway:pairwise_cut_links",
     None),
    ("partition.serdes", "repro.partition.serdes:serialize_buses", None),
    ("partition.serdes", "repro.partition.serdes:insert_serdes_cells", None),
    ("chiplet.build", "repro.chiplet.design:build_chiplet", None),
    ("chiplet.build", "repro.chiplet.design:build_chiplet_from_netlist",
     None),
    ("chiplet.bumps", "repro.chiplet.bumps:plan_for_design", None),
    ("chiplet.bumps", "repro.chiplet.bumps:plan_bumps", None),
    ("chiplet.floorplan", "repro.chiplet.floorplan:floorplan", None),
    ("chiplet.place", "repro.chiplet.place:place", None),
    ("chiplet.route", "repro.chiplet.route:global_route", None),
    ("chiplet.timing", "repro.chiplet.timing:analyze_timing", None),
    ("chiplet.power", "repro.chiplet.power:analyze_power", None),
    ("chiplet.power_map", "repro.chiplet.power:power_density_map", None),
    ("interposer.route", "repro.interposer.routing:route_interposer", None),
    ("interposer.route", "repro.interposer.routing:route_interposer_pins",
     None),
    ("interposer.maze_scalar",
     "repro.interposer.routing:RoutingGrid.maze_route_scalar", None),
    ("interposer.place", "repro.interposer.placement:place_dies", None),
    ("interposer.place", "repro.interposer.placement:place_chiplets", None),
    ("interposer.pdn", "repro.interposer.pdn:build_pdn", None),
    ("pi.impedance", "repro.pi.impedance:analyze_pdn_impedance", None),
    ("pi.irdrop", "repro.pi.irdrop:solve_plane_ir_drop", None),
    ("pi.transient", "repro.pi.transient:analyze_power_transient", None),
    ("si.channel", "repro.si.channel:measure_channel", None),
    ("si.eye", "repro.si.eye:simulate_eye", None),
    ("thermal.package", "repro.thermal.model:analyze_package_thermal", None),
    ("core.run_design", "repro.core.flow:run_design", None),
    ("core.fullchip", "repro.core.fullchip:full_chip_summary", None),
    ("core.fullchip", "repro.core.fullchip:full_chip_summary_nway", None),
]

#: Server-process boundaries of ``serve_mix``: the store, the canonical
#: pickler and the evaluation each pool worker runs (the flow
#: boundaries are installed too, so a miss's pi/si work shows).
SERVE_BOUNDARIES: List[_Boundary] = FLOW_BOUNDARIES + [
    ("store.get", "repro.serve.store:ContentStore.get", _observe_store_get),
    ("store.put", "repro.serve.store:ContentStore.put", _observe_store_put),
    ("serve.canonical_dumps", "repro.serve.protocol:canonical_dumps", None),
    ("serve.execute", "repro.serve.protocol:execute_request",
     _ExecuteWork()),
]

#: Client-process boundaries of ``serve_mix``: the ``ServeClient``
#: calls the sweep runner makes.
CLIENT_BOUNDARIES: List[_Boundary] = [
    ("serve.submit", "repro.serve.client:ServeClient.submit",
     _observe_submit),
    ("serve.job", "repro.serve.client:ServeClient.job", None),
    ("serve.result", "repro.serve.client:ServeClient.result",
     _observe_result),
]

PAPER = "paper_flow"
NCHIP = "nchiplet_flow"
SERVE = "serve_mix"
FLOWS = f"{PAPER}, {NCHIP}"
NONE = "none"

#: (names, moves, shows on, flat on) per metric group.  ``serve_mix``
#: runs six cold scale-0.02 glass_3d flow points (no eyes, no thermal)
#: besides its link_pdn points, so the 2-chiplet flow layers show on it.
_GROUPS = [
    (["arch.generate.calls", "arch.generate.busy_s", "arch.generate.self_s",
      "arch.clone.calls", "arch.clone.self_s"], "ref_cpu_s, peak_rss_mb",
     f"{PAPER}, {SERVE}", NONE),
    (["arch.subset.calls", "arch.subset.self_s"], "ref_cpu_s", NCHIP,
     f"{PAPER}, {SERVE}"),
    (["partition.nway.busy_s", "partition.nway.self_s",
      "partition.cut_links.self_s", "partition.fm.calls",
      "partition.fm.self_s"], "ref_cpu_s", NCHIP, f"{PAPER}, {SERVE}"),
    (["cut_nets", "part_imbalance"], "ref_cpu_s, peak_rss_mb", NCHIP,
     f"{PAPER}, {SERVE}"),
    (["partition.serdes.self_s"], "ref_cpu_s", f"{FLOWS}, {SERVE}", NONE),
    (["chiplet.build.calls", "chiplet.build.busy_s", "chiplet.build.self_s",
      "chiplet.bumps.self_s", "chiplet.floorplan.self_s",
      "chiplet.place.self_s", "chiplet.route.self_s",
      "chiplet.timing.self_s", "chiplet.power.self_s"], "ref_cpu_s",
     f"{PAPER}, {SERVE}", NCHIP),
    (["chiplet.power_map.self_s", "thermal.package.calls",
      "thermal.package.self_s", "si.eye.calls", "si.eye.self_s"], "ref_cpu_s",
     PAPER, SERVE),
    (["interposer.route.calls", "interposer.maze_calls",
      "interposer.maze_nodes", "interposer.maze_fallbacks",
      "interposer.nets_rerouted", "interposer.rrr_rounds",
      "interposer.fields_built", "interposer.overflow_cells",
      "interposer.fields_patched", "interposer.route.busy_s",
      "interposer.route.self_s", "interposer.pattern_s",
      "interposer.rrr_s", "interposer.maze_s"], "ref_cpu_s",
     f"{FLOWS}, {SERVE}", NONE),
    (["interposer.maze_scalar.calls", "interposer.maze_scalar.self_s",
      "interposer.maze_scalar_share"], "ref_cpu_s", PAPER,
     f"{NCHIP}, {SERVE}"),
    (["interposer.place.self_s", "interposer.pdn.self_s",
      "pi.impedance.self_s", "pi.irdrop.self_s", "pi.transient.self_s",
      "pi.impedance.calls", "pi.irdrop.calls", "pi.transient.calls",
      "si.channel.calls", "si.channel.self_s",
      "circuit.mna_factorizations", "circuit.mna_solves",
      "circuit.transient_factorizations", "circuit.transient_solves",
      "circuit.robust_fallbacks"], "ref_cpu_s, miss_latency_p50_ms",
     f"{SERVE}, {PAPER}", NCHIP),
    (["core.run_design.calls", "core.run_design.busy_s",
      "core.run_design.self_s", "core.fullchip.self_s"], "ref_cpu_s",
     f"{FLOWS}, {SERVE}", NONE),
    (["miss_latency_p50_ms"],
     "none (wall-clock wait for a point that missed every cache: "
     "serve_mix cold pass; flows: per design point)", f"{SERVE}, {FLOWS}",
     NONE),
    (["latency_p50_ms", "latency_p95_ms"],
     "none (wall-clock wait per point: serve_mix warm pass; flows: per "
     "design point)", f"{SERVE}, {FLOWS}", NONE),
    (["paper_err_pct"], "none (fidelity; deterministic)", PAPER,
     f"{NCHIP}, {SERVE}"),
    (["serve.submit_hit_p50_ms", "serve.submit_miss_p50_ms",
      "serve.result_flow_hit_p50_ms", "serve.http_per_request",
      "serve.result_bytes_p50"], "ref_cpu_s, latency_p50_ms, latency_p95_ms",
     SERVE, FLOWS),
    (["serve.eval_link_pdn_p50_ms", "serve.overhead_p50_ms",
      "serve.cold_wall_s", "serve.cache_misses", "serve.evaluations_run"],
     "ref_cpu_s, miss_latency_p50_ms", SERVE, FLOWS),
    (["serve.warm_wall_s", "serve.cache_hits", "serve.dedupe_joins",
      "serve.hit_ratio"], "ref_cpu_s, latency_p50_ms, latency_p95_ms", SERVE,
     FLOWS),
    (["store.get.calls", "store.get.self_s", "store.get_flow_p50_ms",
      "store.get_small_p50_ms"], "ref_cpu_s, latency_p50_ms, latency_p95_ms",
     SERVE, FLOWS),
    (["store.put.calls", "store.put.self_s", "store.put_bytes",
      "serve.canonical_dumps.calls", "serve.canonical_dumps.self_s"],
     "ref_cpu_s, miss_latency_p50_ms", SERVE, FLOWS),
    (["serve.flow_reply_mismatch"],
     "none (defect count: sampled stored flow entries that differ from a "
     "direct evaluation in observability-only fields)", SERVE, NONE),
    (["failed_ratio"], "all (failed / attempted)", "all", NONE),
    (["trace.wall_s", "trace.cpu_s"],
     "none (traced run's own wall and CPU time)", "all", NONE),
    (["host.slowdown"],
     "none (the host's speed: every time divides by it)", "all", NONE),
    (["trace.overhead_pct"],
     "none (traced ref_cpu_s vs the untraced ref_cpu_s median)", "all",
     NONE),
]

#: name -> {"moves", "shows_on", "flat_on"}.
LAYER_MAP: Dict[str, Dict[str, str]] = {
    name: {"moves": moves, "shows_on": shows, "flat_on": flat}
    for names, moves, shows, flat in _GROUPS
    for name in names
}
