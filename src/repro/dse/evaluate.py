"""The one evaluation path: an :class:`~repro.core.request.EvalRequest`
in, a :class:`~repro.core.request.ServeResult` out.

:func:`evaluate_request` runs every request a local sweep evaluates
(serially or in pool workers) and every request the evaluation service
ships to its pool (:func:`repro.serve.protocol.execute_request`).  It
only evaluates: the sweep runner and the server look requests up in the
content store and store what it returns.  ``"flow"`` runs the full
co-design flow through :func:`~repro.core.flow.run_flow_task`; the
cheap stage-level evaluators (``"geometry"``, ``"link"``,
``"link_pdn"``) re-run only the affected models on
:meth:`EvalRequest.spec`, the same shortcuts the sensitivity studies in
``repro.studies`` always took — those studies are now thin wrappers
over these evaluators.
"""

from __future__ import annotations

import time
from typing import Dict

from ..arch.topology import is_default_topology
from ..chiplet.bumps import plan_for_design
from ..core.flow import run_flow_task
from ..core.request import EvalRequest, ServeResult
from ..interposer.pdn import build_pdn
from ..interposer.placement import place_chiplets, place_dies
from ..pi.impedance import analyze_pdn_impedance
from ..si.channel import Channel, measure_channel
from ..si.tline import line_for_spec
from ..tech.interposer import InterposerSpec

#: Paper-scale chiplet cell areas (um^2) used by the geometry/PDN
#: evaluators — the same anchors ``studies.sensitivity`` always used.
LOGIC_CELL_AREA_UM2 = 465_000
MEMORY_CELL_AREA_UM2 = 485_000


def _geometry(spec: InterposerSpec, num_chiplets: int = 2,
              arrangement: str = "grid") -> Dict[str, object]:
    if is_default_topology(num_chiplets, arrangement):
        lp = plan_for_design(spec, "logic",
                             cell_area_um2=LOGIC_CELL_AREA_UM2)
        mp = plan_for_design(spec, "memory",
                             cell_area_um2=MEMORY_CELL_AREA_UM2)
        placement = place_dies(spec, lp, mp)
        return {
            "logic_die_mm": float(lp.width_mm),
            "memory_die_mm": float(mp.width_mm),
            "interposer_area_mm2": float(placement.area_mm2),
            "_placement": placement,  # consumed by link_pdn, stripped below
        }
    # N-chiplet approximation: the paper-scale system area split into N
    # equal parts, kinds alternating logic/memory (a balanced partition's
    # shape without running one), packed per the requested arrangement.
    total = LOGIC_CELL_AREA_UM2 + MEMORY_CELL_AREA_UM2
    part_area = total / num_chiplets
    kinds = ["logic" if i % 2 == 0 else "memory"
             for i in range(num_chiplets)]
    plans = [plan_for_design(spec, k, cell_area_um2=part_area)
             for k in kinds]
    placement = place_chiplets(spec, plans, kinds, arrangement)
    logic_w = next(p.width_mm for p, k in zip(plans, kinds)
                   if k == "logic")
    mem_w = next((p.width_mm for p, k in zip(plans, kinds)
                  if k == "memory"), logic_w)
    return {
        "logic_die_mm": float(logic_w),
        "memory_die_mm": float(mem_w),
        "interposer_area_mm2": float(placement.area_mm2),
        "_placement": placement,
    }


def _evaluate_geometry(request: EvalRequest,
                       spec: InterposerSpec) -> Dict[str, object]:
    metrics = _geometry(spec, request.num_chiplets, request.arrangement)
    metrics.pop("_placement")
    return metrics


def _evaluate_link(request: EvalRequest,
                   spec: InterposerSpec) -> Dict[str, object]:
    line = line_for_spec(spec)
    rep = measure_channel(Channel(spec.name, line=line,
                                  length_um=request.length_um))
    return {
        "delay_ps": float(rep.interconnect_delay_ps),
        "power_uw": float(rep.interconnect_power_uw),
        "r_ohm_per_mm": float(line.r_per_m * 1e-3),
        "line_cap_ff_per_mm": float(line.c_per_m * 1e12),
    }


def _evaluate_link_pdn(request: EvalRequest,
                       spec: InterposerSpec) -> Dict[str, object]:
    metrics = _evaluate_link(request, spec)
    placement = _geometry(spec).pop("_placement")
    z = analyze_pdn_impedance(build_pdn(placement), points_per_decade=6)
    metrics["pdn_z_1ghz_ohm"] = float(z.z_at_1ghz_ohm)
    return metrics


#: Stage evaluators by request kind (the flow kind runs the flow).
_STAGE_EVALUATORS = {
    "geometry": _evaluate_geometry,
    "link": _evaluate_link,
    "link_pdn": _evaluate_link_pdn,
}


def evaluate_request(request: EvalRequest) -> ServeResult:
    """Evaluate one request; never raises and never touches a store.

    A flow request runs :func:`~repro.core.flow.run_flow_task`; a stage
    request runs its evaluator on :meth:`EvalRequest.spec`.  Any
    exception — an invalid request or override, an unknown design, a
    numerical failure — comes back as :meth:`ServeResult.failure`.
    """
    t0 = time.perf_counter()
    try:
        request.validate()
        if request.kind == "flow":
            return run_flow_task(request)
        metrics = _STAGE_EVALUATORS[request.kind](request, request.spec())
    except Exception as exc:  # noqa: BLE001 — structured capture
        return ServeResult.failure(request, exc, time.perf_counter() - t0)
    return ServeResult(request=request, metrics=metrics,
                       wall_s=time.perf_counter() - t0)
