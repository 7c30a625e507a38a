"""Point evaluators: turn one sweep point into a flat metric record.

Each evaluator maps ``(sweep, base_spec, params)`` to a ``{metric:
value}`` dict.  ``"flow"`` runs the full co-design flow through the
single-point request API (and therefore the flow's one result lookup:
memory, then the content store); the cheap stage-level evaluators
(``"geometry"``, ``"link"``, ``"link_pdn"``) re-run only the affected
models, the same shortcuts the sensitivity studies in ``repro.studies``
always took — those studies are now thin wrappers over these
evaluators.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

from ..arch.topology import is_default_topology, validate_topology
from ..chiplet.bumps import plan_for_design
from ..core.flow import run_flow_task
from ..core.request import EvalRequest
from ..interposer.pdn import build_pdn
from ..interposer.placement import place_chiplets, place_dies
from ..pi.impedance import analyze_pdn_impedance
from ..si.channel import Channel, measure_channel
from ..si.tline import line_for_spec
from ..tech.interposer import InterposerSpec, get_spec
from .space import FLOW_AXIS_PARAMS, SweepSpec

#: Paper-scale chiplet cell areas (um^2) used by the geometry/PDN
#: evaluators — the same anchors ``studies.sensitivity`` always used.
LOGIC_CELL_AREA_UM2 = 465_000
MEMORY_CELL_AREA_UM2 = 485_000


class PointEvaluationError(RuntimeError):
    """An evaluator failed; carries the structured cause for the runner.

    Attributes:
        error_type: Original exception class name.
        error_message: Original exception message.
        error_traceback: Formatted traceback of the original failure.
    """

    def __init__(self, error_type: str, error_message: str,
                 error_traceback: Optional[str] = None):
        self.error_type = error_type
        self.error_message = error_message
        self.error_traceback = error_traceback
        super().__init__(f"{error_type}: {error_message}")


def split_params(sweep: SweepSpec, params: Mapping[str, object]
                 ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split a point's params into (flow params, spec-field overrides).

    Tied axis fields are expanded here: an axis with ``tied`` fields
    contributes one override per tied field, all at the axis value.
    """
    tied = {a.name: a.tied for a in sweep.axes}
    flow: Dict[str, object] = {}
    overrides: Dict[str, object] = {}
    for key, value in params.items():
        if key in FLOW_AXIS_PARAMS:
            flow[key] = value
        else:
            overrides[key] = value
            for extra in tied.get(key, ()):
                overrides[extra] = value
    return flow, overrides


def point_spec(sweep: SweepSpec, params: Mapping[str, object],
               base_spec: Optional[InterposerSpec] = None
               ) -> InterposerSpec:
    """The concrete ``InterposerSpec`` a point evaluates against.

    Starts from ``base_spec`` (or the sweep's registered base design,
    or the point's ``design`` param), applies the point's spec-field
    overrides, and validates.
    """
    flow, overrides = split_params(sweep, params)
    if base_spec is None:
        base_spec = get_spec(str(flow.get("design", sweep.design)))
    if overrides:
        base_spec = dataclasses.replace(base_spec, **overrides)
        base_spec.validate()
    return base_spec


def request_for_point(sweep: SweepSpec, params: Mapping[str, object]
                      ) -> EvalRequest:
    """The request a sweep point evaluates: what the flow evaluator
    looks up, computes and stores, and what a remote sweep submits.

    Tied axis fields are expanded here, client-side, so the server never
    needs the sweep's axis definitions.
    """
    flow, overrides = split_params(sweep, params)
    return EvalRequest(
        kind=sweep.evaluator,
        design=get_spec(str(flow.get("design", sweep.design))).name,
        scale=float(flow.get("scale", sweep.scale)),
        seed=int(flow.get("seed", sweep.seed)),
        target_frequency_mhz=float(flow.get("target_frequency_mhz",
                                            sweep.target_frequency_mhz)),
        with_eyes=sweep.with_eyes,
        with_thermal=sweep.with_thermal,
        length_um=float(flow.get("length_um", sweep.length_um)),
        spec_overrides=tuple(sorted(overrides.items())),
        num_chiplets=int(flow.get("num_chiplets", 2)),
        arrangement=str(flow.get("arrangement", "grid")))


def _evaluate_flow(sweep: SweepSpec,
                   base_spec: Optional[InterposerSpec],
                   params: Mapping[str, object]) -> Dict[str, object]:
    if base_spec is not None:
        raise ValueError("the flow evaluator runs registered designs "
                         "(by name); it does not take a base_spec")
    out = run_flow_task(request_for_point(sweep, params))
    if not out.ok:
        raise PointEvaluationError(out.error_type, out.error_message,
                                   out.error_traceback)
    # _cached is runner bookkeeping (timings.jsonl), not a metric; the
    # runner pops it so it never reaches the deterministic point store.
    return dict(out.metrics, _cached=out.cached)


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


def _evaluate_geometry(sweep: SweepSpec,
                       base_spec: Optional[InterposerSpec],
                       params: Mapping[str, object]) -> Dict[str, object]:
    spec = point_spec(sweep, params, base_spec)
    flow, _ = split_params(sweep, params)
    num_chiplets, arrangement = validate_topology(
        flow.get("num_chiplets", 2), flow.get("arrangement", "grid"))
    metrics = _geometry(spec, num_chiplets, arrangement)
    metrics.pop("_placement")
    return metrics


def _link(sweep: SweepSpec, spec: InterposerSpec,
          params: Mapping[str, object]) -> Dict[str, object]:
    flow, _ = split_params(sweep, params)
    length_um = float(flow.get("length_um", sweep.length_um))
    line = line_for_spec(spec)
    rep = measure_channel(Channel(spec.name, line=line,
                                  length_um=length_um))
    return {
        "delay_ps": float(rep.interconnect_delay_ps),
        "power_uw": float(rep.interconnect_power_uw),
        "r_ohm_per_mm": float(line.r_per_m * 1e-3),
        "line_cap_ff_per_mm": float(line.c_per_m * 1e12),
    }


def _evaluate_link(sweep: SweepSpec,
                   base_spec: Optional[InterposerSpec],
                   params: Mapping[str, object]) -> Dict[str, object]:
    spec = point_spec(sweep, params, base_spec)
    return _link(sweep, spec, params)


def _evaluate_link_pdn(sweep: SweepSpec,
                       base_spec: Optional[InterposerSpec],
                       params: Mapping[str, object]) -> Dict[str, object]:
    spec = point_spec(sweep, params, base_spec)
    metrics = _link(sweep, spec, params)
    placement = _geometry(spec).pop("_placement")
    z = analyze_pdn_impedance(build_pdn(placement), points_per_decade=6)
    metrics["pdn_z_1ghz_ohm"] = float(z.z_at_1ghz_ohm)
    return metrics


#: Evaluator registry (names are what space files reference).
EVALUATORS = {
    "flow": _evaluate_flow,
    "geometry": _evaluate_geometry,
    "link": _evaluate_link,
    "link_pdn": _evaluate_link_pdn,
}


def evaluate_point(sweep: SweepSpec, params: Mapping[str, object],
                   base_spec: Optional[InterposerSpec] = None
                   ) -> Dict[str, object]:
    """Evaluate one point; returns its metric dict (may raise)."""
    return EVALUATORS[sweep.evaluator](sweep, base_spec, params)
