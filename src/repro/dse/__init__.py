"""Design-space exploration: declarative sweeps, a resumable runner, a
JSONL result store, and Pareto/sensitivity analysis.

The paper evaluates six fixed design points; this package turns the
same flow into a sweep engine::

    from repro.dse import Axis, SweepSpec, SweepRunner, pareto_front

    spec = SweepSpec(
        name="pitch-vs-dielectric",
        design="glass_25d", evaluator="flow", scale=0.05,
        axes=(Axis("microbump_pitch_um", values=(25.0, 35.0, 50.0)),
              Axis("dielectric_thickness_um", lo=5.0, hi=30.0, num=4)),
        objectives=(("area_mm2", "min"), ("l2m_delay_ps", "min")))
    records = SweepRunner(spec, jobs=4).run(resume=True)
    front = pareto_front(flat_records(records),
                         dict(spec.objectives))

or, from the command line::

    python -m repro sweep --space examples/spaces/glass_25d_pitch.yaml

Every point is an :class:`~repro.core.request.EvalRequest`
(:func:`request_for_point`), and :func:`evaluate_request` is the one
function that runs it — serially, in pool workers and on a
``repro.serve`` server alike.
"""

from .analyze import (axis_sensitivity, dominates, elasticity, failures,
                      flat_records, load_points, pareto_front,
                      sensitivity_summary, successes)
from ..core.flow import flow_metrics
from .evaluate import evaluate_request
from .fidelity import (FidelityRung, MultiFidelityResult,
                       MultiFidelityRunner, MultiFidelitySpec,
                       PromotionPolicy, load_space, promote)
from .report import generate_report, load_sweep_dir
from .runner import SweepRunner, default_sweep_dir, run_sweep
from .space import Axis, SweepSpec, request_for_point

__all__ = [
    "Axis", "FidelityRung", "MultiFidelityResult",
    "MultiFidelityRunner", "MultiFidelitySpec",
    "PromotionPolicy", "SweepRunner", "SweepSpec", "axis_sensitivity",
    "default_sweep_dir", "dominates", "elasticity", "evaluate_request",
    "failures", "flat_records", "flow_metrics", "generate_report",
    "load_points", "load_space", "load_sweep_dir", "pareto_front",
    "promote", "request_for_point", "run_sweep",
    "sensitivity_summary", "successes",
]
