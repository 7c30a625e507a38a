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
"""

from .analyze import (axis_sensitivity, dominates, elasticity, failures,
                      flat_records, load_points, pareto_front,
                      sensitivity_summary, successes)
from ..core.flow import flow_metrics
from .evaluate import EVALUATORS, PointEvaluationError, evaluate_point
from .fidelity import (FidelityRung, MultiFidelityResult,
                       MultiFidelityRunner, MultiFidelitySpec,
                       PromotionPolicy, load_space, promote)
from .report import generate_report, load_sweep_dir
from .runner import SweepRunner, default_sweep_dir, run_sweep
from .space import Axis, SweepSpec

__all__ = [
    "Axis", "EVALUATORS", "FidelityRung", "MultiFidelityResult",
    "MultiFidelityRunner", "MultiFidelitySpec", "PointEvaluationError",
    "PromotionPolicy", "SweepRunner", "SweepSpec", "axis_sensitivity",
    "default_sweep_dir", "dominates", "elasticity", "evaluate_point",
    "failures", "flat_records", "flow_metrics", "generate_report",
    "load_points", "load_space", "load_sweep_dir", "pareto_front",
    "promote", "run_sweep",
    "sensitivity_summary", "successes",
]
