"""Interposer design-space sensitivity studies.

The journal extension of the paper points at exactly this direction —
"exploring the sensitivity of interposer dimensions and material
properties in 2.5D integrated circuits."  The original hand-rolled 1-D
sweeps now ride on the design-space exploration subsystem
(``repro.dse``): each entry point declares a one-axis
:class:`~repro.dse.space.SweepSpec`, evaluates it through the shared
runner/evaluators, and adapts the records back into the historical
:class:`SweepResult` shape.  For multi-axis spaces, persistence, resume,
parallelism, and Pareto analysis, use ``repro.dse`` (or the ``sweep``
CLI subcommand) directly.

All sweeps operate on :func:`dataclasses.replace` copies of the
immutable :class:`~repro.tech.interposer.InterposerSpec`, so the
registry's published design points are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..dse.runner import run_sweep
from ..dse.space import Axis, SweepSpec as DseSweepSpec
from ..tech.interposer import InterposerSpec


@dataclass
class SweepPoint:
    """One sample of a sensitivity sweep.

    Attributes:
        value: The swept parameter value.
        metrics: metric name → measured value.
    """

    value: float
    metrics: Dict[str, float]


@dataclass
class SweepResult:
    """A completed sweep.

    Attributes:
        parameter: The swept field name.
        baseline: The unmodified technology's name.
        points: Samples in sweep order.
    """

    parameter: str
    baseline: str
    points: List[SweepPoint]

    def series(self, metric: str) -> List[float]:
        """Values of one metric across the sweep."""
        return [p.metrics[metric] for p in self.points]

    def values(self) -> List[float]:
        """Swept parameter values in order."""
        return [p.value for p in self.points]

    def sensitivity(self, metric: str) -> float:
        """Normalized sensitivity d(metric)/d(param) x (param/metric)
        between the sweep endpoints (a dimensionless elasticity)."""
        v0, v1 = self.points[0].value, self.points[-1].value
        m0 = self.points[0].metrics[metric]
        m1 = self.points[-1].metrics[metric]
        if v1 == v0 or m0 == 0:
            return 0.0
        return ((m1 - m0) / m0) / ((v1 - v0) / v0)


def _run_one_axis(base: InterposerSpec, axis: Axis, evaluator: str,
                  metrics: Sequence[str],
                  length_um: float = 2000.0) -> SweepResult:
    """Evaluate a one-axis sweep around ``base`` on the DSE runner."""
    spec = DseSweepSpec(name=f"{base.name}-{axis.name}",
                        design=base.name, evaluator=evaluator,
                        sampler="grid", length_um=length_um,
                        axes=(axis,))
    records = run_sweep(spec, base_spec=base)
    points = []
    for record in records:
        if record["error"] is not None:
            err = record["error"]
            raise RuntimeError(
                f"sweep point {record['params']} failed: "
                f"{err['type']}: {err['message']}")
        points.append(SweepPoint(
            value=record["params"][axis.name],
            metrics={m: record["metrics"][m] for m in metrics}))
    return SweepResult(parameter=axis.name, baseline=base.name,
                       points=points)


def sweep_bump_pitch(base: InterposerSpec,
                     pitches_um: Sequence[float]) -> SweepResult:
    """Chiplet and interposer geometry vs micro-bump pitch.

    The pitch drives the entire area story of Table II: smaller pitch →
    smaller dies → smaller interposer (until the memory die becomes
    area-limited and stops shrinking).
    """
    axis = Axis("microbump_pitch_um",
                values=tuple(float(p) for p in pitches_um))
    return _run_one_axis(base, axis, "geometry",
                         ["logic_die_mm", "memory_die_mm",
                          "interposer_area_mm2"])


def sweep_wire_width(base: InterposerSpec,
                     widths_um: Sequence[float],
                     length_um: float = 2000.0) -> SweepResult:
    """Link delay/power vs wire width at fixed length (Table VI's axis).

    Spacing tracks width (min-pitch routing) via a tied axis field.
    """
    axis = Axis("min_wire_width_um",
                values=tuple(float(w) for w in widths_um),
                tied=("min_wire_space_um",))
    return _run_one_axis(base, axis, "link",
                         ["delay_ps", "power_uw", "r_ohm_per_mm"],
                         length_um=length_um)


def sweep_dielectric_thickness(base: InterposerSpec,
                               thicknesses_um: Sequence[float],
                               length_um: float = 2000.0) -> SweepResult:
    """SI and PI response to the build-up dielectric thickness.

    Thicker dielectric lowers line capacitance (less delay/power) but
    pushes the PDN planes further from the chiplet (worse impedance) —
    the trade the paper's glass 3D stackup sits on.
    """
    axis = Axis("dielectric_thickness_um",
                values=tuple(float(t) for t in thicknesses_um))
    return _run_one_axis(base, axis, "link_pdn",
                         ["line_cap_ff_per_mm", "delay_ps", "power_uw",
                          "pdn_z_1ghz_ohm"],
                         length_um=length_um)
