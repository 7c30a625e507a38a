"""Render a completed sweep directory into a Markdown report + figures.

Given any result store written by :class:`~repro.dse.runner.SweepRunner`
or :class:`~repro.dse.fidelity.MultiFidelityRunner`, this module
produces a self-contained report directory:

* ``report.md`` — provenance, fidelity funnel (multi-fidelity runs),
  Pareto-front table, per-axis sensitivity, runtime breakdown, and
  failure list;
* ``fig_pareto.svg`` — objective scatter with the front highlighted and
  per-design markers when the sweep has a ``design`` axis;
* ``fig_sensitivity.svg`` — per-axis elasticity bars;
* ``fig_funnel.svg`` — points evaluated/promoted per fidelity rung
  (multi-fidelity runs only);
* ``fig_runtime.svg`` — wall-clock per rung from ``timings.jsonl``;
* ``report.json`` — the same summary machine-readable (tests and
  ``docs/ARTIFACTS.md`` tolerances key off it).

All SVG output is deterministic (see :mod:`repro.dse.figures`):
regenerating a report from the same sweep directory yields
hash-identical figures.

Usage::

    python -m repro report --sweep results/sweeps/paper-pareto \\
        [--out results/sweeps_report]

or programmatically::

    from repro.dse.report import generate_report
    out = generate_report("results/sweeps/paper-pareto")
    print(out.report_path)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .analyze import (flat_records, failures, load_points, pareto_front,
                      sensitivity_summary, successes)
from .fidelity import FIDELITY_MANIFEST
from .figures import Series, funnel_svg, hbar_svg, scatter_svg
from .space import SweepSpec


@dataclass
class SweepData:
    """Everything the report renderer needs from one sweep directory.

    Attributes:
        sweep_dir: The store directory the data was loaded from.
        spec: The (base) sweep spec recorded in the manifest.
        records: Point records of the final (deepest) rung.
        fidelity: Parsed ``fidelity.json`` for multi-fidelity stores,
            else ``None``.
        timings: ``(label, rows)`` per rung store, cheapest rung first
            (single-rung sweeps have one entry labelled by evaluator).
    """

    sweep_dir: Path
    spec: SweepSpec
    records: List[Dict[str, object]]
    fidelity: Optional[Dict[str, object]]
    timings: List[Tuple[str, List[Dict[str, object]]]]


@dataclass
class ReportResult:
    """Paths produced by :func:`generate_report`."""

    out_dir: Path
    report_path: Path
    summary_path: Path
    figures: List[Path] = field(default_factory=list)


def _read_timings(store_dir: Path) -> List[Dict[str, object]]:
    path = store_dir / "timings.jsonl"
    rows = []
    if path.exists():
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rows.append(json.loads(line))
    return rows


def load_sweep_dir(sweep_dir) -> SweepData:
    """Load a sweep result store — plain or multi-fidelity.

    A directory containing ``fidelity.json`` is treated as a ladder
    store: the final rung's records become the report's record set and
    every rung contributes a labelled timing series.  Otherwise the
    directory must hold a plain ``manifest.json`` + ``points.jsonl``
    store.

    Raises:
        FileNotFoundError: When the directory holds neither store kind.
    """
    sweep_dir = Path(sweep_dir)
    fidelity_path = sweep_dir / FIDELITY_MANIFEST
    if fidelity_path.exists():
        fidelity = json.loads(fidelity_path.read_text())
        spec = SweepSpec.from_dict(fidelity["spec"])
        timings: List[Tuple[str, List[Dict[str, object]]]] = []
        records: List[Dict[str, object]] = []
        for entry in fidelity["funnel"]:
            rung_dir = sweep_dir / entry["dir"]
            timings.append((f"rung{entry['rung']} ({entry['evaluator']})",
                            _read_timings(rung_dir)))
            points_path = rung_dir / "points.jsonl"
            records = (load_points(points_path)
                       if points_path.exists() else [])
        return SweepData(sweep_dir, spec, records, fidelity, timings)

    manifest_path = sweep_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{sweep_dir}: neither {FIDELITY_MANIFEST} nor "
            f"manifest.json found — not a sweep result store")
    manifest = json.loads(manifest_path.read_text())
    spec = SweepSpec.from_dict(manifest["spec"])
    records = load_points(sweep_dir / "points.jsonl")
    return SweepData(sweep_dir, spec, records, None,
                     [(spec.evaluator, _read_timings(sweep_dir))])


# --------------------------------------------------------------------- #
# Markdown helpers.
# --------------------------------------------------------------------- #


def _md_table(header: Sequence[str],
              rows: Sequence[Sequence[object]]) -> str:
    lines = ["| " + " | ".join(str(h) for h in header) + " |",
             "|" + "---|" * len(header)]
    for row in rows:
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if value is None:
        return "-"
    return str(value)


def _design_series(flat: Sequence[Mapping[str, object]],
                   xm: str, ym: str) -> List[Series]:
    """Group scatter points by design (stable sorted order) or one
    series when the sweep has no design axis."""
    has_design = any("design" in r for r in flat)
    if not has_design:
        return [Series("points", [(float(r[xm]), float(r[ym]))
                                  for r in flat
                                  if r.get(xm) is not None
                                  and r.get(ym) is not None])]
    by_design: Dict[str, List[Tuple[float, float]]] = {}
    for r in flat:
        if r.get(xm) is None or r.get(ym) is None:
            continue
        by_design.setdefault(str(r.get("design")), []).append(
            (float(r[xm]), float(r[ym])))
    return [Series(label, by_design[label])
            for label in sorted(by_design)]


# --------------------------------------------------------------------- #
# Report generation.
# --------------------------------------------------------------------- #


def generate_report(sweep_dir, out_dir=None) -> ReportResult:
    """Render one sweep directory into Markdown + figures.

    Args:
        sweep_dir: A completed (or partially completed) result store.
        out_dir: Report directory; defaults to ``<sweep_dir>/report``.

    Returns:
        A :class:`ReportResult` with every path written.
    """
    data = load_sweep_dir(sweep_dir)
    out = Path(out_dir) if out_dir is not None \
        else data.sweep_dir / "report"
    out.mkdir(parents=True, exist_ok=True)

    spec = data.spec
    flat = flat_records(data.records)
    failed = failures(data.records)
    objectives = dict(spec.objectives)
    figures: List[Path] = []

    def _emit(name: str, svg: str) -> str:
        path = out / name
        path.write_text(svg)
        figures.append(path)
        return name

    md: List[str] = []
    md.append(f"# Sweep report: {spec.name}")
    md.append("")
    md.append(f"Generated by `python -m repro report --sweep "
              f"{data.sweep_dir.name}` from the result store "
              f"`{data.sweep_dir.name}/` (spec hash "
              f"`{spec.spec_hash()}`). Regenerating from the same "
              f"store reproduces this report bit-for-bit (figures "
              f"included).")
    md.append("")

    # ----- provenance -------------------------------------------------
    md.append("## Sweep definition")
    md.append("")
    axis_rows = []
    for a in spec.axes:
        if a.values is not None:
            domain = ", ".join(_cell(v) for v in a.values)
        else:
            domain = (f"{_cell(a.lo)} .. {_cell(a.hi)}"
                      + (f" (log)" if a.log else "")
                      + (f", {a.num} pts" if a.num else ""))
        tied = ", ".join(a.tied) if a.tied else "-"
        axis_rows.append([a.name, domain, tied])
    md.append(_md_table(["axis", "domain", "tied fields"], axis_rows))
    md.append("")
    total = (data.fidelity["total_points"] if data.fidelity
             else len(data.records))
    md.append(f"- base design: `{spec.design}` | evaluator: "
              f"`{spec.evaluator}` | sampler: `{spec.sampler}` | "
              f"seed: {spec.seed} | netlist scale: {spec.scale:g}")
    md.append(f"- total points: {total} | final-rung records: "
              f"{len(data.records)} ({len(successes(data.records))} ok, "
              f"{len(failed)} failed)")
    md.append(f"- objectives: "
              + ", ".join(f"{m} ({s})" for m, s in spec.objectives))
    md.append("")

    # ----- fidelity funnel --------------------------------------------
    flow_evaluations = None
    if data.fidelity is not None:
        md.append("## Fidelity funnel")
        md.append("")
        funnel = data.fidelity["funnel"]
        rows = []
        stages = []
        for entry in funnel:
            rows.append([entry["rung"], entry["evaluator"],
                         entry["evaluated"], entry["failed"],
                         entry.get("promoted"), entry.get("pruned"),
                         entry.get("policy") or "final fidelity"])
            stages.append((f"rung{entry['rung']} {entry['evaluator']}",
                           entry["evaluated"],
                           entry["promoted"]
                           if entry.get("promoted") is not None else -1))
            if entry["evaluator"] == "flow":
                flow_evaluations = entry["evaluated"]
        md.append(_md_table(["rung", "evaluator", "evaluated", "failed",
                             "promoted", "pruned", "policy"], rows))
        md.append("")
        if flow_evaluations is not None and total:
            md.append(f"Full-`flow` signoff ran on **{flow_evaluations} "
                      f"of {total} points** "
                      f"({100.0 * flow_evaluations / total:.0f}%); the "
                      f"surrogate rungs pruned the rest (counts above — "
                      f"nothing is silently capped).")
            md.append("")
        name = _emit("fig_funnel.svg",
                     funnel_svg(stages, f"Fidelity funnel — {spec.name}"))
        md.append(f"![fidelity funnel]({name})")
        md.append("")

    # ----- Pareto front ----------------------------------------------
    front: List[Mapping[str, object]] = []
    if objectives and flat:
        front = pareto_front(flat, objectives)
        md.append("## Pareto front")
        md.append("")
        axis_names = [a.name for a in spec.axes]
        cols = ["id"] + axis_names + list(objectives)
        md.append(_md_table(cols, [[r.get(c) for c in cols]
                                   for r in front]))
        md.append("")
        md.append(f"{len(front)} of {len(flat)} successful points are "
                  f"non-dominated under "
                  + ", ".join(f"{m} ({s})" for m, s in objectives.items())
                  + ".")
        md.append("")
        obj_names = list(objectives)
        if len(obj_names) >= 2:
            xm, ym = obj_names[0], obj_names[1]
            series = _design_series(flat, xm, ym)
            front_pts = [(float(r[xm]), float(r[ym])) for r in front
                         if r.get(xm) is not None
                         and r.get(ym) is not None]
            name = _emit(
                "fig_pareto.svg",
                scatter_svg(series, xm, ym,
                            f"Pareto view — {xm} vs {ym}",
                            front=front_pts))
            extra = ""
            if len(obj_names) > 2:
                extra = (f" The front is computed in "
                         f"{len(obj_names)}-D; the plot shows the "
                         f"first two objectives.")
            md.append(f"![pareto]({name}){extra}")
            md.append("")

    # ----- sensitivity -----------------------------------------------
    axis_names = [a.name for a in spec.axes]
    metric_names = sorted(objectives) if objectives else sorted(
        k for k in (flat[0] if flat else {})
        if k not in axis_names and k != "id"
        and isinstance(flat[0][k], (int, float)))
    sens = sensitivity_summary(flat, axis_names, metric_names) \
        if flat else {}
    sens_rows: List[Tuple[str, float]] = []
    for axis in axis_names:
        for metric in metric_names:
            value = sens.get(axis, {}).get(metric)
            if value is not None:
                sens_rows.append((f"{metric} / {axis}", value))
    if sens_rows:
        md.append("## Per-axis sensitivity")
        md.append("")
        md.append(_md_table(
            ["metric / axis", "endpoint elasticity"],
            [[label, value] for label, value in sens_rows]))
        md.append("")
        name = _emit(
            "fig_sensitivity.svg",
            hbar_svg(sens_rows, f"Sensitivity — {spec.name}",
                     "endpoint elasticity (d metric / d axis, "
                     "normalized)", color_by_sign=True))
        md.append(f"![sensitivity]({name})")
        md.append("")

    # ----- runtime breakdown -----------------------------------------
    runtime_rows: List[Tuple[str, float]] = []
    runtime_notes: List[str] = []
    runtime_table = []
    for label, rows in data.timings:
        wall = sum(float(r.get("wall_s", 0.0)) for r in rows)
        cached = sum(1 for r in rows if r.get("cached"))
        runtime_rows.append((label, round(wall, 3)))
        runtime_notes.append(f"{len(rows)} pts, {cached} cached")
        runtime_table.append([label, len(rows), cached, round(wall, 2),
                              (round(wall / len(rows), 3)
                               if rows else None)])
    if any(rows for _, rows in data.timings):
        md.append("## Runtime breakdown")
        md.append("")
        md.append(_md_table(["stage", "points", "flow-cache hits",
                             "wall (s)", "s/point"], runtime_table))
        md.append("")
        name = _emit(
            "fig_runtime.svg",
            hbar_svg(runtime_rows, f"Runtime — {spec.name}",
                     "wall-clock seconds", annotations=runtime_notes))
        md.append(f"![runtime]({name})")
        md.append("")

    # ----- failures ---------------------------------------------------
    if failed:
        md.append("## Failed points")
        md.append("")
        md.append(_md_table(
            ["id", "error", "message"],
            [[r["id"], r["error"]["type"], r["error"]["message"]]
             for r in failed]))
        md.append("")

    report_path = out / "report.md"
    report_path.write_text("\n".join(md))

    summary = {
        "name": spec.name,
        "spec_hash": spec.spec_hash(),
        "objectives": objectives,
        "total_points": total,
        "final_records": len(data.records),
        "successes": len(successes(data.records)),
        "failures": len(failed),
        "front_ids": [r.get("id") for r in front],
        "front_size": len(front),
        "flow_evaluations": flow_evaluations,
        "funnel": (data.fidelity["funnel"]
                   if data.fidelity is not None else None),
        "figures": sorted(p.name for p in figures),
    }
    summary_path = out / "report.json"
    summary_path.write_text(json.dumps(summary, indent=2,
                                       sort_keys=True) + "\n")

    return ReportResult(out_dir=out, report_path=report_path,
                        summary_path=summary_path, figures=figures)
