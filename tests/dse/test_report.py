"""Sweep report rendering tests: plain and multi-fidelity stores,
snapshot stability, and machine-readable summaries."""

import hashlib
import json

import pytest

from repro.dse.fidelity import (FidelityRung, MultiFidelityRunner,
                                MultiFidelitySpec, PromotionPolicy)
from repro.dse.figures import (funnel_svg, hbar_svg, nice_ticks,
                               scatter_svg, Series)
from repro.dse.report import generate_report, load_sweep_dir
from repro.dse.runner import SweepRunner
from repro.dse.space import Axis, SweepSpec

PLAIN = SweepSpec(
    name="report-plain", design="glass_25d", evaluator="link_pdn",
    sampler="grid", length_um=1500.0,
    axes=(Axis("min_wire_width_um", values=(1.0, 2.0, 4.0),
               tied=("min_wire_space_um",)),
          Axis("dielectric_thickness_um", values=(10.0, 25.0))),
    objectives=(("delay_ps", "min"), ("pdn_z_1ghz_ohm", "min")))

LADDER = MultiFidelitySpec(
    sweep=PLAIN,
    rungs=(FidelityRung("link",
                        (("delay_ps", "min"), ("power_uw", "min")),
                        PromotionPolicy(pareto=True, top_k=1)),))


@pytest.fixture(scope="module")
def plain_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("plain") / "store"
    SweepRunner(PLAIN, out_dir=d).run()
    return d


@pytest.fixture(scope="module")
def ladder_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("ladder") / "store"
    MultiFidelityRunner(LADDER, out_dir=d).run()
    return d


def file_hashes(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


class TestFigures:
    def test_nice_ticks_interior_and_uniform(self):
        ticks = nice_ticks(0.3, 9.7)
        assert ticks and all(0.3 <= t <= 9.7 for t in ticks)
        steps = {round(b - a, 12) for a, b in zip(ticks, ticks[1:])}
        assert len(steps) == 1  # uniform 1-2-5 spacing

    def test_nice_ticks_degenerate_span(self):
        assert len(nice_ticks(5.0, 5.0)) >= 2

    def test_scatter_is_valid_svg_with_legend_and_front(self):
        svg = scatter_svg(
            [Series("glass", [(1.0, 2.0), (2.0, 1.0)]),
             Series("silicon", [(1.5, 1.5)])],
            "area", "delay", "t", front=[(1.0, 2.0), (2.0, 1.0)])
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "glass" in svg and "silicon" in svg
        assert "stroke-dasharray" in svg  # front polyline

    def test_hbar_handles_negative_values(self):
        svg = hbar_svg([("a", 1.5), ("b", -0.5)], "t", "x",
                       color_by_sign=True)
        assert svg.count("<rect") >= 3  # background + two bars

    def test_funnel_marks_final_stage(self):
        svg = funnel_svg([("rung0", 10, 4), ("rung1", 4, -1)], "t")
        assert "rung0" in svg and "rung1" in svg

    def test_text_escaped(self):
        svg = hbar_svg([("a<b&c", 1.0)], "t", "x")
        assert "a&lt;b&amp;c" in svg


class TestLoadSweepDir:
    def test_plain_store(self, plain_dir):
        data = load_sweep_dir(plain_dir)
        assert data.fidelity is None
        assert data.spec.spec_hash() == PLAIN.spec_hash()
        assert len(data.records) == 6
        assert [label for label, _ in data.timings] == ["link_pdn"]

    def test_ladder_store(self, ladder_dir):
        data = load_sweep_dir(ladder_dir)
        assert data.fidelity is not None
        assert data.spec.spec_hash() == PLAIN.spec_hash()
        # Final-rung records only; every rung contributes timings.
        assert len(data.records) \
            == data.fidelity["funnel"][-1]["evaluated"]
        assert [label for label, _ in data.timings] \
            == ["rung0 (link)", "rung1 (link_pdn)"]

    def test_non_store_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError,
                           match="not a sweep result store"):
            load_sweep_dir(tmp_path)


class TestGenerateReport:
    def test_plain_report_contents(self, plain_dir):
        result = generate_report(plain_dir)
        assert result.out_dir == plain_dir / "report"
        text = result.report_path.read_text()
        assert "# Sweep report: report-plain" in text
        assert "## Pareto front" in text
        assert "## Per-axis sensitivity" in text
        assert "## Runtime breakdown" in text
        assert "## Fidelity funnel" not in text
        names = sorted(p.name for p in result.figures)
        assert names == ["fig_pareto.svg", "fig_runtime.svg",
                         "fig_sensitivity.svg"]

    def test_ladder_report_has_funnel(self, ladder_dir, tmp_path):
        result = generate_report(ladder_dir, out_dir=tmp_path / "r")
        text = result.report_path.read_text()
        assert "## Fidelity funnel" in text
        assert "nothing is silently capped" not in text  # no flow rung
        assert any(p.name == "fig_funnel.svg" for p in result.figures)
        summary = json.loads(result.summary_path.read_text())
        assert summary["funnel"] is not None
        assert summary["total_points"] == 6

    def test_summary_json(self, plain_dir):
        result = generate_report(plain_dir)
        summary = json.loads(result.summary_path.read_text())
        assert summary["name"] == "report-plain"
        assert summary["spec_hash"] == PLAIN.spec_hash()
        assert summary["final_records"] == 6
        assert summary["successes"] == 6
        assert summary["failures"] == 0
        assert summary["front_size"] == len(summary["front_ids"]) >= 1
        assert summary["figures"] == ["fig_pareto.svg",
                                      "fig_runtime.svg",
                                      "fig_sensitivity.svg"]

    def test_regeneration_is_hash_identical(self, ladder_dir, tmp_path):
        first = generate_report(ladder_dir, out_dir=tmp_path / "a")
        second = generate_report(ladder_dir, out_dir=tmp_path / "b")
        a = file_hashes(first.figures + [first.report_path])
        b = file_hashes(second.figures + [second.report_path])
        assert a == b

    def test_failed_points_listed(self, tmp_path):
        # A sweep whose spec fails validation per point would never
        # run; instead synthesize a store with one error row.
        d = tmp_path / "store"
        SweepRunner(PLAIN, out_dir=d).run()
        rows = (d / "points.jsonl").read_text().splitlines()
        row = json.loads(rows[-1])
        row["metrics"] = None
        row["error"] = {"type": "PointEvaluationError",
                        "message": "synthetic failure"}
        rows[-1] = json.dumps(row, sort_keys=True)
        (d / "points.jsonl").write_text("\n".join(rows) + "\n")
        result = generate_report(d)
        text = result.report_path.read_text()
        assert "## Failed points" in text
        assert "synthetic failure" in text
        summary = json.loads(result.summary_path.read_text())
        assert summary["failures"] == 1
