"""Acceptance test: Pareto extraction across the six paper designs.

Runs the full flow for all six packaging design points (reduced scale,
no eyes/thermal — the Pareto objectives don't need them) and checks the
cost/power/L2M-delay frontier is non-trivial, contains the glass
designs, and satisfies the non-domination property.
"""

import pytest

from repro.core.flow import flow_metrics, run_designs
from repro.dse.analyze import dominates, pareto_front
from repro.tech.interposer import spec_names

OBJECTIVES = {"cost_usd": "min", "power_mw": "min",
              "l2m_delay_ps": "min"}


@pytest.fixture(scope="module")
def design_records():
    results = run_designs(spec_names(), scale=0.03, seed=7,
                          with_eyes=False, with_thermal=False)
    return [dict(flow_metrics(result), design=name)
            for name, result in results.items()]


class TestSixDesignPareto:
    def test_every_design_has_objective_metrics(self, design_records):
        assert len(design_records) == 6
        for record in design_records:
            for metric in OBJECTIVES:
                assert record[metric] is not None
                assert record[metric] > 0

    def test_frontier_nontrivial_and_contains_glass(self, design_records):
        front = pareto_front(design_records, OBJECTIVES)
        names = {r["design"] for r in front}
        # Non-trivial: more than one survivor, but not everything.
        assert 1 < len(front) < len(design_records)
        assert "glass_25d" in names
        assert "glass_3d" in names

    def test_frontier_non_domination_property(self, design_records):
        """No frontier point is dominated by ANY design point, and
        every excluded design is dominated by a frontier member."""
        front = pareto_front(design_records, OBJECTIVES)
        front_names = {r["design"] for r in front}
        for record in front:
            assert not any(dominates(other, record, OBJECTIVES)
                           for other in design_records)
        for record in design_records:
            if record["design"] not in front_names:
                assert any(dominates(member, record, OBJECTIVES)
                           for member in front)

    def test_glass_3d_beats_silicon_3d_on_cost(self, design_records):
        """The paper's economic claim: glass embedding is the cheap
        path to 3D integration (no TSV-stack processing)."""
        by_name = {r["design"]: r for r in design_records}
        assert by_name["glass_3d"]["cost_usd"] \
            < by_name["silicon_3d"]["cost_usd"]
