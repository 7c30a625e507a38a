"""Multi-fidelity runner tests: promotion, resume identity, the
front-equality acceptance property, and pruning accounting."""

import json

import pytest

from repro.dse.analyze import flat_records, pareto_front
from repro.dse.fidelity import (FidelityRung, MultiFidelityRunner,
                                MultiFidelitySpec, PromotionPolicy,
                                load_space, promote)
from repro.dse.runner import run_sweep
from repro.dse.space import Axis, SweepSpec


def record(pos, metrics, design=None, error=None):
    params = {"x": pos}
    if design is not None:
        params["design"] = design
    return {"id": f"p{pos:05d}", "index": pos, "params": params,
            "metrics": metrics, "error": error}


class TestPromotionPolicy:
    def test_needs_a_selector(self):
        with pytest.raises(ValueError, match="at least one selector"):
            PromotionPolicy().validate()

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            PromotionPolicy(quantile=1.5).validate()

    def test_round_trip(self):
        policy = PromotionPolicy(pareto=True, top_k=2, quantile=0.25,
                                 group_by="design")
        assert PromotionPolicy.from_dict(policy.to_dict()) == policy

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown promotion"):
            PromotionPolicy.from_dict({"keep": 3})


class TestPromote:
    RECORDS = [
        record(0, {"delay_ps": 10.0, "power_uw": 50.0}),
        record(1, {"delay_ps": 12.0, "power_uw": 40.0}),
        record(2, {"delay_ps": 14.0, "power_uw": 45.0}),  # dominated
        record(3, {"delay_ps": 9.0, "power_uw": 60.0}),
    ]
    OBJECTIVES = {"delay_ps": "min", "power_uw": "min"}

    def test_pareto_keeps_non_dominated(self):
        kept, counts = promote(self.RECORDS, self.OBJECTIVES,
                               PromotionPolicy(pareto=True))
        assert kept == [0, 1, 3]
        assert counts == {"evaluated": 4, "failed": 0, "promoted": 3,
                          "pruned": 1}

    def test_top_k_per_objective(self):
        kept, _ = promote(self.RECORDS, self.OBJECTIVES,
                          PromotionPolicy(top_k=1))
        # Best delay is pos 3, best power is pos 1.
        assert kept == [1, 3]

    def test_quantile_per_objective(self):
        kept, _ = promote(self.RECORDS, self.OBJECTIVES,
                          PromotionPolicy(quantile=0.5))
        # ceil(0.5 * 4) = 2 best per objective: delay {3, 0}, power
        # {1, 2} -> union.
        assert kept == [0, 1, 2, 3]

    def test_union_of_selectors(self):
        kept, _ = promote(self.RECORDS, self.OBJECTIVES,
                          PromotionPolicy(pareto=True, top_k=1))
        assert kept == [0, 1, 3]

    def test_failed_points_never_promoted(self):
        records = self.RECORDS + [
            record(4, None, error={"type": "ValueError", "message": "x"}),
            record(5, {"delay_ps": 1.0}),  # missing power_uw
        ]
        kept, counts = promote(records, self.OBJECTIVES,
                               PromotionPolicy(quantile=1.0))
        assert kept == [0, 1, 2, 3]
        assert counts["failed"] == 2
        assert counts["pruned"] == 2

    def test_group_by_selects_within_groups(self):
        records = [
            record(0, {"delay_ps": 10.0}, design="glass"),
            record(1, {"delay_ps": 11.0}, design="glass"),
            record(2, {"delay_ps": 99.0}, design="organic"),
            record(3, {"delay_ps": 98.0}, design="organic"),
        ]
        grouped, _ = promote(records, {"delay_ps": "min"},
                             PromotionPolicy(top_k=1,
                                             group_by="design"))
        # Each technology keeps its own best, even though organic's
        # best is globally worse than glass's worst.
        assert grouped == [0, 3]
        flat, _ = promote(records, {"delay_ps": "min"},
                          PromotionPolicy(top_k=1))
        assert flat == [0]

    def test_ties_break_toward_lower_position(self):
        records = [record(i, {"delay_ps": 5.0}) for i in range(4)]
        kept, _ = promote(records, {"delay_ps": "min"},
                          PromotionPolicy(top_k=2))
        assert kept == [0, 1]


#: A cheap two-rung ladder over single-stage evaluators (no flow).
CHEAP_SWEEP = SweepSpec(
    name="mf-cheap", design="glass_25d", evaluator="link_pdn",
    sampler="grid", length_um=1500.0,
    axes=(Axis("min_wire_width_um", values=(1.0, 2.0, 4.0),
               tied=("min_wire_space_um",)),
          Axis("dielectric_thickness_um", values=(10.0, 25.0))),
    objectives=(("delay_ps", "min"), ("pdn_z_1ghz_ohm", "min")))
CHEAP_MF = MultiFidelitySpec(
    sweep=CHEAP_SWEEP,
    rungs=(FidelityRung("link",
                        (("delay_ps", "min"), ("power_uw", "min")),
                        PromotionPolicy(pareto=True, top_k=1)),))


class TestSpecValidation:
    def test_needs_rungs(self):
        with pytest.raises(ValueError, match="at least one surrogate"):
            MultiFidelitySpec(sweep=CHEAP_SWEEP, rungs=()).validate()

    def test_needs_final_objectives(self):
        import dataclasses
        bare = dataclasses.replace(CHEAP_SWEEP, objectives=())
        with pytest.raises(ValueError, match="final objectives"):
            MultiFidelitySpec(sweep=bare,
                              rungs=CHEAP_MF.rungs).validate()

    def test_rejects_subset_sweep(self):
        import dataclasses
        sub = dataclasses.replace(CHEAP_SWEEP, subset=(0, 1))
        with pytest.raises(ValueError, match="subset"):
            MultiFidelitySpec(sweep=sub, rungs=CHEAP_MF.rungs).validate()

    def test_rung_needs_objectives(self):
        with pytest.raises(ValueError, match="proxy objective"):
            FidelityRung("link", (),
                         PromotionPolicy(pareto=True)).validate()

    def test_rung_evaluator_checked(self):
        with pytest.raises(ValueError, match="unknown"):
            FidelityRung("warp", (("delay_ps", "min"),),
                         PromotionPolicy(pareto=True)).validate()

    def test_dict_round_trip(self):
        clone = MultiFidelitySpec.from_dict(CHEAP_MF.to_dict())
        assert clone.sweep.spec_hash() == CHEAP_SWEEP.spec_hash()
        assert clone.rungs == CHEAP_MF.rungs

    def test_load_space_detects_fidelity_block(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(CHEAP_SWEEP.to_dict()))
        spec, mf = load_space(plain)
        assert mf is None and spec.name == "mf-cheap"
        ladder = tmp_path / "ladder.json"
        ladder.write_text(json.dumps(CHEAP_MF.to_dict()))
        spec, mf = load_space(ladder)
        assert mf is not None
        assert [r.evaluator for r in mf.rungs] == ["link"]


class TestLadderExecution:
    def test_in_memory_run(self, tmp_path):
        result = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "s").run()
        assert result.complete
        assert len(result.funnel) == 2
        rung0, final = result.funnel
        assert rung0["evaluated"] == 6
        assert rung0["promoted"] + rung0["pruned"] == 6
        assert rung0["pruned"] >= 1
        assert final["evaluated"] == rung0["promoted"]
        # Final records keep their full-space identities.
        assert [r["id"] for r in result.records] \
            == rung0["survivors"]

    def test_funnel_lines_report_pruning(self, tmp_path):
        result = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "s").run()
        lines = result.funnel_lines()
        assert "promoted" in lines[0] and "pruned" in lines[0]
        assert "final fidelity" in lines[1]

    def test_rung_stores_and_fidelity_manifest(self, tmp_path):
        runner = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "s")
        result = runner.run()
        manifest = json.loads(
            (tmp_path / "s" / "fidelity.json").read_text())
        assert manifest["complete"] is True
        assert manifest["spec_hash"] == CHEAP_SWEEP.spec_hash()
        assert [e["dir"] for e in manifest["funnel"]] \
            == ["rung0_link", "rung1_link_pdn"]
        # Each rung is an ordinary resumable store whose manifest
        # records the promotion decision as the derived spec's subset.
        rung1 = json.loads(
            (tmp_path / "s" / "rung1_link_pdn" /
             "manifest.json").read_text())
        survivors = [f"p{i:05d}" for i in rung1["spec"]["subset"]]
        assert survivors == manifest["funnel"][0]["survivors"]
        assert result.funnel == manifest["funnel"]

    def test_degenerate_promotion_raises(self, tmp_path):
        bad = MultiFidelitySpec(
            sweep=CHEAP_SWEEP,
            rungs=(FidelityRung(
                "link", (("no_such_metric", "min"),),
                PromotionPolicy(top_k=1)),))
        with pytest.raises(ValueError, match="no candidates"):
            MultiFidelityRunner(bad, out_dir=tmp_path / "s").run()


class TestResumeByteIdentity:
    def test_killed_mid_rung_resume_is_byte_identical(self, tmp_path):
        """The acceptance property: a ladder killed mid-rung and
        resumed produces rung stores byte-identical to an
        uninterrupted run (points.jsonl, manifest.json, and
        fidelity.json alike)."""
        full = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "full")
        full_result = full.run()
        assert full_result.complete

        split = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "split")
        # Stop after 4 new evaluations: rung 0 holds 6 points, so this
        # kills the ladder inside rung 0.
        partial = split.run(limit=4)
        assert not partial.complete
        assert partial.funnel[-1]["status"] == "incomplete"
        rows = (tmp_path / "split" / "rung0_link" /
                "points.jsonl").read_text().splitlines()
        assert len(rows) == 4

        resumed = MultiFidelityRunner(CHEAP_MF,
                                      out_dir=tmp_path / "split")
        result = resumed.run(resume=True)
        assert result.complete
        for rung in ("rung0_link", "rung1_link_pdn"):
            for fname in ("points.jsonl", "manifest.json"):
                assert (tmp_path / "split" / rung / fname).read_bytes() \
                    == (tmp_path / "full" / rung / fname).read_bytes(), \
                    f"{rung}/{fname} diverged after resume"
        assert (tmp_path / "split" / "fidelity.json").read_bytes() \
            == (tmp_path / "full" / "fidelity.json").read_bytes()

    def test_kill_between_rungs_resumes(self, tmp_path):
        split = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "s")
        partial = split.run(limit=6)  # exactly rung 0, nothing after
        assert not partial.complete
        assert partial.funnel[0]["status"] == "complete"
        result = MultiFidelityRunner(
            CHEAP_MF, out_dir=tmp_path / "s").run(resume=True)
        assert result.complete
        # Rung 0 was not recomputed on resume: no timing rows appended.
        timings = (tmp_path / "s" / "rung0_link" /
                   "timings.jsonl").read_text().splitlines()
        assert len(timings) == 6

    def test_parallel_matches_serial(self, tmp_path):
        serial = MultiFidelityRunner(CHEAP_MF,
                                     out_dir=tmp_path / "serial")
        serial.run()
        par = MultiFidelityRunner(CHEAP_MF, out_dir=tmp_path / "par",
                                  jobs=2)
        par.run()
        for rung in ("rung0_link", "rung1_link_pdn"):
            assert (tmp_path / "par" / rung / "points.jsonl").read_bytes() \
                == (tmp_path / "serial" / rung /
                    "points.jsonl").read_bytes()


#: Six-point full-flow smoke space: bump pitch x dielectric on the
#: cheapest design.  Geometry area ranks the pitch axis exactly as the
#: flow does, and link delay ranks the dielectric axis exactly as the
#: flow's L2M channel does, so the surrogate ladder must recover the
#: exhaustive Pareto front.
FLOW_SMOKE = SweepSpec(
    name="mf-flow-smoke", design="glass_3d", evaluator="flow",
    sampler="grid", scale=0.02, seed=7,
    axes=(Axis("microbump_pitch_um", values=(30.0, 40.0, 50.0)),
          Axis("dielectric_thickness_um", values=(10.0, 20.0))),
    objectives=(("area_mm2", "min"), ("l2m_delay_ps", "min")))
FLOW_MF = MultiFidelitySpec(
    sweep=FLOW_SMOKE,
    rungs=(FidelityRung("geometry",
                        (("interposer_area_mm2", "min"),),
                        PromotionPolicy(top_k=2)),
           FidelityRung("link", (("delay_ps", "min"),),
                        PromotionPolicy(top_k=1)),))


class TestFrontEquality:
    def test_ladder_recovers_exhaustive_front(self, tmp_path):
        """Acceptance: the multi-fidelity run reaches the same final
        Pareto front as an exhaustive full-fidelity sweep of the
        6-point smoke space while running `flow` on a fraction of the
        points, with per-rung pruning counts recorded."""
        mf_result = MultiFidelityRunner(
            FLOW_MF, out_dir=tmp_path / "mf").run()
        assert mf_result.complete
        flow_evaluated = mf_result.funnel[-1]["evaluated"]
        assert flow_evaluated <= 3  # <= 50% of 6 at full fidelity
        for entry in mf_result.funnel[:-1]:
            assert entry["promoted"] is not None
            assert entry["pruned"] == (entry["evaluated"]
                                       - entry["promoted"])
        mf_front = pareto_front(flat_records(mf_result.records),
                                dict(FLOW_SMOKE.objectives))

        exhaustive = run_sweep(FLOW_SMOKE)
        full_front = pareto_front(flat_records(exhaustive),
                                  dict(FLOW_SMOKE.objectives))
        assert sorted(r["id"] for r in mf_front) \
            == sorted(r["id"] for r in full_front)
        # Same design points, same metric values.
        mf_by_id = {r["id"]: r for r in mf_front}
        for row in full_front:
            match = mf_by_id[row["id"]]
            for metric in dict(FLOW_SMOKE.objectives):
                assert match[metric] == pytest.approx(row[metric])
