"""Sweep runner tests: result store, resume identity, failure rows."""

import json

import pytest

from repro.dse.analyze import failures, successes
from repro.dse.runner import SweepRunner, run_sweep
from repro.dse.space import Axis, SweepSpec
from repro.tech.interposer import GLASS_25D

#: A cheap six-point link sweep (sub-second per point, no flow stages).
CHEAP = SweepSpec(
    name="cheap-link", design="glass_25d", evaluator="link",
    sampler="grid", length_um=1000.0,
    axes=(Axis("min_wire_width_um", values=(1.0, 2.0, 4.0),
               tied=("min_wire_space_um",)),
          Axis("dielectric_thickness_um", values=(10.0, 25.0))))


class TestInMemory:
    def test_records_ordered_and_complete(self):
        records = run_sweep(CHEAP)
        assert [r["index"] for r in records] == list(range(6))
        assert [r["id"] for r in records] \
            == [CHEAP.point_id(i) for i in range(6)]
        for r in records:
            assert r["error"] is None
            assert set(r["metrics"]) >= {"delay_ps", "power_uw",
                                         "r_ohm_per_mm"}

    def test_tied_axis_applied(self):
        # Wider wire + tied spacing: resistance must drop monotonically.
        records = run_sweep(CHEAP)
        r_by_width = {r["params"]["min_wire_width_um"]:
                      r["metrics"]["r_ohm_per_mm"]
                      for r in records
                      if r["params"]["dielectric_thickness_um"] == 10.0}
        assert r_by_width[1.0] > r_by_width[2.0] > r_by_width[4.0]

    def test_unregistered_base_spec(self):
        import dataclasses
        base = dataclasses.replace(GLASS_25D, name="custom_glass",
                                   metal_thickness_um=6.0)
        spec = SweepSpec(
            name="custom", design="custom_glass", evaluator="link",
            axes=(Axis("min_wire_width_um", values=(2.0,)),))
        records = run_sweep(spec, base_spec=base)
        assert records[0]["error"] is None

    def test_unregistered_base_spec_fails_the_pdn_point(self):
        """The PDN stage has no loop calibration for an unregistered
        spec, so the point comes back as an error row."""
        import dataclasses
        base = dataclasses.replace(GLASS_25D, name="custom_glass",
                                   metal_thickness_um=6.0)
        spec = SweepSpec(
            name="custom", design="custom_glass", evaluator="link_pdn",
            axes=(Axis("min_wire_width_um", values=(2.0,)),))
        records = run_sweep(spec, base_spec=base)
        assert records[0]["metrics"] is None
        assert records[0]["error"]["type"] == "KeyError"
        assert "custom_glass" in records[0]["error"]["message"]


class TestResultStore:
    def test_store_files_written(self, tmp_path):
        runner = SweepRunner(CHEAP, out_dir=tmp_path / "s")
        records = runner.run()
        assert len(records) == 6
        manifest = json.loads(runner.manifest_path.read_text())
        assert manifest["spec_hash"] == CHEAP.spec_hash()
        assert manifest["total_points"] == 6
        lines = runner.points_path.read_text().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[0])["id"] == "p00000"
        timings = [json.loads(l) for l in
                   runner.timings_path.read_text().splitlines()]
        assert len(timings) == 6
        assert all(t["wall_s"] >= 0 for t in timings)

    def test_fresh_run_restarts_store(self, tmp_path):
        out = tmp_path / "s"
        SweepRunner(CHEAP, out_dir=out).run()
        SweepRunner(CHEAP, out_dir=out).run()  # no resume: restart
        assert len((out / "points.jsonl").read_text().splitlines()) == 6

    def test_resume_is_byte_identical_to_uninterrupted(self, tmp_path):
        """The acceptance property: kill mid-sweep, resume, and the
        store matches an uninterrupted run byte for byte."""
        full = SweepRunner(CHEAP, out_dir=tmp_path / "full")
        full.run()
        split = SweepRunner(CHEAP, out_dir=tmp_path / "split")
        split.run(limit=3)  # simulate a killed sweep
        assert len(split.points_path.read_text().splitlines()) == 3
        resumed = SweepRunner(CHEAP, out_dir=tmp_path / "split")
        records = resumed.run(resume=True)
        assert len(records) == 6
        assert split.points_path.read_bytes() \
            == full.points_path.read_bytes()
        assert split.manifest_path.read_bytes() \
            == full.manifest_path.read_bytes()

    def test_resume_skips_completed_points(self, tmp_path):
        runner = SweepRunner(CHEAP, out_dir=tmp_path / "s")
        runner.run()
        timings_before = runner.timings_path.read_text()
        SweepRunner(CHEAP, out_dir=tmp_path / "s").run(resume=True)
        # Nothing recomputed: no timing rows were appended.
        assert runner.timings_path.read_text() == timings_before

    def test_resume_rejects_spec_mismatch(self, tmp_path):
        out = tmp_path / "s"
        SweepRunner(CHEAP, out_dir=out).run(limit=2)
        other = SweepSpec(
            name="cheap-link", design="glass_25d", evaluator="link",
            axes=(Axis("min_wire_width_um", values=(1.0, 3.0)),))
        with pytest.raises(ValueError, match="different spec"):
            SweepRunner(other, out_dir=out).run(resume=True)

    def test_parallel_store_matches_serial(self, tmp_path):
        serial = SweepRunner(CHEAP, out_dir=tmp_path / "serial")
        serial.run()
        parallel = SweepRunner(CHEAP, out_dir=tmp_path / "par", jobs=2)
        parallel.run()
        assert parallel.points_path.read_bytes() \
            == serial.points_path.read_bytes()


class TestFailureRows:
    #: Middle point is invalid (negative width fails spec validation).
    FAILING = SweepSpec(
        name="failing", design="glass_25d", evaluator="link",
        axes=(Axis("min_wire_width_um", values=(2.0, -1.0, 4.0)),))

    def test_failure_recorded_sweep_continues(self, tmp_path):
        runner = SweepRunner(self.FAILING, out_dir=tmp_path / "s")
        records = runner.run()
        assert len(records) == 3
        assert len(successes(records)) == 2
        bad = failures(records)
        assert len(bad) == 1
        assert bad[0]["params"]["min_wire_width_um"] == -1.0
        assert bad[0]["error"]["type"] == "ValueError"
        assert bad[0]["metrics"] is None
        # The traceback went to the error log, not the store.
        assert "Traceback" in runner.errors_path.read_text()
        assert "Traceback" not in runner.points_path.read_text()

    def test_flow_evaluator_failure_is_structured(self):
        # Invalid override reaches the flow task layer and comes back
        # as a structured row, not an exception.
        spec = SweepSpec(
            name="flow-fail", design="glass_3d", evaluator="flow",
            scale=0.01, axes=(Axis("microbump_pitch_um",
                                   values=(-5.0,)),))
        records = run_sweep(spec)
        assert records[0]["error"]["type"] == "ValueError"


class TestFlowCacheInteraction:
    #: Two-point frequency sweep of the cheapest design (no routing).
    FREQ = SweepSpec(
        name="freq", design="silicon_3d", evaluator="flow",
        scale=0.01, seed=7,
        axes=(Axis("target_frequency_mhz", values=(650.0, 700.0)),))

    @pytest.fixture(autouse=True)
    def isolated_flow_cache(self, tmp_path, monkeypatch):
        from repro.core.flow import clear_cache
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "fc"))
        clear_cache()
        yield
        clear_cache()

    def test_frequency_axis_not_served_stale(self, tmp_path):
        """Distinct frequencies must produce distinct metrics — the
        flow cache may not collapse the sweep onto its first point."""
        runner = SweepRunner(self.FREQ, out_dir=tmp_path / "s")
        records = runner.run()
        powers = {r["params"]["target_frequency_mhz"]:
                  r["metrics"]["power_mw"] for r in records}
        assert powers[650.0] != powers[700.0]

    def test_timings_record_flow_cache_hits(self, tmp_path):
        cold = SweepRunner(self.FREQ, out_dir=tmp_path / "cold")
        cold.run()
        cold_timings = [json.loads(l) for l in
                        cold.timings_path.read_text().splitlines()]
        assert all(not t["cached"] for t in cold_timings)
        warm = SweepRunner(self.FREQ, out_dir=tmp_path / "warm")
        warm.run()
        warm_timings = [json.loads(l) for l in
                        warm.timings_path.read_text().splitlines()]
        assert all(t["cached"] for t in warm_timings)
        # Cache state changes timings.jsonl only, never the store.
        assert warm.points_path.read_bytes() \
            == cold.points_path.read_bytes()


#: Duplicate-heavy sweep: the axis repeats one value, so 4 of its 6
#: points are parameter-identical to an earlier point.
DUPED = SweepSpec(
    name="duped-link", design="glass_25d", evaluator="link",
    sampler="grid", length_um=1000.0,
    axes=(Axis("min_wire_width_um", values=(2.0, 2.0, 2.0),
               tied=("min_wire_space_um",)),
          Axis("dielectric_thickness_um", values=(10.0, 10.0))))


class TestDedupe:
    def test_duplicate_points_share_one_evaluation(self, tmp_path):
        runner = SweepRunner(DUPED, out_dir=tmp_path / "s")
        records = runner.run()
        assert len(records) == 6
        timings = [json.loads(l) for l in
                   runner.timings_path.read_text().splitlines()]
        assert [t["deduped"] for t in timings] \
            == [False, True, True, True, True, True]
        # Duplicates copy the representative's deterministic result.
        for r in records[1:]:
            assert r["metrics"] == records[0]["metrics"]
        # ...but keep their own identity.
        assert [r["index"] for r in records] == list(range(6))
        assert [r["id"] for r in records] \
            == [DUPED.point_id(i) for i in range(6)]

    def test_deduped_rows_match_undeduped_semantics(self, tmp_path):
        # Evaluating the duplicated params directly gives the same
        # metrics the copied rows carry.
        from repro.dse.evaluate import evaluate_point
        runner = SweepRunner(DUPED, out_dir=tmp_path / "s")
        records = runner.run()
        metrics = evaluate_point(DUPED, records[3]["params"])
        metrics.pop("_cached", None)
        want = {k: v for k, v in records[3]["metrics"].items()}
        assert {k: pytest.approx(v) for k, v in want.items()} == metrics

    def test_distinct_points_not_deduped(self, tmp_path):
        runner = SweepRunner(CHEAP, out_dir=tmp_path / "s")
        runner.run()
        timings = [json.loads(l) for l in
                   runner.timings_path.read_text().splitlines()]
        assert all(not t["deduped"] for t in timings)
        assert all(t["pool"] == "serial" for t in timings)


class TestWarmPool:
    def test_pool_reused_across_runs(self, tmp_path):
        from repro.core import pool as pool_mod
        pool_mod.shutdown_pool()
        try:
            runner1 = SweepRunner(CHEAP, out_dir=tmp_path / "a", jobs=2)
            runner1.run()
            t1 = [json.loads(l) for l in
                  runner1.timings_path.read_text().splitlines()]
            assert all(t["pool"] == "cold" for t in t1)
            runner2 = SweepRunner(CHEAP, out_dir=tmp_path / "b", jobs=2)
            runner2.run()
            t2 = [json.loads(l) for l in
                  runner2.timings_path.read_text().splitlines()]
            assert all(t["pool"] == "warm" for t in t2)
        finally:
            pool_mod.shutdown_pool()

    def test_get_pool_recreates_on_size_change(self):
        from repro.core.pool import get_pool, shutdown_pool
        shutdown_pool()
        try:
            p1, reused1 = get_pool(2)
            assert not reused1
            p2, reused2 = get_pool(2)
            assert reused2 and p2 is p1
            p3, reused3 = get_pool(3)
            assert not reused3 and p3 is not p1
        finally:
            shutdown_pool()

    def test_get_pool_rejects_bad_jobs(self):
        from repro.core.pool import get_pool
        with pytest.raises(ValueError):
            get_pool(0)
