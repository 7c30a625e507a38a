"""Co-design flow integration tests (reduced scale)."""

import pytest

from repro.core.flow import run_design, run_monolithic
from repro.core.request import EvalRequest, ServeResult, canonical_dumps


def _canonical(result):
    """The stored bytes of a flow result (request aside)."""
    return canonical_dumps(
        ServeResult(request=EvalRequest(), result=result).canonical())


class TestRunDesign:
    def test_glass3d_result_complete(self, glass3d_design):
        r = glass3d_design
        assert r.logic.kind == "logic"
        assert r.memory.kind == "memory"
        assert r.route is not None
        assert r.pdn_impedance is not None
        assert r.ir_drop is not None
        assert r.power_transient is not None
        assert r.thermal is not None
        assert r.l2m_eye is not None

    def test_glass3d_l2m_is_vertical(self, glass3d_design):
        # Embedded stack: L2M measured on the stacked-via model.
        assert glass3d_design.l2m_channel.interconnect_delay_ps < 5.0

    def test_table4_row_keys(self, glass3d_design):
        row = glass3d_design.table4_row()
        assert {"design", "footprint_mm", "area_mm2", "power_mw",
                "signal_layers", "total_wl_mm", "via_usage",
                "pdn_impedance_ohm", "settling_time_us",
                "ir_drop_mv"} <= set(row)

    def test_table5_rows(self, glass3d_design):
        rows = glass3d_design.table5_rows()
        assert set(rows) == {"logic_to_mem", "logic_to_logic"}
        for row in rows.values():
            assert row["total_delay_ps"] == pytest.approx(
                row["io_delay_ps"] + row["interconnect_delay_ps"])

    def test_silicon3d_skips_interposer(self):
        r = run_design("silicon_3d", scale=0.02, seed=7,
                       with_eyes=False, with_thermal=False)
        assert r.route is None
        assert r.pdn_impedance is None
        assert "signal_layers" not in r.table4_row()

    def test_cache_hit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "store"))
        a = run_design("glass_25d", scale=0.015, seed=9)
        b = run_design("glass_25d", scale=0.015, seed=9)
        # The repeat is the stored entry: equal, without run timings.
        assert a.stage_times is not None and b.stage_times is None
        assert _canonical(b) == _canonical(a)

    def test_unknown_design(self):
        with pytest.raises(KeyError):
            run_design("fr4", scale=0.01)

    def test_fullchip_power_exceeds_chiplet_power(self, glass3d_design):
        fc = glass3d_design.fullchip
        assert fc.total_power_mw > fc.chiplet_power_mw
        assert fc.offchip_timing_met


class TestMonolithic:
    def test_monolithic_baseline(self):
        m = run_monolithic(scale=0.02, seed=7)
        assert m.cell_count > 3000
        assert m.area_mm2 == pytest.approx(m.footprint_mm ** 2, rel=0.05)
        assert m.total_power_mw > 0
        assert m.wirelength_m > 0

    def test_monolithic_die_smaller_than_2_5d_interposer(self,
                                                         silicon_design):
        m = run_monolithic(scale=0.03, seed=7)
        assert m.area_mm2 < silicon_design.placement.area_mm2


class TestSolverStats:
    def test_stage_solver_stats_present(self, glass3d_design):
        stats = glass3d_design.stage_solver_stats
        assert stats is not None
        assert {"chiplets", "routing", "pdn", "channels",
                "eyes", "thermal"} <= set(stats)
        for per_stage in stats.values():
            assert {"mna_factorizations", "mna_solves",
                    "transient_factorizations",
                    "transient_solves"} <= set(per_stage)
            assert all(v >= 0 for v in per_stage.values())

    def test_stage_deltas_sum_to_totals(self, glass3d_design):
        stats = glass3d_design.stage_solver_stats
        totals = glass3d_design.solver_stats
        for counter in ("mna_factorizations", "mna_solves",
                        "transient_factorizations", "transient_solves"):
            summed = sum(s[counter] for s in stats.values())
            # Stage deltas cover everything between reset and the final
            # snapshot except the tiny full-chip roll-up outside any
            # stage — so per-stage sums can never exceed the total.
            assert summed <= totals[counter]

    def test_transient_work_lands_in_channel_and_eye_stages(
            self, glass3d_design):
        stats = glass3d_design.stage_solver_stats
        assert stats["channels"]["transient_solves"] > 0
        assert stats["eyes"]["transient_solves"] > 0
        # The superposition engine keeps the eye stage's per-step solve
        # count tiny compared with full stepping (8192 steps per eye).
        assert stats["eyes"]["transient_solves"] < 2000
