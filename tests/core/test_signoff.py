"""Sign-off orchestration tests."""

import pytest

from repro.core.signoff import run_signoff


@pytest.fixture(scope="module")
def signoff(glass3d_design):
    return run_signoff(glass3d_design)


class TestSignoff:
    def test_all_checks_present(self, signoff):
        names = {c.name for c in signoff.checks}
        assert {"timing", "electromigration", "warpage",
                "electrothermal", "interposer_drc", "cost"} <= names

    def test_reliability_checks_pass_at_paper_point(self, signoff):
        # Timing may miss at tiny test scale; the physical checks must
        # clear comfortably.
        for name in ("electromigration", "warpage", "electrothermal",
                     "interposer_drc"):
            assert signoff.check(name).passed, name

    def test_detail_strings_informative(self, signoff):
        assert "margin" in signoff.check("electromigration").detail
        assert "um bow" in signoff.check("warpage").detail
        assert "$" in signoff.check("cost").detail

    def test_structured_subreports(self, signoff):
        assert signoff.em.worst.margin > 1.0
        assert signoff.warpage.warpage_um <= 100.0
        assert signoff.electrothermal.converged
        assert signoff.cost.cost_per_good_system > 0
        assert signoff.drc is not None

    def test_summary_rows_shape(self, signoff):
        rows = signoff.summary_rows()
        assert all(len(r) == 3 for r in rows)
        assert all(r[1] in ("PASS", "FAIL") for r in rows)

    def test_unknown_check_lookup(self, signoff):
        with pytest.raises(KeyError):
            signoff.check("esd")

    def test_tapeout_requires_all(self, signoff):
        expected = all(c.passed for c in signoff.checks)
        assert signoff.tapeout_ready == expected

    def test_tsv_stack_skips_drc(self):
        from repro.core.flow import run_design
        result = run_design("silicon_3d", scale=0.02, seed=7,
                            with_eyes=False, with_thermal=True)
        report = run_signoff(result)
        assert report.drc is None
        names = {c.name for c in report.checks}
        assert "interposer_drc" not in names
