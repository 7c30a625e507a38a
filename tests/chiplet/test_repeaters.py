"""Repeater-insertion theory tests."""

import pytest

from repro.chiplet.repeaters import WireRc, critical_length_um, plan_repeaters


class TestRepeaterTheory:
    def test_short_wire_needs_no_repeater(self):
        crit = critical_length_um()
        plan = plan_repeaters(crit * 0.4)
        assert plan.num_repeaters == 0
        assert plan.delay_ps == plan.unbuffered_delay_ps

    def test_long_wire_gets_repeaters(self):
        plan = plan_repeaters(5000.0)
        assert plan.num_repeaters >= 2

    def test_repeater_count_linear_in_length(self):
        k1 = plan_repeaters(4000.0).num_repeaters
        k2 = plan_repeaters(8000.0).num_repeaters
        assert k2 == pytest.approx(2 * k1, abs=1)

    def test_buffered_delay_linear_not_quadratic(self):
        d1 = plan_repeaters(4000.0).delay_ps
        d2 = plan_repeaters(8000.0).delay_ps
        # Quadratic would give 4x; buffered gives ~2x.
        assert d2 / d1 < 2.6

    def test_unbuffered_grows_superlinearly(self):
        # The quadratic wire term overtakes the linear driver-charging
        # term at long lengths: 4x the length > 4x the delay.
        d1 = plan_repeaters(4000.0).unbuffered_delay_ps
        d2 = plan_repeaters(16000.0).unbuffered_delay_ps
        assert d2 / d1 > 5.0

    def test_buffering_always_at_least_as_fast(self):
        for length in (200.0, 1000.0, 5000.0, 20000.0):
            plan = plan_repeaters(length)
            assert plan.delay_ps <= plan.unbuffered_delay_ps + 1e-9
            assert plan.speedup >= 1.0

    def test_speedup_grows_with_length(self):
        s1 = plan_repeaters(2000.0).speedup
        s2 = plan_repeaters(10000.0).speedup
        assert s2 > s1

    def test_repeater_size_reasonable(self):
        plan = plan_repeaters(6000.0)
        assert 2.0 < plan.repeater_size < 100.0

    def test_critical_length_scale(self):
        # 28nm-class repeater break-even: tens to a few hundred microns.
        crit = critical_length_um()
        assert 30.0 < crit < 600.0

    def test_resistive_wire_needs_more_repeaters(self):
        thin = WireRc(r_ohm_per_um=4.0, c_ff_per_um=0.138)
        fat = WireRc(r_ohm_per_um=0.2, c_ff_per_um=0.138)
        assert plan_repeaters(5000.0, thin).num_repeaters > \
            plan_repeaters(5000.0, fat).num_repeaters

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_repeaters(0.0)
        with pytest.raises(ValueError):
            WireRc(r_ohm_per_um=-1.0)
