"""Channel measurement tests (Table V mechanics)."""

import pytest

from repro.si.channel import Channel, measure_channel
from repro.si.tline import line_for_spec
from repro.tech.interconnect3d import (cascade, microbump_model,
                                       stacked_via_model, tsv_model)
from repro.tech.interposer import GLASS_25D, SILICON_25D


class TestChannelValidation:
    def test_needs_exactly_one_interconnect(self):
        with pytest.raises(ValueError):
            Channel("x")
        with pytest.raises(ValueError):
            Channel("x", line=line_for_spec(GLASS_25D), length_um=100,
                    lumped=microbump_model())

    def test_distributed_needs_length(self):
        with pytest.raises(ValueError):
            Channel("x", line=line_for_spec(GLASS_25D))

    def test_total_capacitance(self):
        ch = Channel("x", line=line_for_spec(GLASS_25D), length_um=1000)
        assert ch.total_capacitance_f() == pytest.approx(
            line_for_spec(GLASS_25D).c_per_m * 1e-3)


class TestMeasurements:
    def test_longer_line_more_delay_and_power(self):
        line = line_for_spec(GLASS_25D)
        short = measure_channel(Channel("s", line=line, length_um=500))
        long = measure_channel(Channel("l", line=line, length_um=4000))
        assert long.interconnect_delay_ps > short.interconnect_delay_ps
        assert long.interconnect_power_uw > short.interconnect_power_uw

    def test_microbump_nearly_free(self):
        rep = measure_channel(Channel("b", lumped=microbump_model()))
        assert rep.interconnect_delay_ps < 2.0
        assert rep.interconnect_power_uw < 5.0

    def test_interconnect_power_tracks_cv2f(self):
        line = line_for_spec(GLASS_25D)
        length = 3000.0
        rep = measure_channel(Channel("p", line=line, length_um=length))
        c_total = line.c_per_m * length * 1e-6
        cv2f = c_total * 0.81 * 0.7e9 * 1e6
        assert rep.interconnect_power_uw == pytest.approx(cv2f, rel=0.5)

    def test_total_is_sum(self):
        rep = measure_channel(Channel("t", lumped=microbump_model()))
        assert rep.total_delay_ps == pytest.approx(
            rep.driver_delay_ps + rep.interconnect_delay_ps)
        assert rep.total_power_uw == pytest.approx(
            rep.driver_power_uw + rep.interconnect_power_uw)

    def test_driver_power_near_26uw(self):
        rep = measure_channel(Channel("d", lumped=microbump_model()))
        assert rep.driver_power_uw == pytest.approx(26.25, rel=0.05)

    def test_activity_scales_interconnect_power(self):
        line = line_for_spec(GLASS_25D)
        full = measure_channel(Channel("a", line=line, length_um=2000),
                               activity=1.0)
        half = measure_channel(Channel("a", line=line, length_um=2000),
                               activity=0.5)
        assert half.interconnect_power_uw == pytest.approx(
            full.interconnect_power_uw / 2)

    def test_table5_silicon_vs_glass_delay(self):
        """Silicon's resistive wires beat glass only on shorter nets —
        on matched length glass is faster (Table VI mechanism)."""
        glass = measure_channel(
            Channel("g", line=line_for_spec(GLASS_25D), length_um=2000))
        silicon = measure_channel(
            Channel("s", line=line_for_spec(SILICON_25D), length_um=2000))
        assert glass.interconnect_delay_ps < silicon.interconnect_delay_ps

    def test_3d_links_beat_lateral(self):
        """Table V ordering: vertical interconnects beat all laterals."""
        bump = measure_channel(Channel("b", lumped=microbump_model()))
        b2b = measure_channel(
            Channel("t", lumped=cascade(tsv_model(), tsv_model())))
        sv = measure_channel(Channel("v", lumped=stacked_via_model()))
        lateral = measure_channel(
            Channel("l", line=line_for_spec(SILICON_25D), length_um=1952))
        for vert in (bump, b2b, sv):
            assert vert.interconnect_delay_ps < \
                lateral.interconnect_delay_ps
            assert vert.interconnect_power_uw < \
                lateral.interconnect_power_uw


class TestSimCache:
    def test_same_physics_different_name_is_bit_identical(self):
        """The memo keys on physics, not names: two channels with equal
        parameters share one simulation, so their reports are equal to
        the last bit."""
        from repro.si.channel import _CHANNEL_SIM_CACHE
        _CHANNEL_SIM_CACHE.clear()
        a = measure_channel(Channel("a", lumped=microbump_model()))
        n_after_first = len(_CHANNEL_SIM_CACHE)
        b = measure_channel(Channel("b", lumped=microbump_model()))
        assert len(_CHANNEL_SIM_CACHE) == n_after_first
        assert a.interconnect_delay_ps == b.interconnect_delay_ps
        assert a.interconnect_power_uw == b.interconnect_power_uw

    def test_different_physics_not_shared(self):
        from repro.si.channel import _CHANNEL_SIM_CACHE
        _CHANNEL_SIM_CACHE.clear()
        measure_channel(Channel("a", lumped=microbump_model()))
        n1 = len(_CHANNEL_SIM_CACHE)
        measure_channel(Channel("b", lumped=tsv_model()))
        assert len(_CHANNEL_SIM_CACHE) == n1 + 1

    def test_line_length_in_key(self):
        from repro.si.channel import _channel_sim_key
        line = line_for_spec(GLASS_25D)
        k1 = _channel_sim_key(
            Channel("x", line=line, length_um=1000), 7e8, 1e-12)
        k2 = _channel_sim_key(
            Channel("x", line=line, length_um=2000), 7e8, 1e-12)
        assert k1 != k2
