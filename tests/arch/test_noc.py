"""NoC link and AMAT model tests."""

import pytest

from repro.arch.noc import (AmatParameters, LinkParameters, link_latency,
                            tile_amat)
from repro.partition.serdes import SerDesConfig


class TestLinkModel:
    def test_zero_load_latency(self):
        rep = link_latency(LinkParameters(), 0.0)
        assert rep.queueing_cycles == 0.0
        assert rep.total_latency_cycles == rep.zero_load_latency_cycles

    def test_queueing_grows_with_load(self):
        light = link_latency(LinkParameters(), 0.01)
        heavy = link_latency(LinkParameters(), 0.1)
        assert heavy.queueing_cycles > light.queueing_cycles

    def test_saturation_rejected(self):
        with pytest.raises(ValueError, match="saturated"):
            link_latency(LinkParameters(), 0.2)  # 0.2 * 8 = 1.6 >= 1

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            link_latency(LinkParameters(), -0.1)

    def test_serialization_dominates_zero_load(self):
        fast = link_latency(
            LinkParameters(serdes=SerDesConfig(ratio=1,
                                               latency_cycles=1)), 0.01)
        slow = link_latency(
            LinkParameters(serdes=SerDesConfig(ratio=16,
                                               latency_cycles=16)), 0.01)
        assert slow.zero_load_latency_cycles > \
            fast.zero_load_latency_cycles + 14

    def test_bandwidth_inverse_in_ratio(self):
        bw1 = LinkParameters(serdes=SerDesConfig(ratio=1,
                                                 latency_cycles=1)
                             ).peak_bandwidth_gbps()
        bw8 = LinkParameters().peak_bandwidth_gbps()
        assert bw1 == pytest.approx(8 * bw8)

    def test_paper_link_bandwidth(self):
        # 64 bits / 8 cycles at 700 MHz = 5.6 Gb/s per bus.
        assert LinkParameters().peak_bandwidth_gbps() == pytest.approx(
            5.6)

    def test_latency_in_ns(self):
        rep = link_latency(LinkParameters(), 0.02)
        assert rep.total_latency_ns == pytest.approx(
            rep.total_latency_cycles * (1e3 / 700.0))


class TestAmat:
    def test_faster_link_lower_amat(self):
        fast = link_latency(
            LinkParameters(serdes=SerDesConfig(ratio=1,
                                               latency_cycles=1)), 0.02)
        slow = link_latency(LinkParameters(), 0.02)
        assert tile_amat(fast) < tile_amat(slow)

    def test_amat_floor_is_l1(self):
        rep = link_latency(LinkParameters(), 0.0)
        params = AmatParameters()
        assert tile_amat(rep, params) > params.l1_hit_cycles

    def test_amat_dominated_by_hits(self):
        # With default miss rates the AMAT stays within a few cycles.
        rep = link_latency(LinkParameters(), 0.02)
        assert 2.0 < tile_amat(rep) < 10.0


def serialized_link(ratio):
    """The link report with the link serialized ``ratio``:1."""
    cfg = SerDesConfig(ratio=ratio, latency_cycles=ratio)
    return link_latency(LinkParameters(serdes=cfg), 0.02)


class TestSerdesSweep:
    def test_monotone_latency_in_ratio(self):
        lat = [serialized_link(r).total_latency_cycles
               for r in (1, 2, 4, 8, 16)]
        assert lat == sorted(lat)

    def test_paper_8to1_amat_cost_is_small(self):
        """The architectural justification for 8:1: the AMAT penalty vs
        no serialization is a few percent, while the bump saving (Table
        II) is what makes the 0.82 mm die possible."""
        penalty = (tile_amat(serialized_link(8))
                   / tile_amat(serialized_link(1)) - 1.0)
        assert penalty < 0.10
