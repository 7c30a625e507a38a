"""Global-route tests: HPWL correctness, extraction, congestion detour."""

import numpy as np
import pytest

from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import place
from repro.chiplet.route import WIRE_CAP_FF_PER_UM, global_route


@pytest.fixture(scope="module")
def routed(memory_netlist):
    fp = floorplan(memory_netlist, 800, 800)
    pl = place(memory_netlist, fp)
    return pl, global_route(pl)


class TestHpwl:
    def test_hpwl_matches_bruteforce(self, routed):
        pl, rt = routed
        netlist = pl.netlist
        rng = np.random.default_rng(0)
        names = list(netlist.nets)
        for name in rng.choice(names, size=25, replace=False):
            net = netlist.net(name)
            pins = ([net.driver] if net.driver else []) + net.sinks
            if len(pins) < 2:
                continue
            xs = [pl.position(p)[0] for p in pins]
            ys = [pl.position(p)[1] for p in pins]
            expected = (max(xs) - min(xs)) + (max(ys) - min(ys))
            idx = rt.net_names.index(name)
            assert rt.hpwl_um[idx] == pytest.approx(expected, rel=1e-9)

    def test_routed_length_at_least_hpwl(self, routed):
        _, rt = routed
        assert (rt.length_um >= rt.hpwl_um - 1e-9).all()

    def test_port_nets_have_zero_hpwl(self, routed):
        pl, rt = routed
        for name, port in pl.netlist.ports.items():
            net = pl.netlist.net(port.net)
            if net.degree() < 2:
                idx = rt.net_names.index(port.net)
                assert rt.hpwl_um[idx] == 0.0


class TestExtraction:
    def test_wire_cap_proportional_to_length(self, routed):
        _, rt = routed
        assert np.allclose(rt.wire_cap_ff,
                           rt.length_um * WIRE_CAP_FF_PER_UM)

    def test_pin_cap_sums_sink_caps(self, routed):
        pl, rt = routed
        netlist = pl.netlist
        name = rt.net_names[5]
        net = netlist.net(name)
        expected = sum(netlist.cell(s).input_cap_ff for s in net.sinks)
        assert rt.pin_cap_ff[5] == pytest.approx(expected)

    def test_totals_consistent(self, routed):
        _, rt = routed
        assert rt.total_wirelength_m() == pytest.approx(
            rt.length_um.sum() * 1e-6)
        assert rt.total_wire_cap_pf() == pytest.approx(
            rt.wire_cap_ff.sum() * 1e-3)

    def test_net_accessor(self, routed):
        _, rt = routed
        net = rt.net(rt.net_names[3])
        assert net.length_um >= net.hpwl_um - 1e-9


class TestCongestion:
    def test_detour_at_least_one(self, routed):
        _, rt = routed
        assert rt.detour_factor >= 1.0

    def test_utilization_positive(self, routed):
        _, rt = routed
        assert rt.track_utilization > 0

    def test_smaller_die_more_congested(self, memory_netlist):
        """The Table III mechanism: same netlist, tighter die, more
        routing detour."""
        small_fp = floorplan(memory_netlist, 400, 400)
        big_fp = floorplan(memory_netlist, 900, 900)
        small = global_route(place(memory_netlist, small_fp))
        big = global_route(place(memory_netlist, big_fp))
        assert small.track_utilization > big.track_utilization
        assert small.detour_factor > big.detour_factor
