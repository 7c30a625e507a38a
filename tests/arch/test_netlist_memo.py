"""Netlist memoization: cached masters must be isolated from callers.

Downstream passes (SerDes insertion, partition carving) mutate the
netlists they are handed.  The generator memo hands out clones, so those
mutations must never leak back into the cached master or into a sibling
caller's copy.
"""

from repro.arch.generate import (clear_netlist_memo,
                                 generate_chiplet_netlist,
                                 generate_tile_netlist)


class TestNetlistMemoIsolation:
    def setup_method(self):
        clear_netlist_memo()

    def teardown_method(self):
        clear_netlist_memo()

    def test_repeated_generation_identical(self):
        a = generate_chiplet_netlist("logic", scale=0.02, seed=7)
        b = generate_chiplet_netlist("logic", scale=0.02, seed=7)
        assert a is not b
        assert set(a.instances) == set(b.instances)
        assert set(a.nets) == set(b.nets)
        assert set(a.ports) == set(b.ports)
        for name, net in a.nets.items():
            twin = b.nets[name]
            assert net.driver == twin.driver
            assert net.sinks == twin.sinks
            assert net.is_clock == twin.is_clock

    def test_mutation_does_not_leak_to_next_clone(self):
        a = generate_chiplet_netlist("logic", scale=0.02, seed=7)
        some = next(iter(a.instances))
        a.add_instance("EXTRA_inst", a.instance(some).cell_name)
        a.add_net("EXTRA_net", some, ["EXTRA_inst"])
        assert "EXTRA_net" in a.nets_of(some)
        b = generate_chiplet_netlist("logic", scale=0.02, seed=7)
        assert "EXTRA_inst" not in b.instances
        assert "EXTRA_net" not in b.nets
        assert "EXTRA_net" not in b.nets_of(some)
        b.validate()

    def test_tile_netlist_clone_isolated(self):
        a = generate_tile_netlist(scale=0.02, seed=7)
        n_inst = len(a.instances)
        a.add_instance("EXTRA_inst", a.instance(
            next(iter(a.instances))).cell_name)
        b = generate_tile_netlist(scale=0.02, seed=7)
        assert len(b.instances) == n_inst

    def test_clone_shares_library(self):
        a = generate_chiplet_netlist("memory", scale=0.02, seed=7)
        b = generate_chiplet_netlist("memory", scale=0.02, seed=7)
        assert a.library is b.library
