"""Unit tests for hierarchical chipletization."""

from repro.partition.fm import fm_bipartition
from repro.partition.hierarchical import (chipletize, compare_with_fm,
                                          hierarchical_assignment,
                                          module_of)


class TestModuleOf:
    def test_tile_prefixed(self):
        assert module_of("tile0/l3_data") == "l3_data"
        assert module_of("tile1/core") == "core"

    def test_plain_path(self):
        assert module_of("serdes/dff_0") == "serdes"


class TestChipletize:
    def test_split_is_partition(self, tile_netlist):
        ch = chipletize(tile_netlist)
        assert len(ch.logic) + len(ch.memory) == len(tile_netlist)

    def test_l3_lands_in_memory(self, tile_netlist):
        ch = chipletize(tile_netlist)
        mem_paths = {tile_netlist.instance(n).module_path
                     for n in ch.memory.instances}
        assert all("l3" in p for p in mem_paths)

    def test_cut_includes_l3_interface(self, tile_netlist):
        ch = chipletize(tile_netlist)
        bus_nets = {n for n in ch.cut if n.startswith("l3_")}
        # All 231 L3 interface bits cross the boundary.
        assert len(bus_nets) == 231

    def test_cut_size_close_to_interface(self, tile_netlist):
        ch = chipletize(tile_netlist)
        # Interface (231) plus some cross-module glue nets.
        assert 231 <= ch.cut_size <= 231 + 200

    def test_subnetlists_validate(self, tile_netlist):
        ch = chipletize(tile_netlist)
        ch.logic.validate()
        ch.memory.validate()

    def test_assignment_labels(self, tile_netlist):
        assignment = hierarchical_assignment(tile_netlist)
        assert set(assignment.values()) == {0, 1}


class TestCompareWithFm:
    def test_agreement_high_on_tile(self, tile_netlist):
        fm = fm_bipartition(tile_netlist, max_passes=3, seed=1)
        stats = compare_with_fm(tile_netlist, fm)
        # Both partitioners should broadly agree on the natural split.
        assert stats["agreement"] > 0.6
        assert stats["hierarchical_cut"] >= 231

    def test_keys_present(self, tile_netlist):
        fm = fm_bipartition(tile_netlist, max_passes=1, seed=1)
        stats = compare_with_fm(tile_netlist, fm)
        assert {"hierarchical_cut", "fm_cut", "agreement"} <= set(stats)
