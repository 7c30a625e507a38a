"""Unit + property tests for the synthetic netlist generator."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.generate import (generate_chiplet_netlist,
                                 generate_monolithic_netlist,
                                 generate_tile_netlist)
from repro.tech.stdcell import CellKind


def comb_is_acyclic(netlist):
    """Kahn check over combinational-only edges (SRAM/flops bound)."""
    seq_kinds = (CellKind.SEQUENTIAL, CellKind.SRAM_MACRO)
    comb = {n for n in netlist.instances
            if netlist.cell(n).kind not in seq_kinds}
    adj = {n: [] for n in comb}
    indeg = {n: 0 for n in comb}
    for net in netlist.nets.values():
        if net.is_clock or net.driver not in comb:
            continue
        for s in net.sinks:
            if s in comb:
                adj[net.driver].append(s)
                indeg[s] += 1
    q = deque(n for n in comb if indeg[n] == 0)
    seen = 0
    while q:
        u = q.popleft()
        seen += 1
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                q.append(v)
    return seen == len(comb)


class TestDeterminism:
    def test_same_seed_same_netlist(self):
        a = generate_chiplet_netlist("memory", scale=0.02, seed=3)
        b = generate_chiplet_netlist("memory", scale=0.02, seed=3)
        assert list(a.instances) == list(b.instances)
        assert [(n.driver, tuple(n.sinks)) for n in a.nets.values()] == \
            [(n.driver, tuple(n.sinks)) for n in b.nets.values()]

    def test_different_seed_different_netlist(self):
        a = generate_chiplet_netlist("memory", scale=0.02, seed=3)
        b = generate_chiplet_netlist("memory", scale=0.02, seed=4)
        sa = [tuple(n.sinks) for n in a.nets.values()]
        sb = [tuple(n.sinks) for n in b.nets.values()]
        assert sa != sb

    def test_tiles_share_structure_by_seed(self):
        a = generate_chiplet_netlist("logic", tile=0, scale=0.01, seed=5)
        b = generate_chiplet_netlist("logic", tile=0, scale=0.01, seed=5)
        assert len(a) == len(b)


class TestStructure:
    def test_logic_chiplet_acyclic(self, logic_netlist):
        assert comb_is_acyclic(logic_netlist)

    def test_memory_chiplet_acyclic(self, memory_netlist):
        assert comb_is_acyclic(memory_netlist)

    def test_tile_acyclic(self, tile_netlist):
        assert comb_is_acyclic(tile_netlist)

    def test_monolithic_acyclic(self, mono_netlist):
        assert comb_is_acyclic(mono_netlist)

    def test_logic_ports_match_table2(self, logic_netlist):
        # 404 raw inter-tile + 231 intra-tile bus bits as ports.
        assert len(logic_netlist.ports) == 404 + 231

    def test_memory_ports_match_table2(self, memory_netlist):
        assert len(memory_netlist.ports) == 231

    def test_clock_nets_cover_boundaries(self, memory_netlist):
        clock_sinks = set()
        for net in memory_netlist.nets.values():
            if net.is_clock:
                clock_sinks |= set(net.sinks)
        seq_kinds = (CellKind.SEQUENTIAL, CellKind.SRAM_MACRO)
        boundaries = {n for n in memory_netlist.instances
                      if memory_netlist.cell(n).kind in seq_kinds}
        assert boundaries <= clock_sinks

    def test_scale_controls_size(self):
        small = generate_chiplet_netlist("memory", scale=0.01, seed=1)
        big = generate_chiplet_netlist("memory", scale=0.05, seed=1)
        assert 3 * len(small) < len(big)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_chiplet_netlist("memory", scale=0.0)
        with pytest.raises(ValueError):
            generate_chiplet_netlist("memory", scale=1.5)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="logic"):
            generate_chiplet_netlist("dram", scale=0.01)

    def test_memory_is_sram_dominated(self, memory_netlist):
        kinds = [memory_netlist.cell(n).kind
                 for n in memory_netlist.instances]
        frac = kinds.count(CellKind.SRAM_MACRO) / len(kinds)
        assert frac > 0.5

    def test_logic_is_comb_dominated(self, logic_netlist):
        kinds = [logic_netlist.cell(n).kind
                 for n in logic_netlist.instances]
        frac = kinds.count(CellKind.COMBINATIONAL) / len(kinds)
        assert frac > 0.4


class TestMonolithic:
    def test_contains_both_tiles(self, mono_netlist):
        paths = mono_netlist.module_paths()
        assert any(p.startswith("tile0/") for p in paths)
        assert any(p.startswith("tile1/") for p in paths)

    def test_no_ports(self, mono_netlist):
        # Fully internal: L3 and NoC buses are internal nets.
        assert len(mono_netlist.ports) == 0

    def test_inter_tile_nets_exist(self, mono_netlist):
        noc_nets = [n for n in mono_netlist.nets if "noc1_out" in n]
        assert len(noc_nets) == 64

    def test_rejects_zero_tiles(self):
        with pytest.raises(ValueError):
            generate_monolithic_netlist(num_tiles=0, scale=0.01)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_netlists_always_validate(seed):
    nl = generate_chiplet_netlist("memory", scale=0.005, seed=seed)
    nl.validate()
    assert comb_is_acyclic(nl)


@settings(max_examples=6, deadline=None)
@given(scale=st.floats(min_value=0.003, max_value=0.05))
def test_tile_netlist_size_tracks_scale(scale):
    nl = generate_tile_netlist(scale=scale, seed=9)
    expected = 203_000 * scale
    assert 0.5 * expected < len(nl) < 2.0 * expected + 600
