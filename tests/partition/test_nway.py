"""Property tests for N-way partitioning and pairwise link derivation.

These are the invariants the N-chiplet flow (GUIDE section 15) leans
on: ``nway_partition`` assigns every instance to exactly one part,
never cuts more than the recursive-bisection baseline it refines, and
is bit-stable across hash seeds; ``pairwise_cut_links`` decomposes the
cut into per-die-pair link counts that account for every cut net.
"""

import os
import subprocess
import sys

import pytest

from repro.arch.generate import (generate_monolithic_netlist,
                                 generate_tile_netlist)
from repro.partition.multiway import (multiway_cut_nets, nway_partition,
                                      pairwise_cut_links,
                                      recursive_bisection)


@pytest.fixture(scope="module")
def tile():
    return generate_tile_netlist(scale=0.015, seed=3)


@pytest.fixture(scope="module")
def system():
    return generate_monolithic_netlist(scale=0.012, seed=2023)


@pytest.fixture(scope="module")
def nway4(system):
    # One paper-shaped 4-way partition shared by the system-level tests.
    return nway_partition(system, 4, seed=7)


class TestNwayPartition:
    def test_every_instance_assigned_exactly_once(self, tile, system,
                                                  nway4):
        for netlist, result in ((tile, nway_partition(tile, 3, seed=7)),
                                (system, nway4)):
            assert set(result.assignment) == set(netlist.instances)
            total = sum(len(result.part(i)) for i in range(result.k))
            assert total == len(netlist.instances)

    def test_parts_nonempty(self, nway4):
        assert nway4.k == 4
        assert all(nway4.part(i) for i in range(4))

    def test_cut_no_worse_than_recursive_bisection(self, tile, system,
                                                   nway4):
        for k in (2, 3, 4):
            base = recursive_bisection(tile, k, seed=7)
            refined = nway_partition(tile, k, seed=7)
            assert refined.cut_size <= base.cut_size
        base = recursive_bisection(system, 4, seed=7)
        assert nway4.cut_size <= base.cut_size

    def test_cut_size_consistent_with_assignment(self, system, nway4):
        assert nway4.cut_nets == multiway_cut_nets(system,
                                                   nway4.assignment)

    def test_deterministic_in_process(self, tile):
        a = nway_partition(tile, 3, seed=7)
        b = nway_partition(tile, 3, seed=7)
        assert a.assignment == b.assignment
        assert a.cut_size == b.cut_size

    def test_bit_stable_across_hash_seeds(self):
        code = (
            "import hashlib\n"
            "from repro.arch.generate import generate_monolithic_netlist\n"
            "from repro.partition.multiway import nway_partition\n"
            "n = generate_monolithic_netlist(scale=0.012, seed=2023)\n"
            "r = nway_partition(n, 3, seed=7)\n"
            "digest = hashlib.sha256(\n"
            "    repr(sorted(r.assignment.items())).encode()).hexdigest()\n"
            "print(digest, r.cut_size)\n")
        outs = set()
        for hash_seed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "..",
                              "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, text=True,
                capture_output=True, check=True).stdout
            outs.add(out.strip())
        assert len(outs) == 1

    def test_validation(self, tile):
        with pytest.raises(ValueError):
            nway_partition(tile, 0)

    def test_part_count_shortfall_raises(self):
        # At seed 7, scale 0.005 a side runs out of instances before
        # its last split: the bisection used to return 62 parts for 64
        # without a word.
        small = generate_monolithic_netlist(scale=0.005, seed=7)
        for partition in (recursive_bisection, nway_partition):
            with pytest.raises(ValueError,
                               match="produced 62 parts of the 64 "
                                     "requested"):
                partition(small, 64)


class TestPairwiseCutLinks:
    def test_links_account_for_every_cut_net(self, system, nway4):
        links = pairwise_cut_links(system, nway4.assignment)
        spanning = 0
        for net in system.nets.values():
            endpoints = ([net.driver] if net.driver else []) + net.sinks
            parts = {nway4.assignment[e] for e in endpoints
                     if e in nway4.assignment}
            if len(parts) > 1:
                spanning += len(parts) - 1  # one star link per sink part
        assert sum(links.values()) == spanning

    def test_keys_are_ordered_pairs(self, nway4, system):
        links = pairwise_cut_links(system, nway4.assignment)
        assert links
        for (a, b), count in links.items():
            assert 0 <= a < b < 4
            assert count > 0

    def test_two_way_matches_cut_size(self, tile):
        result = nway_partition(tile, 2, seed=7)
        links = pairwise_cut_links(tile, result.assignment)
        assert sum(links.values()) >= result.cut_size
