"""Multi-way partitioning by recursive bisection.

The paper splits each tile two ways (logic/memory); finer chipletization
— its natural follow-on — needs k-way partitioning.  This module builds
k-way partitions by recursive FM bisection with area balancing, the
standard production approach (hMETIS-style without the multilevel
coarsening), and refines them pair by pair.

Both steps run on one :class:`~repro.partition.fm.Hypergraph` of the
netlist, built once.  Each bisection and pair sub-problem is carved out
of it as an instance mask (:func:`~repro.partition.fm.carve`), exactly
the instances, nets and pins ``Netlist.subset`` would keep, and every
candidate cut is counted with a vectorized part-span test
(:func:`~repro.partition.fm.cut_mask`), so the partitioner copies no
netlist and no assignment dict.  The results are byte-identical to the
original per-``subset`` implementation (the golden reference in
``tests/oracles/fm.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from ..arch.netlist import Netlist
from .fm import (Hypergraph, carve, cut_mask, cut_nets, hypergraph,
                 _best_of_starts, _refine)


@dataclass
class MultiwayResult:
    """A k-way partition of a netlist.

    Attributes:
        assignment: instance → part id in [0, k).
        k: Number of parts.
        cut_nets: Nets spanning more than one part.
    """

    assignment: Dict[str, int]
    k: int
    cut_nets: Set[str]

    @property
    def cut_size(self) -> int:
        """Number of nets spanning multiple parts."""
        return len(self.cut_nets)

    def part(self, index: int) -> List[str]:
        """Instance names assigned to one part."""
        return [n for n, p in self.assignment.items() if p == index]

    def part_areas(self, netlist: Netlist) -> List[float]:
        """Total cell area per part."""
        areas = [0.0] * self.k
        for name, p in self.assignment.items():
            areas[p] += netlist.cell(name).area_um2
        return areas


#: Nets whose pins span two or more parts (:func:`~repro.partition.fm.
#: cut_nets` counts parts, not sides).
multiway_cut_nets = cut_nets


def _bisect(graph: Hypergraph, k: int, balance_tolerance: float, seed: int,
            max_passes: int) -> np.ndarray:
    """Part id per instance after recursive bisection into ``k`` parts.

    Raises ``ValueError`` when a side runs out of instances before it
    is split into all the parts it should hold.
    """
    n = len(graph.area)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError("more parts than instances")
    part = np.zeros(n, dtype=np.int64)
    next_id = [1]

    def split(keep: np.ndarray, parts: int, part_id: int,
              depth: int) -> None:
        if parts <= 1 or len(keep) < 2:
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        _order, run = _best_of_starts(
            carve(graph, keep), balance_tolerance, max_passes,
            seed + 31 * depth + part_id, restarts=3)
        side0 = keep[run.side == 0]
        side1 = keep[run.side == 1]
        # Keep the larger side where more parts are needed.
        if (len(side1) > len(side0)) != (right_parts > left_parts):
            side0, side1 = side1, side0
        new_id = next_id[0]
        next_id[0] += 1
        part[side1] = new_id
        split(side0, left_parts, part_id, depth + 1)
        split(side1, right_parts, new_id, depth + 1)

    split(np.arange(n), k, 0, 0)
    produced = len(np.unique(part))
    if produced != k:
        raise ValueError(f"recursive bisection produced {produced} parts "
                         f"of the {k} requested: a side ran out of "
                         f"instances before its last split")
    return part


def _result(names: List[str], net_names: List[str], graph: Hypergraph,
            part: np.ndarray, k: int) -> MultiwayResult:
    """The result of a part id per instance, keyed in instance order."""
    cut = np.flatnonzero(cut_mask(graph, part)).tolist()
    return MultiwayResult(assignment=dict(zip(names, part.tolist())), k=k,
                          cut_nets={net_names[e] for e in cut})


def recursive_bisection(netlist: Netlist, k: int,
                        balance_tolerance: float = 0.35,
                        seed: int = 7,
                        max_passes: int = 5) -> MultiwayResult:
    """Partition a netlist into ``k`` parts by recursive FM bisection.

    Each bisection splits the target part count as evenly as possible
    and biases the area balance accordingly (a 3-way split first cuts
    1/3 vs 2/3).

    Args:
        netlist: The flat netlist.
        k: Number of parts (>= 1).
        balance_tolerance: Per-bisection area tolerance.
        seed: RNG seed.
        max_passes: FM passes per bisection.

    Returns:
        A :class:`MultiwayResult`; part ids are dense in [0, k).

    Raises:
        ValueError: ``k`` is out of range, or the bisection produced
            fewer than ``k`` non-empty parts (a side ran out of
            instances).
    """
    graph, names, net_names = hypergraph(netlist)
    part = _bisect(graph, k, balance_tolerance, seed, max_passes)
    return _result(names, net_names, graph, part, k)


def nway_partition(netlist: Netlist, k: int,
                   balance_tolerance: float = 0.35,
                   seed: int = 7,
                   max_passes: int = 5) -> MultiwayResult:
    """Direct N-way partitioning: recursive bisection plus pairwise FM.

    Starts from :func:`recursive_bisection` and then sweeps every part
    pair once, re-bipartitioning the pair's union with FM seeded from
    the current assignment; a pair move is accepted only when it
    strictly lowers the total multiway cut.  The result is therefore
    never worse than recursive bisection alone (the property the
    N-chiplet tests pin), and at ``k == 2`` the refinement degenerates
    to a single FM polish of the bisection.

    Pair order and all tie-breaks follow parent-netlist instance order,
    so the assignment is byte-stable under ``PYTHONHASHSEED``.

    Args:
        netlist: The flat netlist.
        k: Number of parts (>= 1).
        balance_tolerance: Area tolerance per bisection/refinement.
        seed: RNG seed (forwarded with deterministic per-stage offsets).
        max_passes: FM pass limit per bipartition.

    Returns:
        A :class:`MultiwayResult` with dense part ids in ``[0, k)``.

    Raises:
        ValueError: as :func:`recursive_bisection`.
    """
    graph, names, net_names = hypergraph(netlist)
    part = _bisect(graph, k, balance_tolerance, seed, max_passes)
    best_cut = int(cut_mask(graph, part).sum())
    for i in range(k):
        for j in range(i + 1, k):
            union = np.flatnonzero((part == i) | (part == j))
            side = (part[union] == j).astype(np.int8)
            if len(union) < 2 or side.all() or not side.any():
                continue
            refined = _refine(carve(graph, union), side,
                              balance_tolerance, max_passes)
            candidate = part.copy()
            candidate[union] = np.where(refined.side == 1, j, i)
            cand_cut = int(cut_mask(graph, candidate).sum())
            if cand_cut < best_cut:
                part = candidate
                best_cut = cand_cut
    return _result(names, net_names, graph, part, k)


def pairwise_cut_links(netlist: Netlist, assignment: Dict[str, int]
                       ) -> Dict[Tuple[int, int], int]:
    """Two-terminal link counts between every part pair.

    Each cut net is decomposed star-style from its source part (the
    driver's part, or the lowest sink part for input-driven nets) to
    every other part it reaches — the PlaceIT recipe for deriving an
    inter-chiplet topology from a partition.  The returned counts are
    what the interposer router consumes as per-pair net bundles.

    Args:
        netlist: The partitioned netlist.
        assignment: instance → part id.

    Returns:
        ``{(min_part, max_part): link_count}`` with positive counts
        only; iteration-order independent (plain dict keyed by pair).
    """
    counts: Dict[Tuple[int, int], int] = {}
    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        parts = sorted({assignment[e] for e in endpoints})
        if len(parts) < 2:
            continue
        src = assignment[net.driver] if net.driver else parts[0]
        for p in parts:
            if p == src:
                continue
            key = (min(src, p), max(src, p))
            counts[key] = counts.get(key, 0) + 1
    return counts
