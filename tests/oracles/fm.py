"""Dict-based golden reference for FM bipartitioning and N-way
partitioning.

The original implementation: gain buckets are insertion-ordered dicts,
each pass rebuilds a per-net ``[side 0, side 1]`` pin distribution, and
every bisection and pair refinement runs on its own ``Netlist.subset``
and copies the whole assignment dict.  Production
(:mod:`repro.partition.fm`, :mod:`repro.partition.multiway`) runs the
same search over integer arrays and must reproduce these results
exactly: the assignment (values and key order), the cut nets, the pass
count and the cut history.
"""

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.netlist import Netlist
from repro.partition.fm import PartitionResult
from repro.partition.multiway import MultiwayResult


def _net_distribution(netlist: Netlist,
                      assignment: Dict[str, int]) -> Dict[str, List[int]]:
    """For each net: [pins in partition 0, pins in partition 1]."""
    dist: Dict[str, List[int]] = {}
    for net in netlist.nets.values():
        counts = [0, 0]
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        for e in endpoints:
            counts[assignment[e]] += 1
        dist[net.name] = counts
    return dist


def cut_nets(netlist: Netlist, assignment: Dict[str, int]) -> Set[str]:
    """Nets with endpoints on both sides of the given assignment."""
    out: Set[str] = set()
    for net, (c0, c1) in _net_distribution(netlist, assignment).items():
        if c0 > 0 and c1 > 0:
            out.add(net)
    return out


def _areas(netlist: Netlist) -> Dict[str, float]:
    return {name: netlist.cell(name).area_um2 for name in netlist.instances}


class _GainBuckets:
    """FM gain-bucket structure with O(1) best-gain retrieval.

    Buckets are insertion-ordered (dicts used as ordered sets), so
    equal-gain ties break by insertion order and the whole partitioner
    is reproducible regardless of ``PYTHONHASHSEED``.
    """

    def __init__(self, max_gain: int):
        self.max_gain = max_gain
        self.buckets: List[List[Dict[str, None]]] = [
            [{} for _ in range(2 * max_gain + 1)] for _ in range(2)]
        self.gain_of: Dict[str, int] = {}
        self.best: List[int] = [-1, -1]

    def _slot(self, gain: int) -> int:
        return gain + self.max_gain

    def insert(self, name: str, part: int, gain: int) -> None:
        """Insert a cell at a gain into its side's buckets."""
        gain = max(-self.max_gain, min(self.max_gain, gain))
        self.gain_of[name] = gain
        slot = self._slot(gain)
        self.buckets[part][slot][name] = None
        if slot > self.best[part]:
            self.best[part] = slot

    def update(self, name: str, part: int, delta: int) -> None:
        """Shift a cell's gain by delta."""
        old = self.gain_of[name]
        new = max(-self.max_gain, min(self.max_gain, old + delta))
        if new == old:
            return
        self.buckets[part][self._slot(old)].pop(name, None)
        self.gain_of[name] = new
        slot = self._slot(new)
        self.buckets[part][slot][name] = None
        if slot > self.best[part]:
            self.best[part] = slot

    def pop_best(self, part: int) -> Optional[Tuple[str, int]]:
        """Pop the highest-gain unlocked cell of one side."""
        while self.best[part] >= 0 and not self.buckets[part][self.best[part]]:
            self.best[part] -= 1
        if self.best[part] < 0:
            return None
        slot = self.best[part]
        # LIFO tie-breaking (classic FM): most recently touched first.
        name = next(reversed(self.buckets[part][slot]))
        del self.buckets[part][slot][name]
        gain = self.gain_of.pop(name)
        return name, gain


def fm_bipartition(netlist: Netlist,
                   initial: Optional[Dict[str, int]] = None,
                   balance_tolerance: float = 0.45,
                   max_passes: int = 8,
                   seed: int = 7,
                   restarts: int = 3) -> PartitionResult:
    """Run FM bipartitioning to minimize cut nets.

    FM is a local-search heuristic, so (when no ``initial`` assignment is
    pinned) it runs from several random starts and keeps the best.

    Args:
        netlist: Flat netlist to partition.
        initial: Optional starting assignment; random balanced otherwise.
        balance_tolerance: Each side must hold within
            ``(0.5 ± tolerance)`` of the total cell area.  The paper's
            logic/memory split is area-asymmetric, so the default is loose.
        max_passes: FM pass limit (each pass tentatively moves every cell).
        seed: RNG seed for the random initial assignment.
        restarts: Random restarts (ignored when ``initial`` is given).

    Returns:
        The best assignment found; ``cut_history`` never increases.
    """
    if initial is None and restarts > 1:
        best: Optional[PartitionResult] = None
        for r in range(restarts):
            cand = fm_bipartition(netlist, initial=None,
                                  balance_tolerance=balance_tolerance,
                                  max_passes=max_passes,
                                  seed=seed + 7919 * r, restarts=1)
            if best is None or cand.cut_size < best.cut_size:
                best = cand
        return best
    names = list(netlist.instances)
    if len(names) < 2:
        raise ValueError("need at least two instances to bipartition")
    if not 0 < balance_tolerance < 0.5:
        raise ValueError("balance_tolerance must be in (0, 0.5)")
    rng = random.Random(seed)
    areas = _areas(netlist)
    total_area = sum(areas.values())
    lo = (0.5 - balance_tolerance) * total_area
    hi = (0.5 + balance_tolerance) * total_area

    if initial is None:
        assignment = {}
        shuffled = names[:]
        rng.shuffle(shuffled)
        acc = 0.0
        for name in shuffled:
            part = 0 if acc < total_area / 2 else 1
            assignment[name] = part
            if part == 0:
                acc += areas[name]
    else:
        assignment = dict(initial)
        missing = [n for n in names if n not in assignment]
        if missing:
            raise ValueError(f"initial assignment missing {len(missing)} "
                             f"instances, e.g. {missing[0]!r}")

    # Sorted so neighbour-update order (and hence tie-breaking) is
    # independent of set iteration order / PYTHONHASHSEED.
    nets_of = {n: sorted(netlist.nets_of(n)) for n in names}
    max_deg = max((len(v) for v in nets_of.values()), default=1)
    endpoints = {net.name: ([net.driver] if net.driver else []) + net.sinks
                 for net in netlist.nets.values()}

    history: List[int] = []
    best_assignment = dict(assignment)
    best_cut = len(cut_nets(netlist, assignment))
    passes_done = 0

    for _pass in range(max_passes):
        passes_done += 1
        dist = _net_distribution(netlist, assignment)
        part_area = [0.0, 0.0]
        for n in names:
            part_area[assignment[n]] += areas[n]

        buckets = _GainBuckets(max_deg)
        for n in names:
            buckets.insert(n, assignment[n], _gain(n, assignment, dist,
                                                   nets_of))
        locked: Set[str] = set()
        current = dict(assignment)
        cur_cut = len(cut_nets(netlist, current))
        best_in_pass = cur_cut
        best_moves: List[str] = []
        moves: List[str] = []

        while len(locked) < len(names):
            move = _select_move(buckets, part_area, areas, lo, hi)
            if move is None:
                break
            name, gain, src = move
            dst = 1 - src
            locked.add(name)
            moves.append(name)
            part_area[src] -= areas[name]
            part_area[dst] += areas[name]
            cur_cut -= gain
            # Incremental gain updates for neighbours on touched nets.
            for net_name in nets_of[name]:
                counts = dist[net_name]
                pins = endpoints[net_name]
                # Before the move.
                if counts[dst] == 0:
                    for other in pins:
                        if other not in locked:
                            buckets.update(other, current[other], +1)
                elif counts[dst] == 1:
                    for other in pins:
                        if other not in locked and current[other] == dst:
                            buckets.update(other, dst, -1)
                counts[src] -= 1
                counts[dst] += 1
                # After the move.
                if counts[src] == 0:
                    for other in pins:
                        if other not in locked:
                            buckets.update(other, current[other], -1)
                elif counts[src] == 1:
                    for other in pins:
                        if other not in locked and current[other] == src:
                            buckets.update(other, src, +1)
            current[name] = dst
            if cur_cut < best_in_pass:
                best_in_pass = cur_cut
                best_moves = moves[:]

        # Roll forward only the prefix of moves that reached the best cut.
        applied = set(best_moves)
        for name in applied:
            assignment[name] = 1 - assignment[name]
        pass_cut = len(cut_nets(netlist, assignment))
        history.append(pass_cut)
        if pass_cut < best_cut:
            best_cut = pass_cut
            best_assignment = dict(assignment)
        if not applied:
            break

    return PartitionResult(assignment=best_assignment,
                           cut_nets=cut_nets(netlist, best_assignment),
                           passes=passes_done, cut_history=history)


def _gain(name: str, assignment: Dict[str, int],
          dist: Dict[str, List[int]], nets_of: Dict[str, Set[str]]) -> int:
    """FM gain of moving one cell: cut nets removed minus created."""
    src = assignment[name]
    dst = 1 - src
    g = 0
    for net in nets_of[name]:
        counts = dist[net]
        if counts[dst] == 0:
            g -= 1
        if counts[src] == 1:
            g += 1
    return g


def _select_move(buckets: _GainBuckets, part_area: List[float],
                 areas: Dict[str, float], lo: float,
                 hi: float) -> Optional[Tuple[str, int, int]]:
    """Pick the highest-gain legal move from either side."""
    candidates = []
    for part in (0, 1):
        # Peek: pop then maybe push back.
        got = buckets.pop_best(part)
        if got is None:
            continue
        name, gain = got
        dst_area = part_area[1 - part] + areas[name]
        src_area = part_area[part] - areas[name]
        if dst_area <= hi and src_area >= lo:
            candidates.append((gain, name, part))
        else:
            buckets.insert(name, part, gain)
    if not candidates:
        return None
    candidates.sort(reverse=True)
    gain, name, part = candidates[0]
    # Push back the unused candidate.
    for g2, n2, p2 in candidates[1:]:
        buckets.insert(n2, p2, g2)
    return name, gain, part


def multiway_cut_nets(netlist: Netlist,
                      assignment: Dict[str, int]) -> Set[str]:
    """Nets whose pins span two or more parts."""
    out: Set[str] = set()
    for net in netlist.nets.values():
        endpoints = ([net.driver] if net.driver else []) + net.sinks
        parts = {assignment[e] for e in endpoints}
        if len(parts) > 1:
            out.add(net.name)
    return out


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
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(netlist.instances):
        raise ValueError("more parts than instances")

    assignment: Dict[str, int] = {n: 0 for n in netlist.instances}
    next_id = [1]

    def split(names: List[str], parts: int, part_id: int,
              depth: int) -> None:
        if parts <= 1 or len(names) < 2:
            return
        left_parts = parts // 2
        right_parts = parts - left_parts
        sub = netlist.subset(names, name=f"part{part_id}")
        result = fm_bipartition(sub,
                                balance_tolerance=balance_tolerance,
                                max_passes=max_passes,
                                seed=seed + 31 * depth + part_id)
        side0 = result.side(0)
        side1 = result.side(1)
        # Keep the larger side where more parts are needed.
        if (len(side1) > len(side0)) != (right_parts > left_parts):
            side0, side1 = side1, side0
        new_id = next_id[0]
        next_id[0] += 1
        for n in side1:
            assignment[n] = new_id
        split(side0, left_parts, part_id, depth + 1)
        split(side1, right_parts, new_id, depth + 1)

    split(list(netlist.instances), k, 0, 0)
    # Densify part ids.
    used = sorted({p for p in assignment.values()})
    remap = {old: new for new, old in enumerate(used)}
    assignment = {n: remap[p] for n, p in assignment.items()}
    return MultiwayResult(assignment=assignment, k=len(used),
                          cut_nets=multiway_cut_nets(netlist, assignment))


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
    """
    base = recursive_bisection(netlist, k,
                               balance_tolerance=balance_tolerance,
                               seed=seed, max_passes=max_passes)
    assignment = dict(base.assignment)
    best_cut = base.cut_size
    for i in range(base.k):
        for j in range(i + 1, base.k):
            union = [n for n in netlist.instances
                     if assignment[n] in (i, j)]
            if len(union) < 2:
                continue
            if not any(assignment[n] == i for n in union) or \
                    not any(assignment[n] == j for n in union):
                continue
            sub = netlist.subset(union, name=f"pair{i}_{j}")
            initial = {n: 0 if assignment[n] == i else 1 for n in union}
            refined = fm_bipartition(sub, initial=initial,
                                     balance_tolerance=balance_tolerance,
                                     max_passes=max_passes,
                                     seed=seed + 101 * i + j)
            candidate = dict(assignment)
            for n in union:
                candidate[n] = i if refined.assignment[n] == 0 else j
            cand_cut = len(multiway_cut_nets(netlist, candidate))
            if cand_cut < best_cut:
                assignment = candidate
                best_cut = cand_cut
    return MultiwayResult(assignment=assignment, k=base.k,
                          cut_nets=multiway_cut_nets(netlist, assignment))
