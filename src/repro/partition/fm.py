"""Fiduccia–Mattheyses min-cut bipartitioning.

The paper's flow (Fig. 4) has two chipletization branches: hierarchical
partitioning (used for the main results) and flattening partitioning.
This module implements the flattening branch: a gain-bucket FM
bipartitioner over the flat gate-level netlist, minimizing the number of
cut nets under an area-balance constraint.

On the OpenPiton tile the expected behaviour — asserted by tests — is that
FM rediscovers a cut close to the L3 interface, because the synthetic
netlist has the same locality structure as the real design.

FM runs on the netlist as integer arrays (:class:`Hypergraph`, built
once per netlist on :meth:`~repro.arch.netlist.Netlist.arrays`):
instance areas in instance order, each net's pins (driver, then sinks,
duplicates kept), and each instance's unique nets sorted by net name.
:mod:`repro.partition.multiway` carves its bisection and pair
sub-problems out of the same arrays (:func:`carve`).  The pass loop of
one start — gain buckets, move selection, incremental gain updates and
the roll-forward to the best prefix — runs in the compiled ``fm_run`` of
:mod:`repro._kernel`, or, without a C compiler, in
:func:`_passes_portable`, the same loop in Python over the same arrays.
Both reproduce the original dict-based implementation (kept as the
golden reference in ``tests/oracles/fm.py``) exactly, which rests on:

* each gain slot of each side is a doubly linked list with tail
  append, unlink and LIFO pop from the tail — the order of the
  insertion-ordered dict buckets (a gain update that the clamp to
  ``±max_deg`` leaves unchanged does not move the cell);
* a gain tie between the two sides' candidates breaks on the rank of
  the instance name, as ``candidates.sort(reverse=True)`` did on names;
* ``part_area`` is summed in instance order, and moves subtract and add
  the one cell area;
* ``total_area`` (Python's float ``sum``, compensated since 3.12),
  ``lo``, ``hi`` and the ``random.Random(seed).shuffle`` start are
  computed in Python and handed over, never re-summed; the kernel is
  compiled with ``-ffp-contract=off``.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .._kernel import load_kernel
from ..arch.netlist import Netlist

_LOG = logging.getLogger(__name__)

#: Passes per ``fm_run`` call (the size of its history buffer).
_CHUNK = 64


@dataclass
class PartitionResult:
    """Outcome of a bipartitioning run.

    Attributes:
        assignment: instance name → partition id (0 or 1).
        cut_nets: Names of nets with pins in both partitions.
        passes: Number of FM passes executed.
        cut_history: Cut size after each pass.
    """

    assignment: Dict[str, int]
    cut_nets: Set[str]
    passes: int
    cut_history: List[int] = field(default_factory=list)

    @property
    def cut_size(self) -> int:
        """Number of cut nets."""
        return len(self.cut_nets)

    def side(self, partition: int) -> List[str]:
        """Instance names in one partition."""
        return [n for n, p in self.assignment.items() if p == partition]


def cut_nets(netlist: Netlist, assignment: Dict[str, int]) -> Set[str]:
    """Nets whose pins lie in more than one part of the assignment
    (which must give every instance a part)."""
    part = np.fromiter(map(assignment.__getitem__, netlist.instances),
                       dtype=np.int64, count=len(netlist))
    names = list(netlist.nets)
    cut = cut_mask(netlist.arrays(), part)
    return {names[e] for e in np.flatnonzero(cut).tolist()}


class Hypergraph(NamedTuple):
    """A netlist's connectivity as CSR integer arrays, the form FM runs on.

    Instances are numbered ``0..n-1`` and nets ``0..m-1``.
    """

    #: float64 [n]: cell area per instance.
    area: np.ndarray
    #: int32 [n]: rank of the instance name among all names.
    rank: np.ndarray
    #: int64 [n + 1] / int32: each instance's unique nets, by net name.
    inst_ptr: np.ndarray
    inst_nets: np.ndarray
    #: int64 [m + 1] / int32: each net's pins, driver then sinks.
    pin_ptr: np.ndarray
    pins: np.ndarray


def hypergraph(netlist: Netlist) -> Tuple[Hypergraph, List[str],
                                          List[str]]:
    """The netlist as a :class:`Hypergraph`, with its instance and net
    names (the index order of the arrays).

    The pins and their offsets are those of
    :meth:`~repro.arch.netlist.Netlist.arrays`, shared read-only.
    """
    view = netlist.arrays()
    names, net_names = list(netlist.instances), list(netlist.nets)
    n, m = len(names), len(net_names)
    # Each instance's unique nets in net-name order: one sort of
    # (instance, net-name rank) keys over all pins.
    by_name = np.array(sorted(range(m), key=net_names.__getitem__),
                       dtype=np.int64)
    net_rank = np.empty(m, dtype=np.int64)
    net_rank[by_name] = np.arange(m)
    width = max(m, 1)
    keys = np.unique(view.pins.astype(np.int64) * width
                     + net_rank[view.pin_net])
    inst_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // width, minlength=n), out=inst_ptr[1:])
    rank = np.empty(n, dtype=np.int32)
    rank[sorted(range(n), key=names.__getitem__)] = np.arange(n)
    graph = Hypergraph(area=view.cell_attr("area_um2"), rank=rank,
                       inst_ptr=inst_ptr,
                       inst_nets=by_name[keys % width].astype(np.int32),
                       pin_ptr=view.pin_ptr, pins=view.pins)
    return graph, names, net_names


def carve(graph: Hypergraph, keep: np.ndarray) -> Hypergraph:
    """The sub-problem ``Netlist.subset`` would hand FM, as arrays.

    ``keep`` lists instance indices in ascending (parent) order.  The
    sub-problem keeps them in that order, keeps every net with a kept
    pin (in parent order), cut down to its kept pins, and keeps each
    kept instance's nets in net-name order.
    """
    local = np.full(len(graph.area), -1, dtype=np.int32)
    local[keep] = np.arange(len(keep), dtype=np.int32)
    pin_local = local[graph.pins]
    kept = pin_local >= 0
    before = np.zeros(len(kept) + 1, dtype=np.int64)
    np.cumsum(kept, out=before[1:])
    per_net = before[graph.pin_ptr[1:]] - before[graph.pin_ptr[:-1]]
    live = per_net > 0
    net_id = (np.cumsum(live) - 1).astype(np.int32)
    pin_ptr = np.zeros(int(live.sum()) + 1, dtype=np.int64)
    np.cumsum(per_net[live], out=pin_ptr[1:])
    starts = graph.inst_ptr[keep]
    degree = graph.inst_ptr[keep + 1] - starts
    inst_ptr = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(degree, out=inst_ptr[1:])
    rows = np.repeat(starts - inst_ptr[:-1], degree) + np.arange(inst_ptr[-1])
    return Hypergraph(area=graph.area[keep], rank=graph.rank[keep],
                      inst_ptr=inst_ptr,
                      inst_nets=net_id[graph.inst_nets[rows]],
                      pin_ptr=pin_ptr, pins=pin_local[kept])


def cut_mask(graph: Hypergraph, part: np.ndarray) -> np.ndarray:
    """Per net, whether its pins span more than one part of ``part``
    (a part id per instance).  Only ``graph.pin_ptr`` and
    ``graph.pins`` are read, so a netlist's ``arrays()`` serves too."""
    sizes = np.diff(graph.pin_ptr)
    live = sizes > 0
    cut = np.zeros(len(sizes), dtype=bool)
    if live.any():
        at = part[graph.pins]
        starts = graph.pin_ptr[:-1][live]
        cut[live] = (np.maximum.reduceat(at, starts)
                     != np.minimum.reduceat(at, starts))
    return cut


class _Start(NamedTuple):
    """The passes of one FM start."""

    side: np.ndarray      # int8 [n]: best assignment seen
    cut: int              # its cut
    history: List[int]    # cut after each pass


def _balance(graph: Hypergraph,
             balance_tolerance: float) -> Tuple[float, float, float]:
    """``(total_area, lo, hi)`` of a sub-problem, after the size and
    tolerance checks."""
    if len(graph.area) < 2:
        raise ValueError("need at least two instances to bipartition")
    if not 0 < balance_tolerance < 0.5:
        raise ValueError("balance_tolerance must be in (0, 0.5)")
    total_area = sum(graph.area.tolist())
    return (total_area, (0.5 - balance_tolerance) * total_area,
            (0.5 + balance_tolerance) * total_area)


def _random_start(area: np.ndarray, total_area: float,
                  seed: int) -> Tuple[List[int], np.ndarray]:
    """The shuffled instance order and the start it fills: part 0 takes
    instances in that order until its area reaches half the total."""
    order = list(range(len(area)))
    random.Random(seed).shuffle(order)
    # Part 0's running area before each instance; once it reaches half
    # the total it stops growing, so every later instance is part 1.
    before = np.concatenate(([0.0], np.cumsum(area[order])[:-1]))
    full = np.logical_or.accumulate(~(before < total_area / 2))
    side = np.empty(len(area), dtype=np.int8)
    side[order] = full
    return order, side


def _best_of_starts(graph: Hypergraph, balance_tolerance: float,
                    max_passes: int, seed: int,
                    restarts: int) -> Tuple[List[int], _Start]:
    """FM from ``restarts`` random starts (seeds ``seed + 7919 r``; one
    start at ``seed`` when ``restarts <= 1``); the first start with the
    fewest cut nets, with its shuffled instance order."""
    total_area, lo, hi = _balance(graph, balance_tolerance)
    best: Optional[Tuple[List[int], _Start]] = None
    for r in range(max(restarts, 1)):
        order, side = _random_start(graph.area, total_area,
                                    seed + 7919 * r)
        run = _run_passes(graph, side, lo, hi, max_passes)
        if best is None or run.cut < best[1].cut:
            best = (order, run)
    return best


def _refine(graph: Hypergraph, side: np.ndarray, balance_tolerance: float,
            max_passes: int) -> _Start:
    """FM from a given 0/1 start."""
    _total, lo, hi = _balance(graph, balance_tolerance)
    return _run_passes(graph, side, lo, hi, max_passes)


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
        initial: Optional starting assignment (0 or 1 for every
            instance); random balanced otherwise.
        balance_tolerance: Each side must hold within
            ``(0.5 ± tolerance)`` of the total cell area.  The paper's
            logic/memory split is area-asymmetric, so the default is loose.
        max_passes: FM pass limit (each pass tentatively moves every cell).
        seed: RNG seed for the random initial assignment.
        restarts: Random restarts (ignored when ``initial`` is given).

    Returns:
        The best assignment found, keyed in the start's order (the
        shuffled instance order of a random start, ``initial``'s order
        otherwise).
    """
    graph, names, net_names = hypergraph(netlist)
    if initial is None:
        order, run = _best_of_starts(graph, balance_tolerance, max_passes,
                                     seed, restarts)
        best = run.side.tolist()
        assignment = {names[i]: best[i] for i in order}
    else:
        _total, lo, hi = _balance(graph, balance_tolerance)
        missing = [n for n in names if n not in initial]
        if missing:
            raise ValueError(f"initial assignment missing {len(missing)} "
                             f"instances, e.g. {missing[0]!r}")
        values = [initial[n] for n in names]
        for name, value in zip(names, values):
            if value not in (0, 1):
                raise ValueError(f"initial assignment must be 0 or 1, got "
                                 f"{value!r} for {name!r}")
        run = _run_passes(graph, np.array(values, dtype=np.int8), lo, hi,
                          max_passes)
        assignment = dict(initial)
        assignment.update(zip(names, run.side.tolist()))
    cut = cut_mask(graph, run.side)
    return PartitionResult(
        assignment=assignment,
        cut_nets={net_names[e] for e in np.flatnonzero(cut).tolist()},
        passes=len(run.history), cut_history=run.history)


# ---------------------------------------------------------------------- #
# The pass loop: compiled, or portable.
# ---------------------------------------------------------------------- #

_alloc_failure_logged = False


def _max_deg(graph: Hypergraph) -> int:
    return int(np.diff(graph.inst_ptr).max())


def _run_passes(graph: Hypergraph, side: np.ndarray, lo: float, hi: float,
                max_passes: int) -> _Start:
    """Up to ``max_passes`` FM passes from the 0/1 start ``side``, on
    the compiled kernel when it loads, else on the portable pass."""
    kernel = load_kernel()
    if kernel is not None:
        run = _passes_compiled(kernel, graph, side, lo, hi, max_passes)
        if run is not None:
            return run
    return _passes_portable(graph, side, lo, hi, max_passes)


def _passes_compiled(kernel, graph: Hypergraph, side: np.ndarray,
                     lo: float, hi: float,
                     max_passes: int) -> Optional[_Start]:
    """The passes on ``fm_run``, :data:`_CHUNK` at a time; ``None`` if
    the kernel could not allocate its scratch memory."""
    global _alloc_failure_logged
    g = graph
    current = np.array(side, dtype=np.int8)
    best = np.empty_like(current)
    chunk = np.empty(_CHUNK, dtype=np.int64)
    out = np.array([0, -1, 0], dtype=np.int64)
    history: List[int] = []
    left = max_passes
    while True:
        status = kernel.fm(
            len(g.area), len(g.pin_ptr) - 1,
            g.area.ctypes.data, g.rank.ctypes.data,
            g.inst_ptr.ctypes.data, g.inst_nets.ctypes.data,
            g.pin_ptr.ctypes.data, g.pins.ctypes.data,
            _max_deg(g), lo, hi, min(max(left, 0), _CHUNK),
            current.ctypes.data, best.ctypes.data, chunk.ctypes.data,
            out.ctypes.data)
        if status != 0:
            if not _alloc_failure_logged:
                _alloc_failure_logged = True
                _LOG.warning("compiled FM failed (code %d); running the "
                             "portable pass", status)
            return None
        history.extend(chunk[:out[0]].tolist())
        left -= int(out[0])
        if out[2] or left <= 0:
            return _Start(side=best, cut=int(out[1]), history=history)


def _passes_portable(graph: Hypergraph, side: np.ndarray, lo: float,
                     hi: float, max_passes: int) -> _Start:
    """The pass loop of ``fm_run`` in Python, statement for statement."""
    n = len(graph.area)
    area = graph.area.tolist()
    rank = graph.rank.tolist()
    inst_ptr = graph.inst_ptr.tolist()
    inst_nets = graph.inst_nets.tolist()
    nets_of = [inst_nets[inst_ptr[i]:inst_ptr[i + 1]] for i in range(n)]
    pin_ptr = graph.pin_ptr.tolist()
    flat = graph.pins.tolist()
    pins_of = [flat[pin_ptr[e]:pin_ptr[e + 1]]
               for e in range(len(pin_ptr) - 1)]
    max_deg = _max_deg(graph)
    nslot = 2 * max_deg + 1
    side = side.tolist()

    def count() -> Tuple[List[List[int]], int]:
        """Pins of every net per side, and the cut."""
        cnt = []
        cut = 0
        for pins in pins_of:
            c = [0, 0]
            for u in pins:
                c[side[u]] += 1
            cnt.append(c)
            if c[0] > 0 and c[1] > 0:
                cut += 1
        return cnt, cut

    best_side = side[:]
    best_cut = count()[1]
    history: List[int] = []
    for _pass in range(max_passes):
        cnt, cur_cut = count()
        part_area = [0.0, 0.0]
        for i in range(n):
            part_area[side[i]] += area[i]
        # Gain slots: doubly linked lists, side-major; see fm_run.
        head = [-1] * (2 * nslot)
        tail = [-1] * (2 * nslot)
        nxt = [-1] * n
        prv = [-1] * n
        gain = [0] * n
        best = [-1, -1]

        def append(u: int, p: int, slot: int) -> None:
            k = p * nslot + slot
            prv[u] = tail[k]
            nxt[u] = -1
            if tail[k] >= 0:
                nxt[tail[k]] = u
            else:
                head[k] = u
            tail[k] = u
            if slot > best[p]:
                best[p] = slot

        def unlink(u: int, p: int, slot: int) -> None:
            k = p * nslot + slot
            if prv[u] >= 0:
                nxt[prv[u]] = nxt[u]
            else:
                head[k] = nxt[u]
            if nxt[u] >= 0:
                prv[nxt[u]] = prv[u]
            else:
                tail[k] = prv[u]

        def insert(u: int, p: int, g: int) -> None:
            g = max(-max_deg, min(max_deg, g))
            gain[u] = g
            append(u, p, g + max_deg)

        def update(u: int, p: int, delta: int) -> None:
            old = gain[u]
            g = max(-max_deg, min(max_deg, old + delta))
            if g != old:
                unlink(u, p, old + max_deg)
                gain[u] = g
                append(u, p, g + max_deg)

        def pop_best(p: int) -> int:
            while best[p] >= 0 and tail[p * nslot + best[p]] < 0:
                best[p] -= 1
            if best[p] < 0:
                return -1
            u = tail[p * nslot + best[p]]
            unlink(u, p, best[p])
            return u

        for i in range(n):
            s = side[i]
            g = 0
            for e in nets_of[i]:
                c = cnt[e]
                if c[1 - s] == 0:
                    g -= 1
                if c[s] == 1:
                    g += 1
            insert(i, s, g)
        locked = [False] * n
        cur = side[:]
        nlocked = 0
        moves: List[int] = []
        best_len = 0
        best_in_pass = cur_cut

        while nlocked < n:
            cands = []
            for q in (0, 1):
                u = pop_best(q)
                if u < 0:
                    continue
                if (part_area[1 - q] + area[u] <= hi
                        and part_area[q] - area[u] >= lo):
                    cands.append((gain[u], rank[u], q, u))
                else:
                    insert(u, q, gain[u])
            if not cands:
                break
            cands.sort(reverse=True)
            for g2, _r2, q2, u2 in cands[1:]:
                insert(u2, q2, g2)
            g, _r, src, v = cands[0]
            dst = 1 - src
            locked[v] = True
            nlocked += 1
            moves.append(v)
            part_area[src] -= area[v]
            part_area[dst] += area[v]
            cur_cut -= g
            for e in nets_of[v]:
                c = cnt[e]
                pins = pins_of[e]
                if c[dst] == 0:
                    for u in pins:
                        if not locked[u]:
                            update(u, cur[u], +1)
                elif c[dst] == 1:
                    for u in pins:
                        if not locked[u] and cur[u] == dst:
                            update(u, dst, -1)
                c[src] -= 1
                c[dst] += 1
                if c[src] == 0:
                    for u in pins:
                        if not locked[u]:
                            update(u, cur[u], -1)
                elif c[src] == 1:
                    for u in pins:
                        if not locked[u] and cur[u] == src:
                            update(u, src, +1)
            cur[v] = dst
            if cur_cut < best_in_pass:
                best_in_pass = cur_cut
                best_len = len(moves)

        # Roll forward the prefix of moves that reached the best cut.
        for v in moves[:best_len]:
            side[v] ^= 1
        pass_cut = count()[1]
        history.append(pass_cut)
        if pass_cut < best_cut:
            best_cut = pass_cut
            best_side = side[:]
        if not best_len:
            break
    return _Start(side=np.array(best_side, dtype=np.int8), cut=best_cut,
                  history=history)
