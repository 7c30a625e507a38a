"""Synthetic gate-level netlist generation.

Substitute for proprietary RTL synthesis (Synopsys/Cadence on TSMC 28nm):
given the per-module statistics in :mod:`repro.arch.modules`, produce a
deterministic, seeded gate-level :class:`~repro.arch.netlist.Netlist` whose
cell counts, cell mix, hierarchy labels, connectivity locality, logic
depth, and bus interfaces match the paper's synthesized chiplets.

Two structural properties are guaranteed by construction, because the
physical-design engines downstream rely on them:

* **Acyclic combinational logic.**  Every combinational cell carries an
  implicit pipeline level ``l = index mod depth``; nets only run from
  level ``l`` to ``l+1``, and stage boundaries go through flip-flops.
  Static timing analysis therefore sees a DAG with bounded depth, exactly
  like a synthesized pipelined design.
* **Spatial locality.**  Net endpoints are close in *generation index*,
  and the placer lays instances out in index order along a space-filling
  curve — so most nets are short, reproducing the wirelength scale of a
  real placed design (Rent's-rule-like locality).
"""

from __future__ import annotations

import bisect
import random
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..tech.stdcell import CellLibrary, N28_LIB
from .modules import (BusSpec, CellMix, INTER_TILE_BUSES, INTRA_TILE_BUSES,
                      LOGIC_CHIPLET, MEMORY_CHIPLET, ModuleSpec,
                      TILE_MODULES, modules_for_chiplet)
from .netlist import Netlist, PortDirection

#: Cell-name pools per family with relative weights, approximating a
#: synthesized 28nm mix.
_COMB_POOL = [("INV_X1", 22), ("INV_X2", 9), ("INV_X4", 4),
              ("NAND2_X1", 24), ("NAND2_X2", 8), ("NOR2_X1", 12),
              ("AOI22_X1", 9), ("XOR2_X1", 5), ("MUX2_X1", 5), ("FA_X1", 2)]
_SEQ_POOL = [("DFF_X1", 70), ("DFF_X2", 18), ("SDFF_X1", 12)]
_BUF_POOL = [("BUF_X4", 55), ("BUF_X8", 30), ("CLKBUF_X8", 15)]
_SRAM_POOL = [("SRAM_SLICE_64b", 90), ("SRAM_SLICE_32b", 10)]

#: Pipeline depth (combinational levels between flops) per module family.
#: Calibrated so chiplets close timing near the paper's 700 MHz target.
LOGIC_DEPTH = 18
SRAM_DEPTH = 6  # SRAM read paths are shallow but have slow macros

#: Fanout distribution: geometric-ish tail typical of synthesized logic.
#: Mean ~1.9 sinks/net, calibrated against Table III pin capacitance.
_FANOUT_WEIGHTS = [(1, 55), (2, 25), (3, 10), (4, 5), (5, 3), (8, 1),
                   (16, 1)]

#: Distribution of the *stride* (in units of the pipeline depth) between a
#: driver and its sinks; small strides dominate, giving spatial locality.
#: Calibrated against Table III routed wirelength.
_STRIDE_WEIGHTS = [(0, 55), (1, 24), (2, 10), (3, 5), (5, 3), (9, 2),
                   (16, 1)]


def _weighted(pool: Sequence, rng: random.Random, count: int) -> List[str]:
    names = [name for name, _ in pool]
    weights = [w for _, w in pool]
    return rng.choices(names, weights=weights, k=count)


class _WeightedPicker:
    """Stream-exact fast path for ``rng.choices(pop, weights=w, k=1)[0]``.

    ``random.choices`` rebuilds the cumulative-weight table and runs its
    argument checks on every call, which dominates the netlist
    generator's inner loop.  This precomputes the table once and then
    replicates CPython's draw exactly — one ``rng.random()`` consumed per
    pick, same bisect over the same cumulative weights — so the generated
    netlists are bit-identical to the ``choices`` version.
    """

    def __init__(self, pool: Sequence[Tuple[object, int]]):
        self.population = [item for item, _ in pool]
        cum: List[int] = []
        running = 0
        for _, w in pool:
            running += w
            cum.append(running)
        self.cum_weights = cum
        self.total = cum[-1] + 0.0  # matches CPython's float promotion
        self.hi = len(self.population) - 1

    def pick(self, rng: random.Random):
        return self.population[bisect.bisect(
            self.cum_weights, rng.random() * self.total, 0, self.hi)]


_FANOUT_PICKER = _WeightedPicker(_FANOUT_WEIGHTS)
_STRIDE_PICKER = _WeightedPicker(_STRIDE_WEIGHTS)


def _family_counts(mix: CellMix, total: int) -> Dict[str, int]:
    """Integer instance counts per family, preserving the total exactly."""
    raw = {"comb": mix.comb * total, "seq": mix.seq * total,
           "buf": mix.buf * total, "sram": mix.sram * total}
    counts = {k: int(v) for k, v in raw.items()}
    remainder = total - sum(counts.values())
    order = sorted(raw, key=lambda k: raw[k] - counts[k], reverse=True)
    for k in order[:remainder]:
        counts[k] += 1
    return counts


class ModuleCells:
    """Index-ordered cells of one generated module, grouped by role.

    Attributes:
        all_names: Every instance, in generation-index order (the order
            the placer uses).
        flops: Sequential instances.
        srams: SRAM macro slices.  Compiled SRAMs are synchronous, so the
            generator (and the STA engine) treat them as stage boundaries
            like flops — a path never chains two SRAM accesses
            combinationally.
        level_of: Combinational pipeline level per comb/buf instance.
        depth: Pipeline depth used.
    """

    def __init__(self, depth: int):
        self.all_names: List[str] = []
        self.flops: List[str] = []
        self.srams: List[str] = []
        self._boundaries: List[str] = []
        self.level_of: Dict[str, int] = {}
        self.depth = depth

    def boundaries(self) -> List[str]:
        """Sequential stage boundaries (flops + SRAM slices), in
        generation-index order — the order that preserves placement
        locality when mapping combinational indices onto boundaries."""
        return self._boundaries


def generate_module(netlist: Netlist, spec: ModuleSpec, module_path: str,
                    rng: random.Random, scale: float = 1.0) -> ModuleCells:
    """Populate ``netlist`` with one module's instances and internal nets.

    Combinational cells are interleaved with flops in index order; the
    pipeline level of a combinational cell is its comb-index modulo the
    module's depth, so a chain of +1-level hops walks through spatially
    adjacent cells.

    Args:
        netlist: Target netlist (mutated in place).
        spec: Module statistics.
        module_path: Hierarchy label, e.g. ``"tile0/core"``.
        rng: Seeded random source (determinism contract).
        scale: Fraction of the full instance count to generate.

    Returns:
        Bookkeeping needed to wire module boundaries.
    """
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    depth = SRAM_DEPTH if spec.mix.sram > 0.5 else LOGIC_DEPTH
    total = max(2 * depth, int(round(spec.instance_count * scale)))
    counts = _family_counts(spec.mix, total)

    # Interleave families in one global index order so that locality in
    # index space means locality across cell types too.
    labels: List[str] = []
    for family, count in counts.items():
        labels.extend([family] * count)
    rng.shuffle(labels)

    cells = ModuleCells(depth)
    pool_iter = {
        "comb": iter(_weighted(_COMB_POOL, rng, counts["comb"])),
        "seq": iter(_weighted(_SEQ_POOL, rng, counts["seq"])),
        "buf": iter(_weighted(_BUF_POOL, rng, counts["buf"])),
        "sram": iter(_weighted(_SRAM_POOL, rng, counts["sram"])),
    }
    comb_like: List[str] = []  # comb + buf, in index order
    comb_global: List[int] = []  # global generation index of each
    bound_global: List[int] = []
    for idx, family in enumerate(labels):
        iname = f"{module_path}/i{idx}"
        netlist.add_instance(iname, next(pool_iter[family]), module_path)
        cells.all_names.append(iname)
        if family == "seq":
            cells.flops.append(iname)
            cells._boundaries.append(iname)
            bound_global.append(idx)
        elif family == "sram":
            cells.srams.append(iname)
            cells._boundaries.append(iname)
            bound_global.append(idx)
        else:
            cells.level_of[iname] = len(comb_like) % depth
            comb_like.append(iname)
            comb_global.append(idx)

    # --- combinational nets: level l -> level l+1, near in index ------- #
    n_comb = len(comb_like)
    boundaries = cells.boundaries()
    n_bound = len(boundaries)

    def _near(sorted_global: List[int], pool: List[str], g: int,
              spread: int) -> str:
        """A pool member whose *global* index is near ``g`` (no wrap)."""
        j = bisect.bisect_left(sorted_global, g)
        j += rng.randrange(-spread, spread + 1)
        j = min(max(j, 0), len(pool) - 1)
        return pool[j]

    for ci, driver in enumerate(comb_like):
        level = ci % depth
        fanout = _FANOUT_PICKER.pick(rng)
        sinks: List[str] = []
        if level == depth - 1 or n_comb <= depth:
            # Stage end: drive flop D-pins / SRAM address-data inputs.
            if n_bound:
                for _ in range(min(fanout, 2)):
                    sinks.append(_near(bound_global, boundaries,
                                       comb_global[ci], 3))
        else:
            # Next-level comb sinks at small index strides.
            for _ in range(fanout):
                stride = _STRIDE_PICKER.pick(rng)
                sign = -1 if rng.random() < 0.3 else 1
                j = ci + 1 + sign * stride * depth
                j -= (j - (ci + 1)) % depth  # keep level(j) == level+1
                if not 0 <= j < n_comb or (j % depth) != level + 1:
                    j = ci + 1 if (ci + 1) < n_comb else ci - (depth - 1)
                if 0 <= j < n_comb and (j % depth) == level + 1:
                    sinks.append(comb_like[j])
            if not sinks and n_bound:
                sinks.append(boundaries[rng.randrange(n_bound)])
        if sinks:
            netlist.add_net(f"{module_path}/n{ci}", driver, sinks)

    # --- flop/SRAM outputs drive nearby combinational cells ------------ #
    # Sinks are found by *global index* proximity (bisect), so q-nets stay
    # short even in SRAM-dominated modules where combinational cells are
    # sparse and their list positions fluctuate against global indices.
    sram_set = set(cells.srams)
    for bi, boundary in enumerate(boundaries):
        fanout = _FANOUT_PICKER.pick(rng)
        # SRAM read data feeds a single nearby mux/sense stage.
        if boundary in sram_set:
            fanout = 1
        sinks = []
        if n_comb:
            for _ in range(min(fanout, 3)):
                sinks.append(_near(comb_global, comb_like,
                                   bound_global[bi], 1))
        if sinks:
            netlist.add_net(f"{module_path}/q{bi}", boundary, sinks)

    # --- clock distribution (flops and synchronous SRAMs) -------------- #
    if boundaries:
        clk_buf = f"{module_path}/clkroot"
        netlist.add_instance(clk_buf, "CLKBUF_X8", module_path)
        cells.all_names.append(clk_buf)
        netlist.add_net(f"{module_path}/clk", clk_buf, boundaries,
                        is_clock=True)
    return cells


def _add_cross_module_nets(netlist: Netlist,
                           modules: Dict[str, ModuleCells],
                           rng: random.Random,
                           fraction: float = 0.01) -> int:
    """Add nets linking sibling modules.

    Cross-module nets terminate at flip-flops (registered module
    boundaries), preserving combinational acyclicity.

    Returns the number of nets added.
    """
    paths = [p for p, mc in modules.items() if mc.flops]
    if len(paths) < 2:
        return 0
    total = sum(len(mc.all_names) for mc in modules.values())
    count = max(1, int(total * fraction))
    added = 0
    for i in range(count):
        src_path, dst_path = rng.sample(paths, 2)
        src = modules[src_path]
        driver = rng.choice(src.flops)
        sinks = [rng.choice(modules[dst_path].flops)
                 for _ in range(rng.choice([1, 1, 2]))]
        netlist.add_net(f"xmod_{src_path.replace('/', '_')}_{i}",
                        driver, sinks)
        added += 1
    return added


def _attach_bus_ports(netlist: Netlist, bus: BusSpec,
                      direction: PortDirection, attach_to: List[str],
                      rng: random.Random) -> None:
    """One port+net per bus bit, anchored at flops of the owner module."""
    for bit in range(bus.width):
        net_name = f"{bus.name}[{bit}]"
        anchor = rng.choice(attach_to)
        if direction is PortDirection.OUTPUT:
            netlist.add_net(net_name, anchor, [])
        else:
            netlist.add_net(net_name, None, [anchor])
        netlist.add_port(net_name, direction, net_name, bus=bus.name)


#: Memoized netlists, keyed by (kind, args).  Generation is deterministic
#: in its arguments, and none of them depend on the interposer spec — so
#: a six-design sweep regenerates identical logic/memory netlists six
#: times.  The store hands out clones, so in-place passes downstream
#: (SerDes insertion) can't corrupt the cached master.  Bounded LRU.
_NETLIST_MEMO: "OrderedDict[Tuple, Netlist]" = OrderedDict()
_NETLIST_MEMO_MAX = 12


def clear_netlist_memo() -> None:
    """Drop all memoized netlists (mainly for tests)."""
    _NETLIST_MEMO.clear()


def _memoized(key: Tuple, build) -> Netlist:
    """Return a private clone of the netlist for ``key``, building once."""
    master = _NETLIST_MEMO.get(key)
    if master is None:
        master = build()
        _NETLIST_MEMO[key] = master
        if len(_NETLIST_MEMO) > _NETLIST_MEMO_MAX:
            _NETLIST_MEMO.popitem(last=False)
    else:
        _NETLIST_MEMO.move_to_end(key)
    return master.clone()


def generate_chiplet_netlist(chiplet: str, tile: int = 0,
                             scale: float = 1.0, seed: int = 2023,
                             library: Optional[CellLibrary] = None) -> Netlist:
    """Generate the synthesized netlist of one chiplet of one tile.

    The logic chiplet carries both the intra-tile (to memory) and
    inter-tile (to the other logic chiplet) bus interfaces; the memory
    chiplet carries only the intra-tile interface — matching the paper's
    bump counts (299 vs 231 signal bumps).

    Args:
        chiplet: ``"logic"`` or ``"memory"``.
        tile: Tile index (0 or 1); only affects hierarchy labels.
        scale: Netlist size scale factor (1.0 = paper-size).
        seed: RNG seed; same seed → identical netlist.
        library: Cell library; defaults to the N28 library.  Results are
            memoized (and returned as private clones) when using the
            default library.
    """
    if library is None:
        return _memoized(
            ("chiplet", chiplet, tile, scale, seed),
            lambda: _generate_chiplet_netlist(chiplet, tile, scale, seed,
                                              None))
    return _generate_chiplet_netlist(chiplet, tile, scale, seed, library)


def _generate_chiplet_netlist(chiplet: str, tile: int, scale: float,
                              seed: int,
                              library: Optional[CellLibrary]) -> Netlist:
    lib = library or N28_LIB
    rng = random.Random(f"{seed}:{chiplet}:{tile}")
    netlist = Netlist(f"tile{tile}_{chiplet}", lib)

    modules: Dict[str, ModuleCells] = {}
    for spec in modules_for_chiplet(chiplet):
        path = f"tile{tile}/{spec.name}"
        modules[path] = generate_module(netlist, spec, path, rng, scale)
    _add_cross_module_nets(netlist, modules, rng)

    # Bus interfaces, anchored at flops (registered I/O as in the paper's
    # pipelined AIB protocol).  Directions are from this chiplet's view.
    if chiplet == LOGIC_CHIPLET:
        l2_flops = modules[f"tile{tile}/l2"].flops
        noc_flops = modules[f"tile{tile}/noc_router"].flops
        for bus in INTRA_TILE_BUSES:
            direction = (PortDirection.OUTPUT if bus.src == "l2"
                         else PortDirection.INPUT)
            _attach_bus_ports(netlist, bus, direction, l2_flops, rng)
        for bus in INTER_TILE_BUSES:
            direction = (PortDirection.OUTPUT
                         if bus.src.startswith("tile0/")
                         else PortDirection.INPUT)
            _attach_bus_ports(netlist, bus, direction, noc_flops, rng)
    elif chiplet == MEMORY_CHIPLET:
        ctrl_flops = modules[f"tile{tile}/l3_ctrl"].flops
        for bus in INTRA_TILE_BUSES:
            direction = (PortDirection.OUTPUT if bus.src == "l3_ctrl"
                         else PortDirection.INPUT)
            _attach_bus_ports(netlist, bus, direction, ctrl_flops, rng)
    else:
        raise ValueError(f"chiplet must be 'logic' or 'memory', "
                         f"got {chiplet!r}")

    netlist.validate()
    return netlist


def generate_tile_netlist(tile: int = 0, scale: float = 1.0,
                          seed: int = 2023,
                          library: Optional[CellLibrary] = None) -> Netlist:
    """Generate one full (unpartitioned) OpenPiton tile netlist.

    Used by the flattening-partitioning branch of the flow (Fig. 4), where
    min-cut partitioning rediscovers the logic/memory split from a flat
    netlist.  The intra-tile L3 buses become *internal* nets here.
    """
    if library is None:
        return _memoized(
            ("tile", tile, scale, seed),
            lambda: _generate_tile_netlist(tile, scale, seed, None))
    return _generate_tile_netlist(tile, scale, seed, library)


def _generate_tile_netlist(tile: int, scale: float, seed: int,
                           library: Optional[CellLibrary]) -> Netlist:
    lib = library or N28_LIB
    rng = random.Random(f"{seed}:tile:{tile}")
    netlist = Netlist(f"tile{tile}", lib)

    modules: Dict[str, ModuleCells] = {}
    for spec in TILE_MODULES:
        path = f"tile{tile}/{spec.name}"
        modules[path] = generate_module(netlist, spec, path, rng, scale)
    _add_cross_module_nets(netlist, modules, rng)

    # The L3 interface buses are internal flop-to-flop nets.
    l2 = modules[f"tile{tile}/l2"].flops
    l3c = modules[f"tile{tile}/l3_ctrl"].flops
    for bus in INTRA_TILE_BUSES:
        src_pool, dst_pool = (l2, l3c) if bus.src == "l2" else (l3c, l2)
        for bit in range(bus.width):
            netlist.add_net(f"{bus.name}[{bit}]", rng.choice(src_pool),
                            [rng.choice(dst_pool)])

    # Inter-tile buses remain top-level ports of the tile.
    noc = modules[f"tile{tile}/noc_router"].flops
    for bus in INTER_TILE_BUSES:
        direction = (PortDirection.OUTPUT if bus.src.startswith("tile0/")
                     else PortDirection.INPUT)
        _attach_bus_ports(netlist, bus, direction, noc, rng)

    netlist.validate()
    return netlist


def generate_monolithic_netlist(num_tiles: int = 2, scale: float = 1.0,
                                seed: int = 2023,
                                library: Optional[CellLibrary] = None
                                ) -> Netlist:
    """Generate the unpartitioned 2D-monolithic chip (both tiles, one die).

    The baseline column of Table IV: all modules of every tile on a
    single die, intra-tile L3 buses and inter-tile NoC buses both as
    internal flop-to-flop nets (no SerDes, no AIB drivers).
    """
    if num_tiles < 1:
        raise ValueError("need at least one tile")
    if library is None:
        return _memoized(
            ("mono", num_tiles, scale, seed),
            lambda: _generate_monolithic_netlist(num_tiles, scale, seed,
                                                 None))
    return _generate_monolithic_netlist(num_tiles, scale, seed, library)


def _generate_monolithic_netlist(num_tiles: int, scale: float, seed: int,
                                 library: Optional[CellLibrary]) -> Netlist:
    lib = library or N28_LIB
    rng = random.Random(f"{seed}:mono")
    netlist = Netlist("monolithic", lib)

    modules: Dict[str, ModuleCells] = {}
    for tile in range(num_tiles):
        for spec in TILE_MODULES:
            path = f"tile{tile}/{spec.name}"
            modules[path] = generate_module(netlist, spec, path, rng,
                                            scale)
    _add_cross_module_nets(netlist, modules, rng)

    for tile in range(num_tiles):
        l2 = modules[f"tile{tile}/l2"].flops
        l3c = modules[f"tile{tile}/l3_ctrl"].flops
        for bus in INTRA_TILE_BUSES:
            src_pool, dst_pool = (l2, l3c) if bus.src == "l2" else (l3c, l2)
            for bit in range(bus.width):
                netlist.add_net(f"t{tile}_{bus.name}[{bit}]",
                                rng.choice(src_pool),
                                [rng.choice(dst_pool)])

    # Inter-tile buses connect NoC routers of adjacent tiles directly.
    for a, b in zip(range(num_tiles - 1), range(1, num_tiles)):
        noc_a = modules[f"tile{a}/noc_router"].flops
        noc_b = modules[f"tile{b}/noc_router"].flops
        for bus in INTER_TILE_BUSES:
            src_pool, dst_pool = ((noc_a, noc_b)
                                  if bus.src.startswith("tile0/")
                                  else (noc_b, noc_a))
            for bit in range(bus.width):
                netlist.add_net(f"t{a}{b}_{bus.name}[{bit}]",
                                rng.choice(src_pool),
                                [rng.choice(dst_pool)])

    netlist.validate()
    return netlist
