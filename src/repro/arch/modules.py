"""Module-level description of the OpenPiton tile.

The paper's benchmark is a two-tile OpenPiton RISC-V chip (Fig. 3).  Each
tile contains computational modules (core, FPU, CCX crossbar), memory
modules (L1/L1.5/L2 caches and the L3 cache), and a NoC router.  The
chipletization groups the L3 cache and its interface logic into a *memory
chiplet* and everything else into a *logic chiplet*.

Because the real RTL + TSMC 28nm synthesis is unavailable, each module is
described statistically: how many cell instances it synthesizes to and what
the cell mix looks like.  Instance counts are calibrated so the two
chiplets land at the paper's reported sizes (Table III: 167,495 cells logic
and 37,091 cells memory, before I/O driver insertion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

#: Which chiplet a module is assigned to by the hierarchical partitioning.
LOGIC_CHIPLET = "logic"
MEMORY_CHIPLET = "memory"


@dataclass(frozen=True)
class CellMix:
    """Fractions of each cell family within a module's synthesized netlist.

    Fractions must sum to 1.  Within a family the generator spreads
    instances over the family's drive strengths.

    Attributes:
        comb: Combinational logic fraction.
        seq: Flip-flop fraction.
        buf: Buffer / clock-tree fraction.
        sram: SRAM bit-slice macro fraction.
    """

    comb: float
    seq: float
    buf: float
    sram: float

    def __post_init__(self):
        total = self.comb + self.seq + self.buf + self.sram
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"cell mix fractions sum to {total}, expected 1")
        for label, v in [("comb", self.comb), ("seq", self.seq),
                         ("buf", self.buf), ("sram", self.sram)]:
            if v < 0:
                raise ValueError(f"{label} fraction negative")


#: Mix typical of random control/datapath logic.
LOGIC_MIX = CellMix(comb=0.64, seq=0.24, buf=0.12, sram=0.0)

#: Mix for cache-like modules on the logic chiplet (L1/L1.5/L2): mostly
#: control with embedded SRAM word slices.
CACHE_MIX = CellMix(comb=0.52, seq=0.20, buf=0.10, sram=0.18)

#: Mix for the L3 tag array: more SRAM-dense than the logic-side caches.
L3_TAG_MIX = CellMix(comb=0.40, seq=0.20, buf=0.10, sram=0.30)

#: Mix for the dense L3 data array (almost pure SRAM slices).
L3_DATA_MIX = CellMix(comb=0.03, seq=0.015, buf=0.005, sram=0.95)


@dataclass(frozen=True)
class ModuleSpec:
    """Synthesis statistics for one RTL module.

    Attributes:
        name: Module name within the tile (``"core"``, ``"l3_data"``, ...).
        instance_count: Cell instances after synthesis (single tile).
        mix: Cell family mix.
        chiplet: Chiplet the hierarchical partitioner assigns it to.
        activity: Average output toggle probability per clock cycle, used
            by the power model (cache arrays toggle less than datapaths).
        avg_fanout: Mean net fanout inside the module.
    """

    name: str
    instance_count: int
    mix: CellMix
    chiplet: str
    activity: float
    avg_fanout: float = 2.2


#: One OpenPiton tile, module by module.  Counts calibrated to Table III.
TILE_MODULES: List[ModuleSpec] = [
    ModuleSpec("core", 74500, LOGIC_MIX, LOGIC_CHIPLET, activity=0.12),
    ModuleSpec("fpu", 18200, LOGIC_MIX, LOGIC_CHIPLET, activity=0.10),
    ModuleSpec("ccx", 6300, LOGIC_MIX, LOGIC_CHIPLET, activity=0.14),
    ModuleSpec("l1", 12400, CACHE_MIX, LOGIC_CHIPLET, activity=0.08),
    ModuleSpec("l15", 10300, CACHE_MIX, LOGIC_CHIPLET, activity=0.07),
    ModuleSpec("l2", 30500, CACHE_MIX, LOGIC_CHIPLET, activity=0.06),
    ModuleSpec("noc_router", 9100, LOGIC_MIX, LOGIC_CHIPLET, activity=0.15),
    ModuleSpec("glue", 4900, LOGIC_MIX, LOGIC_CHIPLET, activity=0.10),
    ModuleSpec("l3_data", 24400, L3_DATA_MIX, MEMORY_CHIPLET, activity=0.05),
    ModuleSpec("l3_tag", 5900, L3_TAG_MIX, MEMORY_CHIPLET, activity=0.06),
    ModuleSpec("l3_ctrl", 6500, LOGIC_MIX, MEMORY_CHIPLET, activity=0.09),
]

_MODULE_INDEX: Dict[str, ModuleSpec] = {m.name: m for m in TILE_MODULES}


def get_module(name: str) -> ModuleSpec:
    """Look up a tile module spec by name."""
    try:
        return _MODULE_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown module {name!r}; valid: "
                       f"{sorted(_MODULE_INDEX)}")


def modules_for_chiplet(chiplet: str) -> List[ModuleSpec]:
    """Modules assigned to ``"logic"`` or ``"memory"`` by the partitioning."""
    if chiplet not in (LOGIC_CHIPLET, MEMORY_CHIPLET):
        raise ValueError(f"chiplet must be 'logic' or 'memory', "
                         f"got {chiplet!r}")
    return [m for m in TILE_MODULES if m.chiplet == chiplet]


@dataclass(frozen=True)
class BusSpec:
    """A logical bus between modules or between chiplets/tiles.

    Attributes:
        name: Bus name (``"noc1"``, ``"l3_req"``...).
        width: Bit width.
        src: Source module or chiplet label.
        dst: Destination module or chiplet label.
        is_control: True for unserializable control signals.
    """

    name: str
    width: int
    src: str
    dst: str
    is_control: bool = False


#: Inter-tile traffic: six 64-bit NoC buses plus 20 control signals
#: (Section IV-A).  These run logic-chiplet to logic-chiplet.
INTER_TILE_BUSES: List[BusSpec] = [
    BusSpec("noc1_out", 64, "tile0/noc_router", "tile1/noc_router"),
    BusSpec("noc1_in", 64, "tile1/noc_router", "tile0/noc_router"),
    BusSpec("noc2_out", 64, "tile0/noc_router", "tile1/noc_router"),
    BusSpec("noc2_in", 64, "tile1/noc_router", "tile0/noc_router"),
    BusSpec("noc3_out", 64, "tile0/noc_router", "tile1/noc_router"),
    BusSpec("noc3_in", 64, "tile1/noc_router", "tile0/noc_router"),
    BusSpec("itile_ctrl", 20, "tile0/noc_router", "tile1/noc_router",
            is_control=True),
]

#: Intra-tile traffic crossing the logic/memory chiplet cut: the L3
#: interface.  231 signals total (Section IV-A): three 64-bit buses plus
#: 39 control signals.
INTRA_TILE_BUSES: List[BusSpec] = [
    BusSpec("l3_req_data", 64, "l2", "l3_ctrl"),
    BusSpec("l3_resp_data", 64, "l3_ctrl", "l2"),
    BusSpec("l3_addr", 64, "l2", "l3_ctrl"),
    BusSpec("l3_ctrl_sigs", 39, "l2", "l3_ctrl", is_control=True),
]
