"""Two-tile OpenPiton chip architecture model.

Top-level description of the benchmark system: two OpenPiton tiles, each
chipletized into a logic and a memory chiplet, with the inter-tile NoC
buses running logic-to-logic and the intra-tile L3 interface running
logic-to-memory.  This is the object the co-design flow starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..tech.stdcell import CellLibrary, N28_LIB
from .generate import generate_chiplet_netlist
from .modules import (INTER_TILE_BUSES, LOGIC_CHIPLET, MEMORY_CHIPLET,
                      chiplet_instance_count, inter_tile_signal_count,
                      intra_tile_signal_count)
from .netlist import Netlist


@dataclass(frozen=True)
class ChipletRef:
    """Identifies one chiplet instance in the system.

    Attributes:
        tile: Tile index (0 or 1).
        kind: ``"logic"`` or ``"memory"``.
    """

    tile: int
    kind: str

    @property
    def name(self) -> str:
        """Canonical instance name, e.g. ``tile0_logic``."""
        return f"tile{self.tile}_{self.kind}"


class OpenPitonSystem:
    """The paper's benchmark: a two-tile OpenPiton chip as four chiplets.

    Netlists are generated lazily and cached; identical seeds give
    identical netlists, and both tiles reuse the same chiplet netlist (the
    paper reuses each chiplet netlist per tile).

    Args:
        num_tiles: Number of OpenPiton tiles (the paper uses 2).
        scale: Netlist scale factor (1.0 = paper-size cell counts).
        seed: Master RNG seed.
        library: Standard-cell library.
        target_frequency_mhz: Timing target for all chiplets (paper: 700).
    """

    def __init__(self, num_tiles: int = 2, scale: float = 1.0,
                 seed: int = 2023, library: Optional[CellLibrary] = None,
                 target_frequency_mhz: float = 700.0):
        if num_tiles < 1:
            raise ValueError("need at least one tile")
        if not 0 < scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        self.num_tiles = num_tiles
        self.scale = scale
        self.seed = seed
        self.library = library or N28_LIB
        self.target_frequency_mhz = target_frequency_mhz
        self._netlists: Dict[str, Netlist] = {}

    # ------------------------------------------------------------------ #

    def chiplets(self) -> List[ChipletRef]:
        """All chiplet instances: (tile, logic) and (tile, memory) pairs."""
        refs = []
        for t in range(self.num_tiles):
            refs.append(ChipletRef(tile=t, kind=LOGIC_CHIPLET))
            refs.append(ChipletRef(tile=t, kind=MEMORY_CHIPLET))
        return refs

    def netlist(self, kind: str) -> Netlist:
        """The (shared) netlist for all chiplets of one kind.

        The paper synthesizes each chiplet once and instantiates it per
        tile, so only two distinct netlists exist.
        """
        if kind not in self._netlists:
            self._netlists[kind] = generate_chiplet_netlist(
                kind, tile=0, scale=self.scale, seed=self.seed,
                library=self.library)
        return self._netlists[kind]

    # ------------------------------------------------------------------ #
    # Connectivity summary used by bump planning and interposer routing.
    # ------------------------------------------------------------------ #

    def raw_inter_tile_signals(self) -> int:
        """Pre-SerDes logic-to-logic signal count (6x64 + 20 = 404)."""
        return inter_tile_signal_count()

    def intra_tile_signals(self) -> int:
        """Logic-to-memory signal count per tile (231)."""
        return intra_tile_signal_count()

    def serialized_inter_tile_signals(self, serdes_ratio: int = 8) -> int:
        """Post-SerDes logic-to-logic signal count.

        Each 64-bit bus serializes ``serdes_ratio``:1 down to
        ``64 / serdes_ratio`` lanes; control signals pass through
        unserialized.  With the paper's ratio of 8 this is
        ``6*8 + 20 = 68``.
        """
        if serdes_ratio < 1:
            raise ValueError("serdes ratio must be >= 1")
        lanes = 0
        for bus in INTER_TILE_BUSES:
            if bus.is_control:
                lanes += bus.width
            else:
                lanes += max(1, bus.width // serdes_ratio)
        return lanes

    def logic_signal_bumps(self, serdes_ratio: int = 8) -> int:
        """Signal bumps on the logic chiplet: inter-tile + intra-tile.

        With the paper's parameters: 68 + 231 = 299 (Table II).
        """
        return (self.serialized_inter_tile_signals(serdes_ratio)
                + self.intra_tile_signals())

    def memory_signal_bumps(self) -> int:
        """Signal bumps on the memory chiplet: the L3 interface (231)."""
        return self.intra_tile_signals()

    def expected_cell_count(self, kind: str) -> int:
        """Synthesized instance count for a chiplet kind at full scale."""
        return chiplet_instance_count(kind)

    def clock_period_ps(self) -> float:
        """Target clock period in picoseconds."""
        return 1e6 / self.target_frequency_mhz
