"""Synthetic 28nm-class standard-cell library.

The paper implements its chiplets in TSMC 28nm, which is proprietary.  This
module provides an open, self-consistent stand-in: a small library of
combinational, sequential, and SRAM-macro cells whose areas, pin
capacitances, drive resistances, leakage, and internal switching energies
are representative of a 28nm HPL process (drawn from published 28nm-era
survey data).  All downstream PPA numbers are computed from these cells, so
the library is the single calibration point for absolute chiplet power/area.

Cell timing follows a simple linear delay model::

    delay = intrinsic_delay + drive_resistance * load_capacitance

which is what the Elmore-based STA engine in :mod:`repro.chiplet.timing`
expects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List


class CellKind(enum.Enum):
    """Broad functional class of a standard cell."""

    COMBINATIONAL = "comb"
    SEQUENTIAL = "seq"
    SRAM_MACRO = "sram"
    BUFFER = "buf"
    IO = "io"


@dataclass(frozen=True)
class StdCell:
    """One standard cell (or macro) characterization record.

    Attributes:
        name: Library cell name, e.g. ``"NAND2_X1"``.
        kind: Functional class.
        area_um2: Placed cell area in square microns.
        num_inputs: Number of signal input pins.
        input_cap_ff: Capacitance of each input pin in femtofarads.
        drive_res_ohm: Equivalent output drive resistance (linear model).
        intrinsic_delay_ps: Zero-load propagation delay in picoseconds.
        leakage_nw: Static leakage power in nanowatts at 0.9 V, 25 C.
        internal_energy_fj: Internal (short-circuit + internal-node) energy
            per output transition in femtojoules.
    """

    name: str
    kind: CellKind
    area_um2: float
    num_inputs: int
    input_cap_ff: float
    drive_res_ohm: float
    intrinsic_delay_ps: float
    leakage_nw: float
    internal_energy_fj: float

    def delay_ps(self, load_ff: float) -> float:
        """Propagation delay in ps driving ``load_ff`` femtofarads."""
        if load_ff < 0:
            raise ValueError(f"load must be non-negative, got {load_ff}")
        # R [ohm] * C [fF] = ohm * 1e-15 F = 1e-15 s = 1e-3 ps.
        return self.intrinsic_delay_ps + self.drive_res_ohm * load_ff * 1e-3


def _cell(name: str, kind: CellKind, area: float, n_in: int, cin: float,
          rdrv: float, d0: float, leak: float, eint: float) -> StdCell:
    return StdCell(name=name, kind=kind, area_um2=area, num_inputs=n_in,
                   input_cap_ff=cin, drive_res_ohm=rdrv,
                   intrinsic_delay_ps=d0, leakage_nw=leak,
                   internal_energy_fj=eint)


#: The 28nm-class cell set.  X1/X2/X4 denote drive strengths.
_CELLS: List[StdCell] = [
    # Combinational.
    _cell("INV_X1", CellKind.COMBINATIONAL, 0.49, 1, 0.85, 5200.0, 9.0, 13.0, 0.35),
    _cell("INV_X2", CellKind.COMBINATIONAL, 0.73, 1, 1.30, 2700.0, 8.5, 25.0, 0.55),
    _cell("INV_X4", CellKind.COMBINATIONAL, 1.22, 1, 2.20, 1400.0, 8.0, 49.0, 0.95),
    _cell("NAND2_X1", CellKind.COMBINATIONAL, 0.73, 2, 0.95, 5600.0, 12.0, 19.0, 0.50),
    _cell("NAND2_X2", CellKind.COMBINATIONAL, 1.10, 2, 1.80, 2900.0, 11.0, 37.0, 0.80),
    _cell("NOR2_X1", CellKind.COMBINATIONAL, 0.73, 2, 1.00, 6100.0, 13.5, 18.0, 0.52),
    _cell("AOI22_X1", CellKind.COMBINATIONAL, 1.22, 4, 1.05, 6600.0, 16.0, 27.0, 0.75),
    _cell("XOR2_X1", CellKind.COMBINATIONAL, 1.47, 2, 1.90, 6300.0, 22.0, 34.0, 1.30),
    _cell("MUX2_X1", CellKind.COMBINATIONAL, 1.47, 3, 1.30, 6000.0, 19.0, 30.0, 1.10),
    _cell("FA_X1", CellKind.COMBINATIONAL, 2.45, 3, 2.10, 6400.0, 30.0, 52.0, 2.20),
    # Buffers / clock tree.
    _cell("BUF_X4", CellKind.BUFFER, 1.47, 1, 1.40, 1400.0, 16.0, 54.0, 1.10),
    _cell("BUF_X8", CellKind.BUFFER, 2.45, 1, 2.60, 750.0, 15.0, 104.0, 1.90),
    _cell("CLKBUF_X8", CellKind.BUFFER, 2.69, 1, 2.80, 700.0, 14.0, 120.0, 2.10),
    # Sequential.
    _cell("DFF_X1", CellKind.SEQUENTIAL, 3.43, 2, 1.10, 5400.0, 55.0, 60.0, 1.74),
    _cell("DFF_X2", CellKind.SEQUENTIAL, 4.41, 2, 1.90, 2800.0, 52.0, 88.0, 2.30),
    _cell("SDFF_X1", CellKind.SEQUENTIAL, 4.17, 3, 1.15, 5400.0, 58.0, 72.0, 1.97),
    # SRAM bit-slice macros: one "cell" = a 64-bit (or 32-bit) word slice
    # of a compiled SRAM including its share of decoder/sense-amp overhead
    # (28nm bit cell ~0.127 um^2 plus periphery).  The L3-dominated memory
    # chiplet is built mostly from these, which is why its average area per
    # netlist cell is ~5x the logic chiplet's (Table III utilizations).
    _cell("SRAM_SLICE_64b", CellKind.SRAM_MACRO, 19.5, 8, 1.40, 3200.0,
          245.0, 54.0, 9.50),
    _cell("SRAM_SLICE_32b", CellKind.SRAM_MACRO, 10.5, 6, 1.30, 3400.0,
          215.0, 30.0, 5.80),
    # IO driver placeholder (the AIB macro has its own model; this is the
    # simple pad driver used inside test circuits).
    _cell("PAD_DRV_X16", CellKind.IO, 9.2, 1, 6.50, 190.0, 28.0, 480.0, 14.0),
]


class CellLibrary:
    """A named collection of :class:`StdCell` records with lookups.

    Args:
        name: Library name, e.g. ``"N28"``.
        cells: Cells to register; names must be unique.
        vdd: Nominal supply voltage in volts.
    """

    def __init__(self, name: str, cells: Iterable[StdCell], vdd: float = 0.9):
        self.name = name
        self.vdd = vdd
        self._by_name: Dict[str, StdCell] = {}
        for cell in cells:
            if cell.name in self._by_name:
                raise ValueError(f"duplicate cell name {cell.name!r}")
            self._by_name[cell.name] = cell

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._by_name)

    def get(self, name: str) -> StdCell:
        """Return the cell record for ``name``; raises ``KeyError`` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"cell {name!r} not in library {self.name!r}")

    def cells(self) -> List[StdCell]:
        """All cells in registration order."""
        return list(self._by_name.values())

    def names(self) -> List[str]:
        """All registered cell names."""
        return list(self._by_name)


#: The default 28nm-class library used throughout the reproduction.
N28_LIB = CellLibrary("N28", _CELLS, vdd=0.9)
