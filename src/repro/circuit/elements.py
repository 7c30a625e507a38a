"""Circuit element definitions and the :class:`Circuit` container.

This is the SPICE-netlist layer of the reproduction's circuit simulator.
Supported elements cover everything the paper's SI/PI decks need:
resistors, capacitors (with optional coupling use), inductors with mutual
coupling, independent V/I sources with arbitrary waveforms, and VCVS.
Distributed structures (RDL transmission lines, TSV chains, PDN planes)
are expanded into ladders of these primitives by their builder modules.

Node names are strings; ``"0"`` and ``"gnd"`` are ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from .waveforms import Waveform, dc

GROUND_NAMES = ("0", "gnd", "GND")


def is_ground(node: str) -> bool:
    """Whether a node name denotes the ground reference."""
    return node in GROUND_NAMES


@dataclass
class Resistor:
    """Two-terminal resistor (ohms)."""
    name: str
    n1: str
    n2: str
    resistance: float

    def __post_init__(self):
        if self.resistance <= 0:
            raise ValueError(f"{self.name}: resistance must be positive, "
                             f"got {self.resistance}")


@dataclass
class Capacitor:
    """Two-terminal capacitor (farads)."""
    name: str
    n1: str
    n2: str
    capacitance: float

    def __post_init__(self):
        if self.capacitance < 0:
            raise ValueError(f"{self.name}: capacitance must be >= 0")


@dataclass
class Inductor:
    """Series inductor; always treated as an MNA branch element."""

    name: str
    n1: str
    n2: str
    inductance: float

    def __post_init__(self):
        if self.inductance <= 0:
            raise ValueError(f"{self.name}: inductance must be positive")


@dataclass
class MutualInductance:
    """Coupling between two previously-added inductors.

    Attributes:
        name: Coupling element name.
        l1: Name of the first inductor.
        l2: Name of the second inductor.
        k: Coupling coefficient in (0, 1).
    """

    name: str
    l1: str
    l2: str
    k: float

    def __post_init__(self):
        if not 0 < self.k < 1:
            raise ValueError(f"{self.name}: k must be in (0, 1), got {self.k}")


@dataclass
class VoltageSource:
    """Independent voltage source; ``n1`` is the positive terminal."""

    name: str
    n1: str
    n2: str
    waveform: Waveform


@dataclass
class CurrentSource:
    """Independent current source pushing current from ``n1`` to ``n2``
    through the external circuit (i.e. injecting into ``n2``)."""

    name: str
    n1: str
    n2: str
    waveform: Waveform


@dataclass
class VCVS:
    """Voltage-controlled voltage source (SPICE E element)."""

    name: str
    out_pos: str
    out_neg: str
    ctrl_pos: str
    ctrl_neg: str
    gain: float


Element = Union[Resistor, Capacitor, Inductor, MutualInductance,
                VoltageSource, CurrentSource, VCVS]


class Circuit:
    """A flat circuit netlist ready for MNA analysis.

    Args:
        name: Circuit name (reports/debug only).
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.resistors: List[Resistor] = []
        self.capacitors: List[Capacitor] = []
        self.inductors: List[Inductor] = []
        self.mutuals: List[MutualInductance] = []
        self.vsources: List[VoltageSource] = []
        self.isources: List[CurrentSource] = []
        self.vcvs: List[VCVS] = []
        self._names: set = set()
        self._nodes: Dict[str, int] = {}
        self._inductor_index: Dict[str, int] = {}

    # ------------------------------------------------------------------ #

    def _register(self, name: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate element name {name!r}")
        self._names.add(name)

    def _touch(self, *nodes: str) -> None:
        for node in nodes:
            if not is_ground(node) and node not in self._nodes:
                self._nodes[node] = len(self._nodes)

    def add_resistor(self, name: str, n1: str, n2: str,
                     resistance: float) -> Resistor:
        """Create and register a resistor."""
        self._register(name)
        self._touch(n1, n2)
        el = Resistor(name, n1, n2, resistance)
        self.resistors.append(el)
        return el

    def add_capacitor(self, name: str, n1: str, n2: str,
                      capacitance: float) -> Capacitor:
        """Create and register a capacitor."""
        self._register(name)
        self._touch(n1, n2)
        el = Capacitor(name, n1, n2, capacitance)
        self.capacitors.append(el)
        return el

    def add_inductor(self, name: str, n1: str, n2: str,
                     inductance: float) -> Inductor:
        """Create and register an inductor (branch element)."""
        self._register(name)
        self._touch(n1, n2)
        el = Inductor(name, n1, n2, inductance)
        self._inductor_index[name] = len(self.inductors)
        self.inductors.append(el)
        return el

    def add_mutual(self, name: str, l1: str, l2: str,
                   k: float) -> MutualInductance:
        """Couple two registered inductors (0 < k < 1)."""
        self._register(name)
        for lname in (l1, l2):
            if lname not in self._inductor_index:
                raise KeyError(f"mutual {name!r} references unknown inductor "
                               f"{lname!r}")
        if l1 == l2:
            raise ValueError(f"mutual {name!r} couples an inductor to itself")
        el = MutualInductance(name, l1, l2, k)
        self.mutuals.append(el)
        return el

    def add_vsource(self, name: str, n1: str, n2: str,
                    waveform: Union[Waveform, float]) -> VoltageSource:
        """Create an independent voltage source (waveform or DC value)."""
        self._register(name)
        self._touch(n1, n2)
        if isinstance(waveform, (int, float)):
            waveform = dc(float(waveform))
        el = VoltageSource(name, n1, n2, waveform)
        self.vsources.append(el)
        return el

    def add_isource(self, name: str, n1: str, n2: str,
                    waveform: Union[Waveform, float]) -> CurrentSource:
        """Create an independent current source (n1 -> n2)."""
        self._register(name)
        self._touch(n1, n2)
        if isinstance(waveform, (int, float)):
            waveform = dc(float(waveform))
        el = CurrentSource(name, n1, n2, waveform)
        self.isources.append(el)
        return el

    def add_vcvs(self, name: str, out_pos: str, out_neg: str, ctrl_pos: str,
                 ctrl_neg: str, gain: float) -> VCVS:
        """Create a voltage-controlled voltage source."""
        self._register(name)
        self._touch(out_pos, out_neg, ctrl_pos, ctrl_neg)
        el = VCVS(name, out_pos, out_neg, ctrl_pos, ctrl_neg, gain)
        self.vcvs.append(el)
        return el

    # ------------------------------------------------------------------ #

    @property
    def nodes(self) -> Dict[str, int]:
        """Non-ground node name → index map (insertion order)."""
        return dict(self._nodes)

    def num_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._nodes)

    def node_index(self, node: str) -> int:
        """Index of a non-ground node; raises for ground or unknown names."""
        if is_ground(node):
            raise KeyError("ground has no index")
        return self._nodes[node]

    def inductor_position(self, name: str) -> int:
        """Registration order of an inductor (for mutual-coupling stamps)."""
        return self._inductor_index[name]

    def element_count(self) -> int:
        """Total number of elements of all types."""
        return (len(self.resistors) + len(self.capacitors)
                + len(self.inductors) + len(self.mutuals)
                + len(self.vsources) + len(self.isources) + len(self.vcvs))

    def summary(self) -> str:
        """One-line element census for logs."""
        return (f"{self.name}: {self.num_nodes()} nodes, "
                f"{len(self.resistors)}R {len(self.capacitors)}C "
                f"{len(self.inductors)}L {len(self.mutuals)}K "
                f"{len(self.vsources)}V {len(self.isources)}I "
                f"{len(self.vcvs)}E")
