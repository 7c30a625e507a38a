"""Gate-level netlist data structures.

The reproduction cannot synthesize the real OpenPiton RTL with a commercial
tool, so it operates on synthetic gate-level netlists (see
:mod:`repro.arch.generate`) that reproduce the statistics of the paper's
synthesized chiplets: cell counts, cell mix, hierarchy, and connectivity
locality.  This module defines the containers those netlists live in.

A :class:`Netlist` is a flat sea of :class:`Instance` objects, each tagged
with the hierarchical module path it came from (``"tile0/l3"`` etc.), plus
:class:`Net` objects connecting instance pins and top-level :class:`Port`
objects.  Hierarchy is a labelling, not a containment tree — which is
exactly how physical design tools see a flattened design, and what the
hierarchical partitioner needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..tech.stdcell import CellLibrary, StdCell


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass
class Instance:
    """One placed-and-routable cell instance.

    Attributes:
        name: Unique instance name within the netlist.
        cell_name: Library cell this instance is bound to.
        module_path: Hierarchical origin, e.g. ``"tile0/core"``.  Used by
            hierarchical partitioning and by power-map binning.
    """

    name: str
    cell_name: str
    module_path: str = ""

    def hierarchy(self) -> Tuple[str, ...]:
        """The module path split into levels (empty tuple for top level)."""
        if not self.module_path:
            return ()
        return tuple(self.module_path.split("/"))


@dataclass
class Net:
    """A signal net connecting a driver pin to sink pins.

    Attributes:
        name: Unique net name.
        driver: Name of the driving instance, or ``None`` when the net is
            driven by a top-level input port.
        sinks: Names of sink instances (may repeat for multi-pin sinks).
        is_clock: Marks clock-tree nets (treated specially by timing and
            activity models).
    """

    name: str
    driver: Optional[str]
    sinks: List[str] = field(default_factory=list)
    is_clock: bool = False

    def fanout(self) -> int:
        """Number of sink pins on the net."""
        return len(self.sinks)

    def degree(self) -> int:
        """Total pin count (driver + sinks)."""
        return len(self.sinks) + (1 if self.driver is not None else 0)


@dataclass
class Port:
    """A top-level I/O port of the netlist.

    Attributes:
        name: Port name, e.g. ``"noc1_out[3]"``.
        direction: Signal direction.
        net: Name of the net attached to the port.
        bus: Logical bus the port belongs to (``"noc1_out"``); used by the
            SerDes inserter and the bump planner to group related pins.
    """

    name: str
    direction: PortDirection
    net: str
    bus: str = ""


class Netlist:
    """A flat gate-level netlist with hierarchy labels.

    Args:
        name: Design name.
        library: Standard-cell library the instances reference.
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self._instances: Dict[str, Instance] = {}
        self._nets: Dict[str, Net] = {}
        self._ports: Dict[str, Port] = {}
        # instance name -> nets it touches, maintained incrementally.
        self._pins: Dict[str, Set[str]] = {}
        # cell names already validated against the library, so repeated
        # add_instance calls skip the library lookup.
        self._known_cells: Set[str] = set()
        # instance name -> resolved StdCell, filled lazily by cell();
        # timing/power/route resolve cells per edge, so this lookup is hot.
        self._cell_memo: Dict[str, StdCell] = {}

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    def add_instance(self, name: str, cell_name: str,
                     module_path: str = "") -> Instance:
        """Create and register an instance; cell must exist in the library."""
        if name in self._instances:
            raise ValueError(f"duplicate instance {name!r}")
        if cell_name not in self._known_cells:
            self.library.get(cell_name)  # raises KeyError if unknown
            self._known_cells.add(cell_name)
        inst = Instance(name=name, cell_name=cell_name,
                        module_path=module_path)
        self._instances[name] = inst
        self._pins[name] = set()
        return inst

    def add_net(self, name: str, driver: Optional[str],
                sinks: Iterable[str], is_clock: bool = False) -> Net:
        """Create and register a net; endpoints must be known instances."""
        if name in self._nets:
            raise ValueError(f"duplicate net {name!r}")
        sink_list = list(sinks)
        instances = self._instances
        if driver and driver not in instances:
            raise KeyError(f"net {name!r} references unknown instance "
                           f"{driver!r}")
        for endpoint in sink_list:
            if endpoint not in instances:
                raise KeyError(f"net {name!r} references unknown instance "
                               f"{endpoint!r}")
        net = Net(name=name, driver=driver, sinks=sink_list,
                  is_clock=is_clock)
        self._nets[name] = net
        if driver:
            self._pins[driver].add(name)
        for s in sink_list:
            self._pins[s].add(name)
        return net

    def add_port(self, name: str, direction: PortDirection, net: str,
                 bus: str = "") -> Port:
        """Register a top-level port attached to an existing net."""
        if name in self._ports:
            raise ValueError(f"duplicate port {name!r}")
        if net not in self._nets:
            raise KeyError(f"port {name!r} references unknown net {net!r}")
        port = Port(name=name, direction=direction, net=net, bus=bus)
        self._ports[name] = port
        return port

    # ------------------------------------------------------------------ #
    # Access.
    # ------------------------------------------------------------------ #

    @property
    def instances(self) -> Dict[str, Instance]:
        """Instance name -> record map."""
        return self._instances

    @property
    def nets(self) -> Dict[str, Net]:
        """Net name -> record map."""
        return self._nets

    @property
    def ports(self) -> Dict[str, Port]:
        """Port name -> record map."""
        return self._ports

    def instance(self, name: str) -> Instance:
        """Look up one instance by name."""
        return self._instances[name]

    def net(self, name: str) -> Net:
        """Look up one net by name."""
        return self._nets[name]

    def nets_of(self, instance_name: str) -> Set[str]:
        """Names of all nets touching an instance."""
        return set(self._pins[instance_name])

    def cell(self, instance_name: str) -> StdCell:
        """The library cell of an instance."""
        cell = self._cell_memo.get(instance_name)
        if cell is None:
            cell = self.library.get(
                self._instances[instance_name].cell_name)
            self._cell_memo[instance_name] = cell
        return cell

    def __len__(self) -> int:
        return len(self._instances)

    # ------------------------------------------------------------------ #
    # Statistics.
    # ------------------------------------------------------------------ #

    def total_cell_area_um2(self) -> float:
        """Sum of placed cell areas."""
        return sum(self.cell(n).area_um2 for n in self._instances)

    def total_leakage_mw(self) -> float:
        """Sum of cell leakage power in milliwatts."""
        return sum(self.cell(n).leakage_nw for n in self._instances) * 1e-6

    def cell_histogram(self) -> Dict[str, int]:
        """Instance count per library cell name."""
        hist: Dict[str, int] = {}
        for inst in self._instances.values():
            hist[inst.cell_name] = hist.get(inst.cell_name, 0) + 1
        return hist

    def module_paths(self) -> Set[str]:
        """Distinct hierarchy labels present in the netlist."""
        return {inst.module_path for inst in self._instances.values()}

    def instances_in(self, module_prefix: str) -> List[str]:
        """Instance names whose module path matches or nests under a prefix."""
        out = []
        for inst in self._instances.values():
            path = inst.module_path
            if path == module_prefix or path.startswith(module_prefix + "/"):
                out.append(inst.name)
        return out

    def average_fanout(self) -> float:
        """Mean sink count across nets (0.0 for empty netlist)."""
        if not self._nets:
            return 0.0
        return sum(n.fanout() for n in self._nets.values()) / len(self._nets)

    def validate(self) -> None:
        """Check referential integrity; raises ``ValueError`` on corruption."""
        for net in self._nets.values():
            for endpoint in ([net.driver] if net.driver else []) + net.sinks:
                if endpoint not in self._instances:
                    raise ValueError(
                        f"net {net.name!r} references missing instance "
                        f"{endpoint!r}")
        for port in self._ports.values():
            if port.net not in self._nets:
                raise ValueError(f"port {port.name!r} references missing net "
                                 f"{port.net!r}")

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy the netlist so mutations don't leak back.

        The (immutable) cell library is shared; instances, nets, ports,
        and the pin index are copied record by record — much faster than
        ``copy.deepcopy`` and safe for downstream passes like SerDes
        insertion that add instances and nets in place.
        """
        twin = Netlist(name or self.name, self.library)
        twin._instances = {
            n: Instance(name=i.name, cell_name=i.cell_name,
                        module_path=i.module_path)
            for n, i in self._instances.items()}
        twin._nets = {
            n: Net(name=net.name, driver=net.driver,
                   sinks=list(net.sinks), is_clock=net.is_clock)
            for n, net in self._nets.items()}
        twin._ports = {
            n: Port(name=p.name, direction=p.direction, net=p.net,
                    bus=p.bus)
            for n, p in self._ports.items()}
        twin._pins = {n: set(s) for n, s in self._pins.items()}
        twin._known_cells = set(self._known_cells)
        return twin

    def subset(self, instance_names: Iterable[str],
               name: Optional[str] = None) -> "Netlist":
        """Extract the sub-netlist induced by a set of instances.

        Nets are kept if they touch at least one retained instance; nets
        that cross the boundary lose their external endpoints, and a port
        is synthesized for each cut net (direction inferred from whether
        the retained side drives it).  This is the primitive the
        partitioner uses to carve chiplets out of the flat design.
        """
        keep = set(instance_names)
        missing = keep - self._instances.keys()
        if missing:
            raise KeyError(sorted(missing)[0])
        sub = Netlist(name or f"{self.name}_sub", self.library)
        # Insert in parent-netlist order: iterating the ``keep`` set
        # would make instance order — and order-sensitive downstream
        # passes like FM bisection — vary with PYTHONHASHSEED.
        for iname, inst in self._instances.items():
            if iname not in keep:
                continue
            sub.add_instance(inst.name, inst.cell_name, inst.module_path)
        for net in self._nets.values():
            driver_in = net.driver in keep if net.driver else False
            sinks_in = [s for s in net.sinks if s in keep]
            if not driver_in and not sinks_in:
                continue
            cut = ((net.driver is not None and not driver_in)
                   or len(sinks_in) != len(net.sinks))
            sub.add_net(net.name, net.driver if driver_in else None,
                        sinks_in, is_clock=net.is_clock)
            if cut:
                direction = (PortDirection.OUTPUT if driver_in
                             else PortDirection.INPUT)
                sub.add_port(f"{net.name}__pin", direction, net.name,
                             bus=net.name.rsplit("[", 1)[0])
        # Preserve original top-level ports whose nets survived.
        for port in self._ports.values():
            if port.net in sub._nets and port.name not in sub._ports:
                sub.add_port(port.name, port.direction, port.net, port.bus)
        return sub
