"""The dict-of-records ``Netlist``: the golden reference for the
columnar one in :mod:`repro.arch.netlist`.

Each instance, net and port is one record object in a name-keyed dict,
beside a per-instance pin index and lazily filled cell caches.
:meth:`Netlist.arrays` builds the integer view in one pass over the
records, and :meth:`Netlist.subset` carves a sub-netlist record by
record through the ``add_*`` methods.  Production keeps the view's
arrays as its storage, and must reproduce these records, views,
pickled states and subsets exactly.
"""

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.arch.netlist import (_DIRECTIONS, Instance, Net, NetlistArrays,
                                Port, PortDirection, _pack, _unpack,
                                sequential_sum)
from repro.tech.stdcell import CellLibrary, StdCell


def _build_arrays(netlist: "Netlist") -> NetlistArrays:
    """One pass over the instance and net records."""
    records = netlist.instances.values()
    index = {name: i for i, name in enumerate(netlist.instances)}
    cell_names = [inst.cell_name for inst in records]
    paths = [inst.module_path for inst in records]
    cell_id = {c: i for i, c in enumerate(dict.fromkeys(cell_names))}
    module_id = {p: i for i, p in enumerate(dict.fromkeys(paths))}
    nets = netlist.nets.values()
    endpoints: List[str] = []
    ptr = [0]
    for net in nets:
        if net.driver:
            endpoints.append(net.driver)
        endpoints += net.sinks
        ptr.append(len(endpoints))
    view = NetlistArrays(
        cell=np.array([cell_id[c] for c in cell_names], dtype=np.int32),
        cells=tuple(netlist.library.get(c) for c in cell_id),
        module=np.array([module_id[p] for p in paths], dtype=np.int32),
        modules=tuple(module_id),
        pin_ptr=np.array(ptr, dtype=np.int64),
        pins=np.fromiter(map(index.__getitem__, endpoints), dtype=np.int32,
                         count=len(endpoints)),
        driver=np.array([index[net.driver] if net.driver else -1
                         for net in nets], dtype=np.int32),
        clock=np.array([net.is_clock for net in nets], dtype=bool))
    for field_value in view:
        if isinstance(field_value, np.ndarray):
            field_value.setflags(write=False)
    return view


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
        # instance name -> resolved StdCell, filled lazily by cell().
        self._cell_memo: Dict[str, StdCell] = {}
        # The array view (arrays()), dropped by every add_* call.
        self._arrays: Optional[NetlistArrays] = None

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
        self._arrays = None
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
        self._arrays = None
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
        self._arrays = None
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

    def arrays(self) -> NetlistArrays:
        """The netlist as integer arrays (:class:`NetlistArrays`).

        Built on first use and kept until the next ``add_instance``,
        ``add_net`` or ``add_port``; ``clone`` and unpickling start
        without one.  A record edited in place rather than through
        those methods is not seen until one of them runs.
        """
        if self._arrays is None:
            self._arrays = _build_arrays(self)
        return self._arrays

    def __getstate__(self) -> Dict[str, object]:
        """The records as a fresh view's arrays and packed name tables.

        A fresh view, not the cached one, which a record edited in
        place leaves stale.  Beside the view go the nets whose driver
        is ``""`` (the view, like ``add_net``, reads it as no driver)
        and the ports.  The pin index and the cell caches are derived,
        so they stay out.
        """
        view = _build_arrays(self)
        ports = self._ports.values()
        return {
            "name": self.name, "library": self.library,
            "instances": _pack(self._instances),
            "cells": _pack(cell.name for cell in view.cells),
            "cell": view.cell,
            "modules": _pack(view.modules), "module": view.module,
            "nets": _pack(self._nets),
            "pin_ptr": view.pin_ptr, "pins": view.pins,
            "driver": view.driver, "clock": view.clock,
            "blank_driver": np.array(
                [e for e, net in enumerate(self._nets.values())
                 if net.driver == ""], dtype=np.int64),
            "ports": (_pack(p.name for p in ports),
                      _pack(p.net for p in ports),
                      _pack(p.bus for p in ports),
                      np.array([_DIRECTIONS.index(p.direction)
                                for p in ports], dtype=np.int8)),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Rebuild the records, in order, from :meth:`__getstate__`."""
        self.name = state["name"]
        self.library = state["library"]
        names = _unpack(state["instances"])
        cells = _unpack(state["cells"])
        modules = _unpack(state["modules"])
        self._instances = {
            name: Instance(name, cells[c], modules[m])
            for name, c, m in zip(names, state["cell"].tolist(),
                                  state["module"].tolist())}
        self._known_cells = set(cells)
        self._cell_memo = {}
        self._arrays = None
        pins_of: Dict[str, Set[str]] = {name: set() for name in names}
        blank = set(state["blank_driver"].tolist())
        ptr = state["pin_ptr"].tolist()
        pins = [names[i] for i in state["pins"].tolist()]
        self._nets = {}
        for e, (name, d, start, end, clock) in enumerate(zip(
                _unpack(state["nets"]), state["driver"].tolist(), ptr,
                ptr[1:], state["clock"].tolist())):
            for endpoint in pins[start:end]:
                pins_of[endpoint].add(name)
            if d >= 0:
                driver, start = names[d], start + 1
            else:
                driver = "" if e in blank else None
            self._nets[name] = Net(name, driver, pins[start:end], clock)
        self._pins = pins_of
        port_names, nets, buses, directions = state["ports"]
        self._ports = {
            name: Port(name, _DIRECTIONS[d], net, bus)
            for name, net, bus, d in zip(
                _unpack(port_names), _unpack(nets), _unpack(buses),
                directions.tolist())}

    def __len__(self) -> int:
        return len(self._instances)

    # ------------------------------------------------------------------ #
    # Statistics.
    # ------------------------------------------------------------------ #

    def total_cell_area_um2(self) -> float:
        """Sum of placed cell areas, added in instance order (the int
        ``0`` for an empty netlist)."""
        if not self._instances:
            return 0
        area = self.arrays().cell_attr("area_um2")
        return float(sequential_sum(area))

    def total_leakage_mw(self) -> float:
        """Sum of cell leakage power in milliwatts, added in instance
        order."""
        leakage = self.arrays().cell_attr("leakage_nw")
        return float(sequential_sum(leakage)) * 1e-6

    def module_paths(self) -> Set[str]:
        """Distinct hierarchy labels present in the netlist."""
        return {inst.module_path for inst in self._instances.values()}

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
