"""Gate-level netlist data structures.

The reproduction cannot synthesize the real OpenPiton RTL with a commercial
tool, so it operates on synthetic gate-level netlists (see
:mod:`repro.arch.generate`) that reproduce the statistics of the paper's
synthesized chiplets: cell counts, cell mix, hierarchy, and connectivity
locality.  This module defines the containers those netlists live in.

A :class:`Netlist` is a flat sea of instances, each tagged with the
hierarchical module path it came from (``"tile0/l3"`` etc.), plus nets
connecting instance pins and top-level ports.  Hierarchy is a labelling,
not a containment tree — which is exactly how physical design tools see
a flattened design, and what the hierarchical partitioner needs.

The storage is integer arrays in the layout of :class:`NetlistArrays`:
instance ids with cell and module ids, nets as CSR pin lists with a
driver id and a clock flag, and name tables beside them.  The
:class:`Instance`, :class:`Net` and :class:`Port` records are snapshots
built from the arrays on each lookup; ``add_instance``, ``add_net`` and
``add_port`` are the only writers.  :meth:`Netlist.arrays` hands the
sign-off engines (floorplan, place, global route, STA, power) and the FM
partitioner a read-only copy of the arrays.
"""

from __future__ import annotations

import copy
import enum
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Set, Tuple)

import numpy as np

from ..tech.stdcell import CellKind, CellLibrary, StdCell


class PortDirection(enum.Enum):
    """Direction of a top-level port."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


@dataclass
class Instance:
    """One placed-and-routable cell instance.

    A snapshot: :class:`Netlist` builds a fresh one on each lookup, so
    editing it leaves the netlist unchanged.

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

    A snapshot, like :class:`Instance`.

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

    A snapshot, like :class:`Instance`.

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


def sequential_sum(values: np.ndarray):
    """``values`` summed left to right, as a Python ``for`` loop adds.

    ``np.cumsum`` accumulates strictly in order, where ``ndarray.sum``
    and ``np.add.reduce`` add pairwise and builtin ``sum`` over floats
    is compensated from CPython 3.12 on.  Returns a ``numpy.float64``,
    or the Python float ``0.0`` when there is nothing to add.
    """
    return np.cumsum(values)[-1] if len(values) else 0.0


class NetlistArrays(NamedTuple):
    """A netlist as integer arrays (see :meth:`Netlist.arrays`).

    Instance id ``i`` is the ``i``-th entry of ``Netlist.instances`` and
    net id ``e`` the ``e``-th of ``Netlist.nets``; cells and module
    paths are numbered in order of first appearance over the instances.
    A net's pins are its driver, when it has one (a truthy ``driver``,
    as :meth:`Netlist.add_net` reads it), then its sinks in order,
    repeats kept.  The arrays are read-only copies of the netlist's
    storage.
    """

    #: int32 [n]: each instance's cell id; ``cells`` holds the library
    #: records, resolved through ``CellLibrary.get``.
    cell: np.ndarray
    cells: Tuple[StdCell, ...]
    #: int32 [n]: each instance's module id; ``modules`` holds the paths.
    module: np.ndarray
    modules: Tuple[str, ...]
    #: int64 [m + 1] / int32 [p]: each net's pins, driver then sinks.
    pin_ptr: np.ndarray
    pins: np.ndarray
    #: int32 [m]: each net's driving instance, -1 when it has none.
    driver: np.ndarray
    #: bool [m]: clock nets.
    clock: np.ndarray

    @property
    def pin_net(self) -> np.ndarray:
        """int32 [p]: the net of each pin."""
        return np.repeat(np.arange(len(self.driver), dtype=np.int32),
                         np.diff(self.pin_ptr))

    @property
    def sink(self) -> np.ndarray:
        """bool [p]: whether each pin is a sink (every pin but a
        driver)."""
        sink = np.ones(len(self.pins), dtype=bool)
        sink[self.pin_ptr[:-1][self.driver >= 0]] = False
        return sink

    def cell_attr(self, attr: str) -> np.ndarray:
        """float64 [n]: the :class:`StdCell` field ``attr`` (such as
        ``"area_um2"``) of each instance's cell."""
        table = np.array([getattr(c, attr) for c in self.cells],
                         dtype=np.float64)
        return table[self.cell]

    def cell_kind_in(self, *kinds: CellKind) -> np.ndarray:
        """bool [n]: whether each instance's cell is of one of ``kinds``."""
        table = np.array([c.kind in kinds for c in self.cells], dtype=bool)
        return table[self.cell]


#: Each ``PortDirection`` by its code in a pickled netlist.
_DIRECTIONS = tuple(PortDirection)


def _pack(strings: Iterable[str]) -> Tuple[str, np.ndarray]:
    """``strings`` as one joined string and an int64 array of their
    lengths: two objects to pickle, however many strings."""
    strings = list(strings)
    return "".join(strings), np.fromiter(map(len, strings), dtype=np.int64,
                                         count=len(strings))


def _unpack(packed: Tuple[str, np.ndarray]) -> List[str]:
    """The strings :func:`_pack` joined, in order."""
    joined, lengths = packed
    ends = np.cumsum(lengths).tolist()
    return [joined[start:end] for start, end in zip([0] + ends, ends)]


#: numpy dtype of each storage buffer's ``array`` typecode.
_DTYPES = {"i": np.int32, "q": np.int64, "b": np.int8}

#: The storage attributes, which :meth:`Netlist.clone` copies.
_STORAGE = ("_inst_names", "_inst_ids", "_cell", "_cells", "_cell_ids",
            "_module", "_modules", "_module_ids", "_net_names", "_net_ids",
            "_pin_ptr", "_pins", "_driver", "_clock", "_blank",
            "_port_names", "_port_ids", "_port_net", "_port_bus",
            "_port_dir")


def _numpy(buffer: array, dtype) -> np.ndarray:
    """A read-only numpy copy of a storage buffer, as ``dtype``.

    A copy, because an array made by ``np.frombuffer`` would lock the
    buffer against appends for as long as it lives.
    """
    out = np.frombuffer(buffer, dtype=_DTYPES[buffer.typecode]).astype(dtype)
    out.setflags(write=False)
    return out


def _buffer(typecode: str, values) -> array:
    """A storage buffer holding ``values``, cast within their kind."""
    out = array(typecode)
    out.frombytes(np.asarray(values).astype(
        _DTYPES[typecode], casting="same_kind").tobytes())
    return out


def _ids(names: List[str]) -> Dict[str, int]:
    """Each name's position in ``names``."""
    return dict(zip(names, range(len(names))))


def _renumbered(ids: np.ndarray, table: list) -> Tuple[np.ndarray, list]:
    """``ids`` renumbered in order of first appearance, and the entries
    of ``table`` they then number."""
    used, first = np.unique(ids, return_index=True)
    order = used[np.argsort(first)]
    new = np.zeros(len(table), dtype=np.int32)
    new[order] = np.arange(len(order), dtype=np.int32)
    return new[ids], [table[t] for t in order.tolist()]


def _first_outside(values: np.ndarray, low: int, high: int) -> int:
    """Position of the first value outside ``[low, high)``, or -1."""
    bad = np.flatnonzero((values < low) | (values >= high))
    return int(bad[0]) if len(bad) else -1


class _Records(Mapping):
    """A read-only name -> record map over a netlist's storage.

    Each lookup builds a fresh record, so item assignment and ``del``
    raise ``TypeError`` and an edited record changes nothing.
    """

    __slots__ = ("_ids", "_names", "_record")

    def __init__(self, ids: Dict[str, int], names: List[str],
                 record: Callable[[int], object]):
        self._ids, self._names, self._record = ids, names, record

    def __getitem__(self, name: str):
        return self._record(self._ids[name])

    def __contains__(self, name: object) -> bool:
        return name in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class Netlist:
    """A flat gate-level netlist with hierarchy labels.

    Stored as growable integer buffers in the layout of
    :class:`NetlistArrays`, plus name tables: instance names with their
    cell and module ids (the cells and modules numbered in order of
    first appearance), nets as a CSR pin list (the truthy driver, then
    the sinks) with a driver id, -1 for none, a clock flag and the set
    of nets whose driver is ``""``, and ports as name, net id, bus and
    direction code.

    Args:
        name: Design name.
        library: Standard-cell library the instances reference.
    """

    def __init__(self, name: str, library: CellLibrary):
        self.name = name
        self.library = library
        self._inst_names: List[str] = []
        self._inst_ids: Dict[str, int] = {}
        self._cell = array("i")
        self._cells: List[StdCell] = []
        self._cell_ids: Dict[str, int] = {}
        self._module = array("i")
        self._modules: List[str] = []
        self._module_ids: Dict[str, int] = {}
        self._net_names: List[str] = []
        self._net_ids: Dict[str, int] = {}
        self._pin_ptr = array("q", [0])
        self._pins = array("i")
        self._driver = array("i")
        self._clock = array("b")
        self._blank: Set[int] = set()
        self._port_names: List[str] = []
        self._port_ids: Dict[str, int] = {}
        self._port_net = array("i")
        self._port_bus: List[str] = []
        self._port_dir = array("b")
        # The read-only copy arrays() hands out, dropped by every add_*.
        self._arrays: Optional[NetlistArrays] = None

    # ------------------------------------------------------------------ #
    # Construction.
    # ------------------------------------------------------------------ #

    def add_instance(self, name: str, cell_name: str,
                     module_path: str = "") -> Instance:
        """Register an instance; cell must exist in the library."""
        if name in self._inst_ids:
            raise ValueError(f"duplicate instance {name!r}")
        cell = self._cell_ids.get(cell_name)
        if cell is None:
            record = self.library.get(cell_name)  # raises KeyError if unknown
            cell = self._cell_ids[cell_name] = len(self._cells)
            self._cells.append(record)
        module = self._module_ids.get(module_path)
        if module is None:
            module = self._module_ids[module_path] = len(self._modules)
            self._modules.append(module_path)
        self._arrays = None
        self._inst_ids[name] = len(self._inst_names)
        self._inst_names.append(name)
        self._cell.append(cell)
        self._module.append(module)
        return Instance(name, cell_name, module_path)

    def add_net(self, name: str, driver: Optional[str],
                sinks: Iterable[str], is_clock: bool = False) -> Net:
        """Register a net; endpoints must be known instances."""
        if name in self._net_ids:
            raise ValueError(f"duplicate net {name!r}")
        sink_list = list(sinks)
        ids = self._inst_ids
        for endpoint in ([driver] if driver else []) + sink_list:
            if endpoint not in ids:
                raise KeyError(f"net {name!r} references unknown instance "
                               f"{endpoint!r}")
        self._arrays = None
        net = len(self._net_names)
        self._net_ids[name] = net
        self._net_names.append(name)
        if driver:
            self._driver.append(ids[driver])
            self._pins.append(ids[driver])
        else:
            self._driver.append(-1)
            if driver == "":
                self._blank.add(net)
        self._pins.extend([ids[s] for s in sink_list])
        self._pin_ptr.append(len(self._pins))
        self._clock.append(bool(is_clock))
        return Net(name, driver, sink_list, bool(is_clock))

    def add_port(self, name: str, direction: PortDirection, net: str,
                 bus: str = "") -> Port:
        """Register a top-level port attached to an existing net."""
        if name in self._port_ids:
            raise ValueError(f"duplicate port {name!r}")
        if net not in self._net_ids:
            raise KeyError(f"port {name!r} references unknown net {net!r}")
        self._arrays = None
        self._port_ids[name] = len(self._port_names)
        self._port_names.append(name)
        self._port_net.append(self._net_ids[net])
        self._port_bus.append(bus)
        self._port_dir.append(_DIRECTIONS.index(direction))
        return Port(name, direction, net, bus)

    # ------------------------------------------------------------------ #
    # Access.
    # ------------------------------------------------------------------ #

    def _instance(self, i: int) -> Instance:
        return Instance(self._inst_names[i], self._cells[self._cell[i]].name,
                        self._modules[self._module[i]])

    def _net(self, e: int) -> Net:
        start, end = self._pin_ptr[e], self._pin_ptr[e + 1]
        names = self._inst_names
        if self._driver[e] >= 0:
            driver, start = names[self._driver[e]], start + 1
        else:
            driver = "" if e in self._blank else None
        return Net(self._net_names[e], driver,
                   [names[i] for i in self._pins[start:end]],
                   bool(self._clock[e]))

    def _port(self, j: int) -> Port:
        return Port(self._port_names[j], _DIRECTIONS[self._port_dir[j]],
                    self._net_names[self._port_net[j]], self._port_bus[j])

    @property
    def instances(self) -> Mapping[str, Instance]:
        """Instance name -> record map (read-only; records are
        snapshots)."""
        return _Records(self._inst_ids, self._inst_names, self._instance)

    @property
    def nets(self) -> Mapping[str, Net]:
        """Net name -> record map (read-only; records are snapshots)."""
        return _Records(self._net_ids, self._net_names, self._net)

    @property
    def ports(self) -> Mapping[str, Port]:
        """Port name -> record map (read-only; records are snapshots)."""
        return _Records(self._port_ids, self._port_names, self._port)

    def instance(self, name: str) -> Instance:
        """Look up one instance by name."""
        return self._instance(self._inst_ids[name])

    def net(self, name: str) -> Net:
        """Look up one net by name."""
        return self._net(self._net_ids[name])

    def nets_of(self, instance_name: str) -> Set[str]:
        """Names of all nets touching an instance (found by a scan of
        the pins)."""
        i = self._inst_ids[instance_name]
        view = self.arrays()
        at = np.flatnonzero(view.pins == i)
        nets = np.searchsorted(view.pin_ptr, at, side="right") - 1
        return {self._net_names[e] for e in nets.tolist()}

    def cell(self, instance_name: str) -> StdCell:
        """The library cell of an instance."""
        return self._cells[self._cell[self._inst_ids[instance_name]]]

    def arrays(self) -> NetlistArrays:
        """The netlist as integer arrays (:class:`NetlistArrays`).

        A read-only copy of the storage, made on first use and kept
        until the next ``add_instance``, ``add_net`` or ``add_port``;
        ``clone`` and unpickling start without one.
        """
        if self._arrays is None:
            self._arrays = NetlistArrays(
                cell=_numpy(self._cell, np.int32), cells=tuple(self._cells),
                module=_numpy(self._module, np.int32),
                modules=tuple(self._modules),
                pin_ptr=_numpy(self._pin_ptr, np.int64),
                pins=_numpy(self._pins, np.int32),
                driver=_numpy(self._driver, np.int32),
                clock=_numpy(self._clock, np.bool_))
        return self._arrays

    def __getstate__(self) -> Dict[str, object]:
        """The storage as fresh read-only arrays and packed name tables.

        Beside the arrays go the nets whose driver is ``""`` and the
        ports, with each port's net by name; the name -> id maps and
        the cached :meth:`arrays` copy are derived, so they stay out.
        """
        return {
            "name": self.name, "library": self.library,
            "instances": _pack(self._inst_names),
            "cells": _pack(cell.name for cell in self._cells),
            "cell": _numpy(self._cell, np.int32),
            "modules": _pack(self._modules),
            "module": _numpy(self._module, np.int32),
            "nets": _pack(self._net_names),
            "pin_ptr": _numpy(self._pin_ptr, np.int64),
            "pins": _numpy(self._pins, np.int32),
            "driver": _numpy(self._driver, np.int32),
            "clock": _numpy(self._clock, np.bool_),
            "blank_driver": np.array(sorted(self._blank), dtype=np.int64),
            "ports": (_pack(self._port_names),
                      _pack(self._net_names[e] for e in self._port_net),
                      _pack(self._port_bus),
                      np.array(self._port_dir, dtype=np.int8)),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Fill the storage from :meth:`__getstate__`, then
        :meth:`validate` it, so a corrupt state raises."""
        Netlist.__init__(self, state["name"], state["library"])
        self._inst_names = _unpack(state["instances"])
        self._inst_ids = _ids(self._inst_names)
        self._cells = [self.library.get(c) for c in _unpack(state["cells"])]
        self._cell_ids = _ids([cell.name for cell in self._cells])
        self._cell = _buffer("i", state["cell"])
        self._modules = _unpack(state["modules"])
        self._module_ids = _ids(self._modules)
        self._module = _buffer("i", state["module"])
        self._net_names = _unpack(state["nets"])
        self._net_ids = _ids(self._net_names)
        self._pin_ptr = _buffer("q", state["pin_ptr"])
        self._pins = _buffer("i", state["pins"])
        self._driver = _buffer("i", state["driver"])
        self._clock = _buffer("b", state["clock"])
        self._blank = set(state["blank_driver"].tolist())
        names, nets, buses, directions = state["ports"]
        self._port_names = _unpack(names)
        self._port_ids = _ids(self._port_names)
        for port, net in zip(self._port_names, _unpack(nets)):
            if net not in self._net_ids:
                raise ValueError(f"port {port!r} references missing net "
                                 f"{net!r}")
            self._port_net.append(self._net_ids[net])
        self._port_bus = _unpack(buses)
        self._port_dir = _buffer("b", directions)
        self.validate()

    def __len__(self) -> int:
        return len(self._inst_names)

    # ------------------------------------------------------------------ #
    # Statistics.
    # ------------------------------------------------------------------ #

    def total_cell_area_um2(self) -> float:
        """Sum of placed cell areas, added in instance order (the int
        ``0`` for an empty netlist)."""
        if not self._inst_names:
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
        return set(self._modules)

    def validate(self) -> None:
        """Check the storage invariants; raises ``ValueError`` on
        corruption.

        Every name table is free of repeats; every id array has its
        table's length; cell and module ids number their tables in
        order of first appearance; ``pin_ptr`` starts at 0, never
        decreases and ends at the pin count; every pin, driver, port net
        and direction code is in range; a net with a driver has it as
        its first pin; and a net with a ``""`` driver has no driver id.
        """
        n, m = len(self._inst_names), len(self._net_names)
        for what, names, ids in (
                ("instance", self._inst_names, self._inst_ids),
                ("cell", self._cells, self._cell_ids),
                ("module", self._modules, self._module_ids),
                ("net", self._net_names, self._net_ids),
                ("port", self._port_names, self._port_ids)):
            if len(ids) != len(names):
                raise ValueError(f"repeated {what} names")
        for what, have, want in (
                ("cell", len(self._cell), n), ("module", len(self._module), n),
                ("pin_ptr", len(self._pin_ptr), m + 1),
                ("driver", len(self._driver), m),
                ("clock", len(self._clock), m),
                ("port net", len(self._port_net), len(self._port_names)),
                ("port bus", len(self._port_bus), len(self._port_names)),
                ("port direction", len(self._port_dir),
                 len(self._port_names))):
            if have != want:
                raise ValueError(f"{what} array holds {have} entries for "
                                 f"a table of {want}")
        for what, buffer, table in (("cell", self._cell, self._cells),
                                    ("module", self._module, self._modules)):
            ids = _numpy(buffer, np.int32)
            used, first = np.unique(ids, return_index=True)
            if (not np.array_equal(used, np.arange(len(table)))
                    or (np.diff(first) < 0).any()):
                raise ValueError(f"{what} ids do not number their table in "
                                 f"order of first appearance")
        ptr = _numpy(self._pin_ptr, np.int64)
        pins = _numpy(self._pins, np.int32)
        if ptr[0] != 0 or ptr[-1] != len(pins) or (np.diff(ptr) < 0).any():
            raise ValueError("pin_ptr must start at 0, never decrease and "
                             "end at the pin count")
        bad = _first_outside(pins, 0, n)
        if bad >= 0:
            net = int(np.searchsorted(ptr, bad, side="right")) - 1
            raise ValueError(f"net {self._net_names[net]!r} has pin id "
                             f"{pins[bad]} outside {n} instances")
        driver = _numpy(self._driver, np.int32)
        bad = _first_outside(driver, -1, n)
        if bad >= 0:
            raise ValueError(f"net {self._net_names[bad]!r} has driver id "
                             f"{driver[bad]} outside {n} instances")
        driven = np.flatnonzero(driver >= 0)
        first = ptr[driven]
        wrong = first >= ptr[driven + 1]
        wrong[~wrong] = pins[first[~wrong]] != driver[driven[~wrong]]
        if wrong.any():
            net = int(driven[np.argmax(wrong)])
            raise ValueError(f"net {self._net_names[net]!r} does not start "
                             f"with its driver")
        for net in sorted(self._blank):
            if not 0 <= net < m or self._driver[net] != -1:
                raise ValueError(f"net id {net} has a blank driver but is "
                                 f"out of range or driven")
        bad = _first_outside(_numpy(self._port_net, np.int32), 0, m)
        if bad >= 0:
            raise ValueError(f"port {self._port_names[bad]!r} references "
                             f"missing net id {self._port_net[bad]}")
        bad = _first_outside(_numpy(self._port_dir, np.int8), 0,
                             len(_DIRECTIONS))
        if bad >= 0:
            raise ValueError(f"port {self._port_names[bad]!r} has direction "
                             f"code {self._port_dir[bad]}")

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """Copy the netlist so mutations don't leak back.

        The (immutable) cell library is shared; the storage buffers,
        lists and dicts are copied whole, which is safe for downstream
        passes like SerDes insertion that add instances and nets in
        place.
        """
        twin = Netlist(name or self.name, self.library)
        for attr in _STORAGE:
            setattr(twin, attr, copy.copy(getattr(self, attr)))
        return twin

    def subset(self, instance_names: Iterable[str],
               name: Optional[str] = None) -> "Netlist":
        """Extract the sub-netlist induced by a set of instances.

        Nets are kept if they touch at least one retained instance; nets
        that cross the boundary lose their external endpoints, and a port
        is synthesized for each cut net (direction inferred from whether
        the retained side drives it; a ``""`` driver counts as outside).
        This is the primitive the partitioner uses to carve chiplets out
        of the flat design.  Instances keep the parent's order, whatever
        the order of ``instance_names``, and so do nets and ports.
        """
        keep = set(instance_names)
        missing = keep - self._inst_ids.keys()
        if missing:
            raise KeyError(sorted(missing)[0])
        view = self.arrays()
        mask = np.zeros(len(self._inst_names), dtype=bool)
        mask[np.fromiter(map(self._inst_ids.__getitem__, keep),
                         dtype=np.int64, count=len(keep))] = True
        kept = np.flatnonzero(mask)
        new_id = (np.cumsum(mask) - 1).astype(np.int32)
        sub = Netlist(name or f"{self.name}_sub", self.library)
        sub._inst_names = [self._inst_names[i] for i in kept.tolist()]
        sub._inst_ids = _ids(sub._inst_names)
        cell, sub._cells = _renumbered(view.cell[kept], self._cells)
        sub._cell = _buffer("i", cell)
        sub._cell_ids = _ids([c.name for c in sub._cells])
        module, sub._modules = _renumbered(view.module[kept], self._modules)
        sub._module = _buffer("i", module)
        sub._module_ids = _ids(sub._modules)

        m = len(view.driver)
        pin_net = view.pin_net
        pin_in = mask[view.pins]
        driven = view.driver >= 0
        driver_in = np.zeros(m, dtype=bool)
        driver_in[driven] = mask[view.driver[driven]]
        sinks_in = np.bincount(pin_net[pin_in & view.sink], minlength=m)
        sinks = np.diff(view.pin_ptr) - driven
        blank = np.zeros(m, dtype=bool)
        blank[sorted(self._blank)] = True
        cut = ((driven | blank) & ~driver_in) | (sinks_in != sinks)
        nets = np.flatnonzero(driver_in | (sinks_in > 0))
        ptr = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pin_net[pin_in], minlength=m)[nets],
                  out=ptr[1:])
        driver = np.full(len(nets), -1, dtype=np.int32)
        inside = driver_in[nets]
        driver[inside] = new_id[view.driver[nets[inside]]]
        sub._net_names = [self._net_names[e] for e in nets.tolist()]
        sub._net_ids = _ids(sub._net_names)
        sub._pin_ptr = _buffer("q", ptr)
        sub._pins = _buffer("i", new_id[view.pins[pin_in]])
        sub._driver = _buffer("i", driver)
        sub._clock = _buffer("b", view.clock[nets])
        for net, out in zip(nets[cut[nets]].tolist(),
                            driver_in[nets[cut[nets]]].tolist()):
            net_name = self._net_names[net]
            sub.add_port(f"{net_name}__pin",
                         PortDirection.OUTPUT if out else PortDirection.INPUT,
                         net_name, bus=net_name.rsplit("[", 1)[0])
        # Preserve original top-level ports whose nets survived.
        for port in map(self._port, range(len(self._port_names))):
            if port.net in sub._net_ids and port.name not in sub._port_ids:
                sub.add_port(port.name, port.direction, port.net, port.bus)
        return sub
