"""A pickled ``Netlist`` is its arrays (``Netlist.__getstate__``).

The state is the storage as arrays and packed name tables, so these
tests check what the arrays leave implicit: an unpickled netlist reads
exactly as the dict-of-records reference in ``tests/oracles/netlist.py``
built from the same records (records in order, ``nets_of``, ``cell()``,
``arrays()``, the statistics and the state itself); a ``""`` driver
stays apart from ``None``; and ports, repeated pins and odd characters
in names survive.  A placement and a route rebuild ``index_of`` and
``net_names`` from their netlist's prefix, so a chiplet stores each
name once, and the number of objects a pickled die saves does not grow
with its instance count, nor that of a pickled interposer route with
its route cells.
"""

import dataclasses
import io
import pickle

import pytest

from repro.arch.netlist import Netlist, PortDirection
from repro.chiplet.design import build_chiplet
from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import place
from repro.chiplet.route import global_route
from repro.core.request import _CanonicalPickler, canonical_dumps
from repro.interposer.routing import RoutedNet
from repro.tech.interposer import GLASS_25D
from repro.tech.stdcell import N28_LIB
from tests.arch.test_netlist_equiv import assert_same, replay
from tests.chiplet.test_signoff_equiv import _netlist, _random_netlist


def _assert_rebuilt(back, netlist):
    """``back`` reads as the reference built from ``netlist``'s
    records."""
    assert_same(back, replay(netlist))


def _round_trip(netlist):
    """Both picklers rebuild the netlist, and a rebuilt netlist
    pickles to the same bytes."""
    payload = canonical_dumps(netlist)
    for back in (pickle.loads(payload),
                 pickle.loads(pickle.dumps(netlist))):
        _assert_rebuilt(back, netlist)
        assert canonical_dumps(back) == payload
    return pickle.loads(payload)


def test_empty_netlist():
    back = _round_trip(Netlist("empty", N28_LIB))
    assert len(back) == 0 and not back.nets and not back.ports


def test_none_and_blank_drivers():
    nl = _netlist([("a", "INV_X1"), ("b", "NAND2_X1")],
                  [("n1", None, ["a"]), ("n2", "", ["b"]),
                   ("n3", "a", ["b"]), ("n4", "", [])])
    back = _round_trip(nl)
    assert [n.driver for n in back.nets.values()] == [None, "", "a", ""]


def test_sinkless_repeated_and_self_driven_nets():
    nl = _netlist([("f", "DFF_X1"), ("c", "INV_X1"), ("b", "XOR2_X1")],
                  [("dangling", "c", []), ("empty", None, []),
                   ("twice", "f", ["b", "b", "c", "b"]),
                   ("loop", "f", ["f", "c"]), ("self", "b", ["b"])])
    back = _round_trip(nl)
    assert back.net("twice").sinks == ["b", "b", "c", "b"]
    assert back.nets_of("f") == {"twice", "loop"}


def test_clock_nets():
    nl = _netlist([("ck", "CLKBUF_X8"), ("f1", "DFF_X1"), ("f2", "DFF_X2")],
                  [("clk", "ck", ["f1", "f2"], True),
                   ("clk_in", None, ["ck"], True), ("d", "f1", ["f2"])])
    back = _round_trip(nl)
    assert [n.is_clock for n in back.nets.values()] == [True, True, False]


def test_every_port_direction_and_an_empty_bus():
    nl = _netlist([("a", "INV_X1"), ("b", "INV_X1")],
                  [("in", None, ["a"]), ("mid", "a", ["b"]),
                   ("out", "b", [])])
    for direction, net, bus in zip(PortDirection, ("in", "out", "mid"),
                                   ("din", "", "io")):
        nl.add_port(f"{net}[0]", direction, net, bus)
    back = _round_trip(nl)
    assert [p.direction for p in back.ports.values()] == list(PortDirection)
    assert back.ports["out[0]"].bus == ""


def test_names_with_odd_characters():
    odd = ["é/ß[0]", "a\nb", "nul\0nul", "tile0/core[3]/u", "∑", ""]
    nl = Netlist("odd\n∑", N28_LIB)
    for i, name in enumerate(odd):
        nl.add_instance(name, "INV_X1", f"m/{name}[{i}]")
    for i, name in enumerate(odd):
        nl.add_net(f"{name}~{i}", name or None, odd[:i])
    nl.add_port("p\0[1]", PortDirection.INOUT, f"{odd[1]}~1", bus="b\nus")
    back = _round_trip(nl)
    assert list(back.instances) == odd


@pytest.mark.parametrize("seed", range(40))
def test_random_netlists(seed):
    _round_trip(_random_netlist(seed))


def test_netlist_grown_after_placement_and_routing():
    nl = _random_netlist(5)
    route = global_route(place(nl, floorplan(nl, 300, 300)))
    index_of, net_names = dict(route.placement.index_of), route.net_names
    nl.add_instance("late", "INV_X1", "t/a")
    nl.add_net("late_net", "late", ["u0"])
    back = pickle.loads(canonical_dumps(route))
    assert list(back.placement.index_of.items()) == list(index_of.items())
    assert back.net_names == net_names
    assert len(back.placement.netlist) == len(index_of) + 1
    _assert_rebuilt(back.placement.netlist, nl)


class _CountingPickler(_CanonicalPickler):
    """Counts the objects the canonical pickler saves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.saves = 0

    def save(self, obj, save_persistent_id=True):
        self.saves += 1
        return super().save(obj, save_persistent_id)


@pytest.mark.parametrize("kind", ["logic", "memory"])
def test_pickled_die_does_not_grow_with_its_instance_count(kind):
    # One die's netlist, placement and route (the route holds the
    # other two): with records pickled one by one, the count was
    # several per instance.
    saves, sizes = [], []
    for scale in (0.012, 0.03):
        chip = build_chiplet(kind, GLASS_25D, scale=scale, seed=7)
        pickler = _CountingPickler(io.BytesIO(),
                                   protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(chip.route)
        saves.append(pickler.saves)
        sizes.append(len(chip.netlist))
        back = pickle.loads(canonical_dumps(chip.route))
        assert back.net_names == chip.route.net_names
        assert list(back.placement.index_of.items()) == list(
            chip.placement.index_of.items())
    assert sizes[1] > 2 * sizes[0]
    assert saves[1] == saves[0], (sizes, saves)


def _saves(obj):
    pickler = _CountingPickler(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
    pickler.dump(obj)
    return pickler.saves


def test_pickled_route_grows_with_its_nets_not_its_cells(silicon_design):
    # Each net's path pickles as one array: with a tuple per route
    # cell, the count was several per cell.
    route = silicon_design.route
    cells = sum(len(n.path) for n in route.nets)
    assert cells > 20 * len(route.nets)
    stubs = dataclasses.replace(route, nets=[
        dataclasses.replace(n, path=n.path[:1]) for n in route.nets])
    half = dataclasses.replace(route, nets=route.nets[::2])
    assert _saves(stubs) == _saves(route)
    assert _saves(half) < _saves(route)
    back = pickle.loads(canonical_dumps(route))
    assert [n.path for n in back.nets] == [n.path for n in route.nets]
    assert {type(v) for n in back.nets for cell in n.path
            for v in (cell, *cell)} == {tuple, int}
    assert canonical_dumps(back) == canonical_dumps(route)
    via = RoutedNet("v0", "stacked_via", 0.05, 2, {0, 1})
    assert pickle.loads(canonical_dumps(via)) == via
