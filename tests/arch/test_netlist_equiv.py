"""The columnar ``Netlist`` equals the dict-of-records reference.

``tests/oracles/netlist.py`` keeps a netlist as one record object per
instance, net and port; production keeps the integer arrays and builds
records on lookup.  Each test makes both from the same ``add_*`` calls
and compares all a caller reads: the records in order, ``arrays()`` by
dtype, shape and bytes, the queries and statistics, and the pickled
state as canonical bytes.  ``subset`` is compared the same way on
random keep sets, the empty and the full set, every keep set of a
netlist whose nets are driven by ``None``, ``""`` and their own sinks,
with repeated sinks and clock nets, and on the tile's own
logic/memory split.  A clone is independent of its source through
``add_*`` on either side.
"""

import itertools
import random

import numpy as np
import pytest

from repro.arch.generate import generate_tile_netlist
from repro.arch.netlist import Netlist, PortDirection
from repro.core.request import canonical_dumps
from repro.partition.hierarchical import hierarchical_assignment
from repro.tech.stdcell import N28_LIB
from tests.chiplet.test_signoff_equiv import _netlist, _random_netlist
from tests.oracles import netlist as oracle


def records(netlist):
    """Every instance, net and port record, in order, as tuples."""
    return ([(i.name, i.cell_name, i.module_path)
             for i in netlist.instances.values()],
            [(n.name, n.driver, n.sinks, n.is_clock)
             for n in netlist.nets.values()],
            [(p.name, p.direction, p.net, p.bus)
             for p in netlist.ports.values()])


def replay(netlist, cls=oracle.Netlist):
    """A ``cls`` netlist made by the ``add_*`` calls that rebuild
    ``netlist``'s records."""
    out = cls(netlist.name, netlist.library)
    for inst in netlist.instances.values():
        out.add_instance(inst.name, inst.cell_name, inst.module_path)
    for net in netlist.nets.values():
        out.add_net(net.name, net.driver, net.sinks, net.is_clock)
    for port in netlist.ports.values():
        out.add_port(port.name, port.direction, port.net, port.bus)
    return out


def assert_same(new, old):
    """``new`` (production) reads exactly as ``old`` (the reference)."""
    assert type(new) is Netlist and type(old) is oracle.Netlist
    assert (new.name, new.library.name) == (old.name, old.library.name)
    assert records(new) == records(old)
    assert all(key == record.name for records_ in (
        new.instances, new.nets, new.ports)
        for key, record in records_.items())
    view, ref = new.arrays(), oracle._build_arrays(old)
    for field, a, b in zip(view._fields, view, ref):
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes(), a.flags.writeable) == (
                b.dtype, b.shape, b.tobytes(), False), field
        else:
            assert a == b, field
    assert len(new) == len(old)
    for name in old.instances:
        assert new.nets_of(name) == old.nets_of(name), name
        assert new.cell(name) == old.cell(name), name
    assert new.module_paths() == old.module_paths()
    assert canonical_dumps(new.__getstate__()) == canonical_dumps(
        old.__getstate__())


def _both(build):
    """``build(cls)`` for production and for the reference."""
    return build(Netlist), build(oracle.Netlist)


def _with_ports(cls):
    """Nets driven by ``None``, ``""``, a sink of their own and a plain
    driver; repeated sinks, a clock net, a sinkless net, and parent
    ports, one named as a cut net's synthesized port is."""
    nl = _netlist([("f", "DFF_X1"), ("a", "INV_X1"), ("b", "NAND2_X1"),
                   ("c", "XOR2_X1"), ("k", "CLKBUF_X8")],
                  [("in[0]", None, ["a", "a"]), ("blank", "", ["b"]),
                   ("self", "b", ["b", "c"]), ("d[3]", "a", ["b", "c", "b"]),
                   ("clk", "k", ["f"], True), ("out", "c", []),
                   ("q", "f", ["a", "f"])], cls=cls)
    nl.add_port("in[0]", PortDirection.INPUT, "in[0]", bus="in")
    nl.add_port("out", PortDirection.OUTPUT, "out", bus="out")
    nl.add_port("d[3]__pin", PortDirection.INOUT, "d[3]", bus="d")
    nl.add_port("blank", PortDirection.INPUT, "blank")
    return nl


HAND = {
    "empty": lambda cls: cls("empty", N28_LIB),
    "none_and_blank": lambda cls: _netlist(
        [("a", "INV_X1"), ("b", "NAND2_X1")],
        [("n1", None, ["a"]), ("n2", "", ["b"]), ("n3", "a", ["b"]),
         ("n4", "", [])], cls=cls),
    "sinkless_repeated_self": lambda cls: _netlist(
        [("f", "DFF_X1"), ("c", "INV_X1"), ("b", "XOR2_X1")],
        [("dangling", "c", []), ("empty", None, []),
         ("twice", "f", ["b", "b", "c", "b"]), ("loop", "f", ["f", "c"]),
         ("self", "b", ["b"])], cls=cls),
    "clock": lambda cls: _netlist(
        [("ck", "CLKBUF_X8"), ("f1", "DFF_X1"), ("f2", "DFF_X2")],
        [("clk", "ck", ["f1", "f2"], True), ("clk_in", None, ["ck"], True),
         ("d", "f1", ["f2"])], cls=cls),
    "ports": _with_ports,
}


@pytest.mark.parametrize("case", sorted(HAND))
def test_hand_built(case):
    assert_same(*_both(HAND[case]))


def test_odd_names_and_modules():
    def build(cls):
        odd = ["é/ß[0]", "a\nb", "nul\0nul", "tile0/core[3]/u", "∑", ""]
        nl = cls("odd\n∑", N28_LIB)
        for i, name in enumerate(odd):
            nl.add_instance(name, "INV_X1", f"m/{name}[{i}]")
        for i, name in enumerate(odd):
            nl.add_net(f"{name}~{i}", name or None, odd[:i])
        nl.add_port("p\0[1]", PortDirection.INOUT, f"{odd[1]}~1",
                    bus="b\nus")
        return nl
    assert_same(*_both(build))


@pytest.mark.parametrize("seed", range(40))
def test_random_netlists(seed):
    new, old = _random_netlist(seed), _random_netlist(seed, oracle.Netlist)
    assert_same(new, old)
    rng = random.Random(seed)
    names = list(old.instances)
    keeps = [rng.sample(names, rng.randint(1, len(names)))
             for _ in range(4)] + [[], names, names[::-1]]
    for keep in keeps:
        assert_same(new.subset(keep, name="part"),
                    old.subset(keep, name="part"))


def test_every_keep_set_of_the_cutting_cases():
    new, old = _both(_with_ports)
    names = list(old.instances)
    for size in range(len(names) + 1):
        for keep in itertools.combinations(names, size):
            assert_same(new.subset(keep), old.subset(keep))


def test_subset_of_a_subset_renumbers_cells_and_modules():
    new, old = _random_netlist(11), _random_netlist(11, oracle.Netlist)
    names = list(old.instances)[::-3]
    new_sub, old_sub = new.subset(names), old.subset(names)
    assert_same(new_sub, old_sub)
    assert_same(new_sub.subset(names[1::2]), old_sub.subset(names[1::2]))


def test_tile_split():
    tile = generate_tile_netlist(scale=0.012, seed=7)
    ref = replay(tile)
    assert_same(tile, ref)
    assignment = hierarchical_assignment(tile)
    for part in (0, 1):
        keep = [n for n, p in assignment.items() if p == part]
        assert_same(tile.subset(keep, name=f"p{part}"),
                    ref.subset(keep, name=f"p{part}"))


def test_unknown_name_raises_the_same_key_error():
    new, old = _both(_with_ports)
    errors = []
    for netlist in (new, old):
        with pytest.raises(KeyError) as info:
            netlist.subset(["a", "zz", "ghost", "b"])
        errors.append(info.value.args)
    assert errors[0] == errors[1] == ("ghost",)


def _grow(netlist):
    netlist.add_instance("late", "INV_X2", "elsewhere")
    netlist.add_net("late_net", "late", ["a", "late"], is_clock=True)
    netlist.add_net("late_blank", "", ["late"])
    netlist.add_port("late_pin", PortDirection.OUTPUT, "late_net")


@pytest.mark.parametrize("side", ["source", "twin"])
def test_clone_is_independent_through_add(side):
    source, ref = _both(_with_ports)
    source.arrays()
    twin, ref_twin = source.clone(name="twin"), ref.clone(name="twin")
    pairs = [(source, ref), (twin, ref_twin)]
    if side == "twin":
        pairs.reverse()
    (grown, ref_grown), (other, ref_other) = pairs
    _grow(grown)
    _grow(ref_grown)
    assert_same(grown, ref_grown)
    assert_same(other, ref_other)
    assert "late" not in other.instances and "late_pin" not in other.ports
