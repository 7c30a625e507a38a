"""A netlist's storage: its object count, and invariants that fail loudly.

A netlist is a fixed set of buffers, lists and dicts, so the number of
objects the cyclic garbage collector tracks for it does not grow with
its size: not for a generated netlist, its clone, or one unpickled from
the result store.  Its invariants are checked on every unpickle, so a
corrupt state raises ``ValueError`` naming what is wrong, and a corrupt
store entry is a counted miss.
"""

import gc

import numpy as np
import pytest

from repro.arch import generate
from repro.arch.netlist import Netlist, PortDirection, _pack
from repro.core.request import EvalRequest, ServeResult, canonical_dumps
from repro.core.store import ContentStore
from tests.arch.test_netlist_equiv import records
from tests.chiplet.test_signoff_equiv import _netlist


def _tracked(netlist):
    """GC-tracked objects reachable from ``netlist``, leaving out its
    library, the library's cells and every type."""
    library = netlist.library
    skip = {id(library), *map(id, library.cells())}
    seen, stack, count = set(), [netlist], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skip or isinstance(obj, type):
            continue
        seen.add(id(obj))
        count += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return count


def _stored(root, netlist, scale):
    """``netlist`` put in a store under ``root`` and read back."""
    store = ContentStore(root)
    request = EvalRequest(kind="geometry", scale=scale)
    store.put(request, ServeResult(request=request,
                                   metrics={"netlist": netlist}))
    return store.get(request).metrics["netlist"]


@pytest.mark.parametrize("make", ["generated", "clone", "stored"])
def test_tracked_objects_do_not_grow_with_the_netlist(make, tmp_path):
    counts, sizes = [], []
    for scale in (0.012, 0.03):
        generate.clear_netlist_memo()
        netlist = generate.generate_chiplet_netlist("logic", scale=scale,
                                                    seed=7)
        if make == "generated":
            (netlist,) = generate._NETLIST_MEMO.values()
        elif make == "stored":
            netlist = _stored(tmp_path, netlist, scale)
        counts.append(_tracked(netlist))
        sizes.append(len(netlist))
    generate.clear_netlist_memo()
    assert sizes[1] > 2 * sizes[0]
    assert counts[0] == counts[1], (sizes, counts)


def _small():
    nl = _netlist([("f", "DFF_X1"), ("a", "INV_X1"), ("b", "NAND2_X1")],
                  [("d", "f", ["a", "b"]), ("in", None, ["f"]),
                   ("blank", "", ["b"]), ("q", "b", ["f"]),
                   ("open", None, [])])
    nl.add_port("in", PortDirection.INPUT, "in", bus="in")
    return nl


def _edit(field, index, value):
    def edit(state):
        array = state[field].copy()
        array[index] = value
        state[field] = array
    return edit


def _resize(field, size):
    def edit(state):
        state[field] = np.resize(state[field], size)
    return edit


def _set(field, value):
    def edit(state):
        state[field] = value
    return edit


def _ports(**changes):
    def edit(state):
        names, nets, buses, directions = state["ports"]
        state["ports"] = (changes.get("names", names),
                          changes.get("nets", nets), buses,
                          changes.get("directions", directions))
    return edit


#: (a corruption of ``_small()``'s state, the error it must raise).
CORRUPT = {
    "ptr_starts_above_zero": (_edit("pin_ptr", 0, 1), "start at 0"),
    "ptr_decreases": (_edit("pin_ptr", 1, 5), "never decrease"),
    "ptr_ends_short": (_edit("pin_ptr", -1, 6), "end at the pin count"),
    "pin_out_of_range": (_edit("pins", 3, 3), "'in' has pin id 3"),
    "pin_negative": (_edit("pins", 0, -1), "'d' has pin id -1"),
    "driver_out_of_range": (_edit("driver", 0, 7), "'d' has driver id 7"),
    "driver_below_none": (_edit("driver", 1, -2), "'in' has driver id -2"),
    "driver_not_first": (_edit("driver", 0, 1),
                         "'d' does not start with its driver"),
    "driver_of_no_pin": (_edit("driver", 4, 0),
                         "'open' does not start with its driver"),
    "cell_ids_short": (_resize("cell", 2), "cell array holds 2"),
    "module_ids_long": (_resize("module", 4), "module array holds 4"),
    "clock_short": (_resize("clock", 4), "clock array holds 4"),
    "driver_long": (_resize("driver", 6), "driver array holds 6"),
    "cell_id_out_of_table": (_edit("cell", 2, 3), "cell ids do not number"),
    "cells_out_of_order": (_set("cell", np.array([1, 0, 2], dtype=np.int32)),
                           "cell ids do not number"),
    "repeated_instance": (_set("instances", _pack(["f", "a", "a"])),
                          "repeated instance names"),
    "repeated_net": (_set("nets", _pack(["d", "in", "d", "q", "open"])),
                     "repeated net names"),
    "blank_out_of_range": (_set("blank_driver", np.array([9])),
                           "net id 9 has a blank driver"),
    "blank_and_driven": (_set("blank_driver", np.array([0])),
                         "net id 0 has a blank driver"),
    "port_net_missing": (_ports(nets=_pack(["ghost"])),
                         "port 'in' references missing net 'ghost'"),
    "port_direction": (_ports(directions=np.array([5], dtype=np.int8)),
                       "port 'in' has direction code 5"),
}


def test_the_uncorrupted_state_loads():
    nl = _small()
    back = Netlist.__new__(Netlist)
    back.__setstate__(nl.__getstate__())
    assert records(back) == records(nl)


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_a_corrupt_state_raises(case):
    edit, message = CORRUPT[case]
    state = _small().__getstate__()
    edit(state)
    with pytest.raises(ValueError, match=message):
        Netlist.__new__(Netlist).__setstate__(state)


def test_validate_reads_the_live_storage():
    nl = _small()
    nl.validate()
    nl._driver[2] = 0
    with pytest.raises(ValueError, match="'blank' does not start"):
        nl.validate()


def test_a_stored_netlist_with_a_pin_out_of_range_is_a_miss(tmp_path):
    store = ContentStore(tmp_path)
    request = EvalRequest(kind="geometry", scale=1.5)
    nl = _small()
    store.put(request, ServeResult(request=request, metrics={"netlist": nl}))
    assert records(store.get(request).metrics["netlist"]) == records(nl)
    nl._pins[3] = len(nl)
    bad = ServeResult(request=request, metrics={"netlist": nl})
    store.path_for(request.cache_token()).write_bytes(
        canonical_dumps(bad.canonical()))
    assert store.get(request) is None
    stats = store.stats()
    assert (stats.hits, stats.misses) == (1, 1)
