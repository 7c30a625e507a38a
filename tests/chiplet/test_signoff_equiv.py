"""Chiplet sign-off over ``Netlist.arrays()`` equals the name-keyed
references in ``tests/oracles/signoff.py`` byte for byte.

Floorplan, placement, global route, STA, power and the power-density
map are compared as ``canonical_dumps`` bytes, which record every
float's bits and every value's type (``PowerReport.switching_mw`` is a
``numpy.float64``, ``leakage_mw`` a Python float).  The netlists are the
flow's own dies (logic and memory, two scales, two seeds, three
interposers), the monolithic netlist, the nine parts of the 9-die point,
and hand-built netlists for the corner cases of the STA's tie-breaking,
the net-pin layout and the view's lifetime.  Hand-built netlists also
run on a placement that stacks every instance on one point: every net
then has zero wire length, so equal cells give exactly equal arrival
times and the tie-breaks decide the critical path.

The STA runs on two engines: the compiled ``sta_pass`` when the kernel
loads, and the Python pass without it.  Every timing comparison below
checks both against the reference, the second with the kernel refused
as on a machine without a C compiler (``REPRO_NO_CCOMPILE``), so each
test keeps one name and covers both; a spy checks that a chiplet built
with the kernel loaded never enters the Python pass.

Before sign-off the flow calls ``total_cell_area_um2``; these tests do
the same.  Pickling leaves out a placement's ``index_of`` and a route's
``net_names``, which unpickling rebuilds from the netlist, so those are
compared with the references' directly.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

import repro._kernel as kernel
import repro.chiplet.timing as timing
from repro.arch.generate import generate_monolithic_netlist
from repro.arch.netlist import Netlist
from repro.chiplet.design import build_chiplet, build_chiplet_from_netlist
from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import Placement, place
from repro.chiplet.power import analyze_power, power_density_map
from repro.chiplet.route import GlobalRoute, global_route
from repro.chiplet.timing import analyze_timing
from repro.partition.fm import hypergraph
from repro.partition.multiway import nway_partition
from repro.serve.protocol import canonical_dumps
from repro.tech.interposer import APX, GLASS_25D, SILICON_25D
from repro.tech.stdcell import N28_LIB
from tests.oracles import signoff as oracle

PRODUCTION = SimpleNamespace(
    floorplan=floorplan, place=place, global_route=global_route,
    analyze_timing=analyze_timing, analyze_power=analyze_power,
    power_density_map=power_density_map)


def _same(stage, new, old):
    assert canonical_dumps(new) == canonical_dumps(old), stage
    if isinstance(new, Placement):
        assert list(new.index_of.items()) == list(old.index_of.items())
    if isinstance(new, GlobalRoute):
        assert new.net_names == old.net_names


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the text of its ``ValueError``."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _signoff(engine, route):
    """Timing, power and power map of a route (or their errors)."""
    report = _outcome(engine.analyze_timing, route)
    power = engine.analyze_power(route)
    return report, power, engine.power_density_map(route, power)


def _portable_timing(route):
    """The STA outcome with the compiled kernel refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(kernel.ENV_DISABLE, "1")
        kernel._reset_for_tests()
        try:
            return _outcome(analyze_timing, route)
        finally:
            kernel._reset_for_tests()  # the next call loads it again


def _check_tail(route, old_route):
    """Route onwards, production against the references."""
    _same("route", route, old_route)
    new = _signoff(PRODUCTION, route)
    old = _signoff(oracle, old_route)
    for stage, a, b in zip(("timing", "power", "power map"), new, old):
        _same(stage, a, b)
    _same("portable timing", _portable_timing(route), old[0])
    return new[0]


def _check_chiplet(chip):
    """A built chiplet's stages against the references run on its
    netlist."""
    netlist = chip.netlist
    width = chip.bump_plan.width_mm * 1000.0
    fp = oracle.floorplan(netlist, width, width)
    _same("floorplan", chip.floorplan, fp)
    pl = oracle.place(netlist, fp)
    _same("placement", chip.placement, pl)
    route = oracle.global_route(pl)
    _same("route", chip.route, route)
    old = _signoff(oracle, route)
    _same("timing", chip.timing, old[0])
    _same("portable timing", _portable_timing(chip.route), old[0])
    _same("power", chip.power, old[1])
    _same("power map", power_density_map(chip.route, chip.power), old[2])


def _check(netlist, width_um=300.0, core_margin_um=20.0):
    """Every stage of a netlist, on the placer's placement and on a
    stacked one; returns the two timing outcomes."""
    netlist.total_cell_area_um2()
    fp = floorplan(netlist, width_um, width_um, core_margin_um)
    old_fp = oracle.floorplan(netlist, width_um, width_um, core_margin_um)
    _same("floorplan", fp, old_fp)
    pl = place(netlist, fp)
    _same("placement", pl, oracle.place(netlist, old_fp))
    placed = _check_tail(global_route(pl), oracle.global_route(pl))
    n = len(netlist)
    stacked = Placement(netlist=netlist, floorplan=fp,
                        index_of=dict(pl.index_of),
                        x_um=np.full(n, 50.0), y_um=np.full(n, 50.0))
    return placed, _check_tail(global_route(stacked),
                               oracle.global_route(stacked))


# ---------------------------------------------------------------------- #
# The flow's netlists.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("spec", [GLASS_25D, SILICON_25D, APX],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("kind", ["logic", "memory"])
@pytest.mark.parametrize("scale", [0.012, 0.05])
@pytest.mark.parametrize("seed", [7, 2023])
def test_paper_dies(spec, kind, scale, seed):
    _check_chiplet(build_chiplet(kind, spec, scale=scale, seed=seed))


def test_monolithic_netlist():
    netlist = generate_monolithic_netlist(scale=0.02, seed=7)
    # The die size run_monolithic gives it.
    width = max((netlist.total_cell_area_um2() / 0.725) ** 0.5 + 40.0,
                200.0)
    _check(netlist, width_um=width)


@pytest.fixture(scope="module")
def nine_die_system():
    system = generate_monolithic_netlist(scale=0.02, seed=7)
    return system, nway_partition(system, 9, seed=7)


def test_nine_die_hypergraph(nine_die_system):
    # The pins and their offsets are the view's read-only arrays, which
    # pickle differently from writable ones: compare dtype, shape and
    # bytes.
    system, _ = nine_die_system
    graph, names, net_names = hypergraph(system)
    old_graph, old_names, old_net_names = oracle.hypergraph(system)
    for field, new, old in zip(graph._fields, graph, old_graph):
        assert (new.dtype, new.shape, new.tobytes()) == (
            old.dtype, old.shape, old.tobytes()), field
    assert list(names) == old_names
    assert list(net_names) == old_net_names


@pytest.mark.parametrize("part", range(9))
def test_nine_die_parts(nine_die_system, part):
    system, partition = nine_die_system
    chip = build_chiplet_from_netlist(
        system.subset(partition.part(part), name=f"chiplet{part}"),
        GLASS_25D)
    _check_chiplet(chip)


def test_built_chiplets_never_run_the_python_sta_pass(monkeypatch):
    if kernel.load_kernel() is None:
        pytest.skip("no C compiler available")

    def _refuse(*_args):
        raise AssertionError("the STA ran its Python pass")

    monkeypatch.setattr(timing, "_sta_pass_portable", _refuse)
    for kind in ("logic", "memory"):
        chip = build_chiplet(kind, GLASS_25D, scale=0.012, seed=7)
        assert chip.timing.levels > 1


# ---------------------------------------------------------------------- #
# Hand-built netlists.
# ---------------------------------------------------------------------- #


def _netlist(cells, nets, module="m", cls=Netlist):
    """``cells``: (name, cell); ``nets``: (name, driver, sinks[, clock]);
    ``cls`` the netlist class to build."""
    nl = cls("hand", N28_LIB)
    for name, cell in cells:
        nl.add_instance(name, cell, module)
    for name, driver, sinks, *clock in nets:
        nl.add_net(name, driver, sinks, is_clock=bool(clock and clock[0]))
    return nl


def test_sta_tie_between_two_fanins():
    # b and d are equal and equally loaded, so both arcs into a arrive
    # at the same time; the first one relaxed keeps a.
    nl = _netlist([("b", "INV_X1"), ("d", "INV_X1"), ("a", "NAND2_X1"),
                   ("ff", "DFF_X1")],
                  [("n1", "b", ["a"]), ("n2", "d", ["a"]),
                   ("n3", "a", ["ff"])])
    _, stacked = _check(nl)
    assert stacked.critical_path == ["b", "a"]


def test_sta_tie_between_two_flop_fanins():
    nl = _netlist([("f1", "DFF_X1"), ("f2", "DFF_X1"), ("c", "NAND2_X1"),
                   ("f3", "DFF_X1")],
                  [("n1", "f1", ["c"]), ("n2", "f2", ["c"]),
                   ("n3", "c", ["f3"])])
    _, stacked = _check(nl)
    assert stacked.critical_path == ["f1", "c"]


def test_flops_leave_the_queue_before_fanin_free_cells():
    # c comes first in instance order but is queued after the flops, so
    # f's arc makes x ready only after y, c's other sink, when the queue
    # is seeded in instance order.  x and y end at equal arrival times,
    # and the one that leaves the queue first ends the critical path.
    loads = [(f"i{k}", "INV_X1") for k in range(5)]
    nl = _netlist([("c", "FA_X1"), ("f", "DFF_X1"), ("x", "INV_X1"),
                   ("y", "INV_X1"), ("g1", "DFF_X1"), ("g2", "DFF_X1")]
                  + loads,
                  [("n1", "c", ["x", "y"] + [name for name, _ in loads]),
                   ("n2", "f", ["x"]), ("n3", "x", ["g1"]),
                   ("n4", "y", ["g2"])])
    _, stacked = _check(nl)
    assert stacked.critical_path == ["c", "x"]


def test_two_end_points_with_equal_arrival():
    # y and x end at output ports with equal arrival times.  x comes
    # first in instance order, y first got its arrival time (p, its
    # driver, leaves the queue before q); the scan in arrival order
    # keeps y.
    nl = _netlist([("x", "INV_X1"), ("y", "INV_X1"), ("p", "INV_X1"),
                   ("q", "INV_X1")],
                  [("n1", "p", ["y"]), ("n2", "q", ["x"])])
    _, stacked = _check(nl)
    assert stacked.critical_path == ["p", "y"]


def test_two_flop_end_points_with_equal_arrival():
    nl = _netlist([("b", "FA_X1"), ("d", "FA_X1"), ("f1", "DFF_X1"),
                   ("f2", "DFF_X1")],
                  [("n1", "b", ["f1"]), ("n2", "d", ["f2"])])
    _, stacked = _check(nl)
    assert stacked.critical_path == ["b"]


def test_flop_that_drives_its_own_input():
    nl = _netlist([("f", "DFF_X1"), ("c", "INV_X1"), ("g", "DFF_X1")],
                  [("loop", "f", ["f", "c"]), ("n", "c", ["g"])])
    placed, stacked = _check(nl)
    assert placed.critical_path == stacked.critical_path == ["f", "c"]


def test_combinational_cell_that_drives_its_own_input():
    nl = _netlist([("f", "DFF_X1"), ("c", "NAND2_X1"), ("g", "DFF_X1")],
                  [("a", "f", ["c"]), ("loop", "c", ["c", "g"])])
    placed, _ = _check(nl)
    assert placed == ("ValueError", "combinational cycle detected "
                      "involving 1 nodes, e.g. ['c']")


def test_cycle_error_text():
    cells = [(f"c{i}", "INV_X1") for i in range(6)] + [("f", "DFF_X1")]
    nets = [("n0", "c0", ["c1"]), ("n1", "c1", ["c2", "c4"]),
            ("n2", "c2", ["c0"]), ("n3", "f", ["c0", "c5"]),
            ("n4", "c4", ["c3"]), ("n5", "c5", ["f"])]
    placed, stacked = _check(_netlist(cells, nets))
    assert placed == stacked == (
        "ValueError", "combinational cycle detected involving 5 nodes, "
        "e.g. ['c0', 'c1', 'c2']")


def test_repeated_sinks():
    nl = _netlist([("f", "DFF_X1"), ("a", "NAND2_X1"), ("b", "XOR2_X1"),
                   ("g", "DFF_X1")],
                  [("n1", "f", ["a", "a", "b"]), ("n2", "a", ["b", "b"]),
                   ("n3", "b", ["g", "g"])])
    placed, _ = _check(nl)
    assert placed.critical_path == ["f", "a", "b"]


def test_driverless_and_sinkless_nets():
    nl = _netlist([("a", "INV_X1"), ("b", "NAND2_X1"), ("f", "DFF_X1")],
                  [("in", None, ["a", "b"]), ("dangling", "b", []),
                   ("empty", None, []), ("n", "a", ["b", "f"]),
                   ("in2", None, ["f"])])
    _check(nl)


def test_all_nets_sinkless():
    nl = _netlist([("a", "INV_X1"), ("b", "NAND2_X1")],
                  [("n1", "a", []), ("n2", "b", []), ("n3", None, [])])
    _check(nl)
    route = global_route(place(nl, floorplan(nl, 300, 300)))
    assert route.pin_cap_ff.dtype == np.int64  # Python's sum of nothing


def test_clock_nets():
    nl = _netlist([("ck", "CLKBUF_X8"), ("f1", "DFF_X1"), ("a", "INV_X1"),
                   ("f2", "DFF_X2"), ("s", "SRAM_SLICE_32b")],
                  [("clk", "ck", ["f1", "f2", "s"], True),
                   ("clk_in", None, ["ck"], True),
                   ("d", "f1", ["a"]), ("q", "a", ["f2", "s"]),
                   ("r", "s", ["a"])])
    placed, _ = _check(nl)
    assert "ck" not in placed.critical_path


def test_all_sequential_netlist():
    nl = _netlist([("f1", "DFF_X1"), ("f2", "SDFF_X1"),
                   ("s", "SRAM_SLICE_64b"), ("f3", "DFF_X2")],
                  [("n1", "f1", ["f2", "s"]), ("n2", "s", ["f3"]),
                   ("n3", "f3", ["f1"])])
    placed, stacked = _check(nl)
    assert placed.levels == stacked.levels == 1


def test_netlist_changed_after_its_view_was_built():
    nl = _netlist([("f", "DFF_X1"), ("a", "INV_X1"), ("b", "INV_X1"),
                   ("g", "DFF_X1")],
                  [("n1", "f", ["a"]), ("n2", "a", ["g"])])
    _check(nl)
    stale = nl.arrays()
    nl.add_net("n3", "a", ["b"])
    nl.add_net("n4", "b", ["g"])
    placed, _ = _check(nl)
    assert nl.arrays() is not stale
    assert nl.arrays().driver.tolist() == [0, 1, 1, 2]
    assert placed.critical_path == ["f", "a", "b"]


def test_stale_route_is_refused():
    nl = _netlist([("a", "INV_X1"), ("b", "INV_X1")], [("n1", "a", ["b"])])
    route = global_route(place(nl, floorplan(nl, 300, 300)))
    nl.add_net("n2", "b", ["a"])
    for stage in (analyze_timing, analyze_power):
        with pytest.raises(ValueError, match="route it again"):
            stage(route)


def _random_netlist(seed, cls=Netlist):
    """A random acyclic ``cls`` netlist: instances added in a shuffled
    order, three modules, clock, port-driven, dangling and repeated
    pins."""
    rng = random.Random(seed)
    comb = ["INV_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1", "FA_X1", "BUF_X4"]
    seq = ["DFF_X1", "DFF_X2", "SRAM_SLICE_64b"]
    count = rng.randint(12, 40)
    kinds = [rng.choice(seq if rng.random() < 0.3 else comb)
             for _ in range(count)]
    is_seq = [k in seq for k in kinds]
    nl = cls(f"rand{seed}", N28_LIB)
    order = list(range(count))
    rng.shuffle(order)
    for i in order:
        nl.add_instance(f"u{i}", kinds[i], rng.choice(["t/a", "t/b", ""]))
    for e in range(rng.randint(count // 2, 2 * count)):
        d = rng.randrange(count)
        # Combinational arcs only run to higher indices: no cycles.
        later = [j for j in range(count) if j > d or is_seq[j]
                 or is_seq[d]]
        sinks = [f"u{j}" for j in rng.choices(later or [d],
                                              k=rng.randint(0, 4))]
        if not later:
            sinks = []
        driver = None if rng.random() < 0.1 else f"u{d}"
        nl.add_net(f"n{e}", driver, sinks, is_clock=rng.random() < 0.05)
    return nl


@pytest.mark.parametrize("seed", range(40))
def test_random_netlists(seed):
    _check(_random_netlist(seed))
