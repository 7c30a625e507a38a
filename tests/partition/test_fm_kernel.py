"""The compiled and portable FM engines against the dict-based reference.

``fm_bipartition`` runs its passes on the compiled ``fm_run`` when the
kernel loads and on the portable Python pass otherwise.  Both must give
the result of the golden reference (``tests/oracles/fm.py``) exactly:
assignment values and key order, cut nets, pass count and cut history.
The random netlists cover duplicate sinks (and drivers that are also
sinks), driverless nets, nets with zero or one pin, instances on no net,
tolerances 0.05-0.49, 1-8 passes, random starts with 1 or 3 restarts,
and given initial assignments.  ``recursive_bisection`` and
``nway_partition``, which carve their sub-problems out of one array
view of the netlist, are checked against the reference on the tile and
system netlists of ``test_nway.py``.
"""

import logging
import random

import pytest

from repro.arch.generate import (generate_monolithic_netlist,
                                 generate_tile_netlist)
from repro.arch.netlist import Netlist
from repro import _kernel as mazekernel
from repro.partition import fm, multiway
from repro.partition.fm import fm_bipartition
from repro.tech.stdcell import N28_LIB
from tests.oracles import fm as oracle

CELLS = ("INV_X1", "NAND2_X2", "AOI22_X1", "FA_X1", "DFF_X2",
         "SRAM_SLICE_32b", "SRAM_SLICE_64b")

#: Random cases per parametrized block.
BLOCK = 25


def random_netlist(rng: random.Random) -> Netlist:
    """A small netlist whose instance and net names sort differently
    from their insertion order, with every awkward net shape."""
    nl = Netlist("random", N28_LIB)
    names = [f"u{rng.randrange(1000):03d}_{i}"
             for i in range(rng.randint(2, 36))]
    for name in names:
        nl.add_instance(name, rng.choice(CELLS))
    # A few instances stay on no net.
    wired = [n for n in names if rng.random() < 0.9] or names[:1]
    for j in range(rng.randint(0, 3 * len(names))):
        shape = rng.random()
        if shape < 0.05:        # no pin at all
            driver, sinks = None, []
        elif shape < 0.12:      # one pin
            driver, sinks = ((rng.choice(wired), []) if rng.random() < 0.5
                             else (None, [rng.choice(wired)]))
        else:
            driver = rng.choice(wired) if rng.random() < 0.85 else None
            # Sampled with replacement: duplicate sinks, and sometimes
            # the driver itself.
            sinks = [rng.choice(wired)
                     for _ in range(rng.randint(1, min(6, len(wired))))]
        nl.add_net(f"n{rng.randrange(1000):03d}_{j}", driver, sinks)
    return nl


def random_case(seed: int):
    """(netlist, ``fm_bipartition`` keyword arguments) of one case."""
    rng = random.Random(seed)
    nl = random_netlist(rng)
    kwargs = {"balance_tolerance": rng.uniform(0.05, 0.49),
              "max_passes": rng.randint(1, 8)}
    if rng.random() < 0.35:
        names = list(nl.instances)
        rng.shuffle(names)
        kwargs["initial"] = {n: rng.randint(0, 1) for n in names}
    else:
        kwargs["seed"] = rng.randrange(10 ** 6)
        kwargs["restarts"] = rng.choice((1, 3))
    return nl, kwargs


def assert_same_result(got, want, context=""):
    assert list(got.assignment.items()) == list(want.assignment.items()), \
        context
    assert got.cut_nets == want.cut_nets, context
    assert got.passes == want.passes, context
    assert got.cut_history == want.cut_history, context


def check_block(block: int) -> None:
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        nl, kwargs = random_case(seed)
        assert_same_result(fm_bipartition(nl, **kwargs),
                           oracle.fm_bipartition(nl, **kwargs),
                           f"case {seed}: {kwargs}")


@pytest.fixture
def kernel():
    """The loaded kernel; skips without a C compiler."""
    loaded = mazekernel.load_kernel()
    if loaded is None:
        pytest.skip("no C compiler: the FM kernel is unavailable")
    return loaded


@pytest.mark.parametrize("block", range(8))
def test_compiled_engine_matches_reference(block, kernel, monkeypatch):
    def portable(*args):
        raise AssertionError("the portable pass ran")
    monkeypatch.setattr(fm, "_passes_portable", portable)
    check_block(block)


@pytest.mark.parametrize("block", range(8))
def test_portable_engine_matches_reference(block, no_ccompile):
    assert mazekernel.load_kernel() is None
    check_block(block)


def test_failed_allocation_reruns_on_portable_pass(kernel, monkeypatch,
                                                   caplog):
    calls = []

    def failing(*args):
        calls.append(args)
        return -1
    monkeypatch.setattr(mazekernel, "_kernel", kernel._replace(fm=failing))
    monkeypatch.setattr(fm, "_alloc_failure_logged", False)
    with caplog.at_level(logging.WARNING, logger=fm.__name__):
        for seed in range(3):
            nl, kwargs = random_case(seed)
            assert_same_result(fm_bipartition(nl, **kwargs),
                               oracle.fm_bipartition(nl, **kwargs))
    assert len(calls) >= 3
    assert len([r for r in caplog.records
                if "compiled FM failed" in r.getMessage()]) == 1


def test_many_passes_run_in_chunks(kernel, monkeypatch):
    # A history buffer of 2 forces every run through several fm_run
    # calls, each resuming from the rolled-forward assignment.
    monkeypatch.setattr(fm, "_CHUNK", 2)
    for seed in range(2 * BLOCK):
        nl, kwargs = random_case(seed)
        assert_same_result(fm_bipartition(nl, **kwargs),
                           oracle.fm_bipartition(nl, **kwargs),
                           f"case {seed}: {kwargs}")


@pytest.mark.parametrize("value", [2, -1, "1", None])
def test_initial_values_checked_before_the_kernel(value, monkeypatch):
    # A 2 made the reference fail with IndexError; in the kernel any
    # value but 0 or 1 would index out of bounds.
    def unreachable(*args):
        raise AssertionError("an unchecked start reached the pass loop")
    monkeypatch.setattr(fm, "_run_passes", unreachable)
    nl, _ = random_case(0)
    initial = {n: 0 for n in nl.instances}
    initial[next(iter(initial))] = value
    with pytest.raises(ValueError, match="must be 0 or 1"):
        fm_bipartition(nl, initial=initial)


@pytest.fixture(scope="module")
def tile():
    return generate_tile_netlist(scale=0.015, seed=3)


@pytest.fixture(scope="module")
def system():
    return generate_monolithic_netlist(scale=0.012, seed=2023)


@pytest.mark.parametrize("netlist", ["tile", "system"])
@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("function", ["recursive_bisection",
                                      "nway_partition"])
def test_multiway_matches_reference(function, k, netlist, request):
    nl = request.getfixturevalue(netlist)
    got = getattr(multiway, function)(nl, k, seed=7)
    want = getattr(oracle, function)(nl, k, seed=7)
    assert list(got.assignment.items()) == list(want.assignment.items())
    assert got.k == want.k == k
    assert got.cut_nets == want.cut_nets
