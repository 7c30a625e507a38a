"""The compiled transient loop against the numpy loop, byte for byte.

:func:`repro.circuit.transient.simulate` steps on the kernel's
``transient_run`` when the kernel and scipy's ``dgetrs`` load and the
circuit has no mutual inductors, and on its numpy loop otherwise.  The
two must give the same bits (time axis, every recorded voltage and
current) and the same solver counters, and fail the same way on a
non-finite right-hand side.  Compiled cases skip without a C compiler.
"""

import logging
import math
import random

import numpy as np
import pytest
from scipy.linalg import cython_lapack

from repro import _kernel
from repro.circuit import transient
from repro.circuit.elements import Circuit
from repro.circuit.mna import SOLVER_COUNTERS, reset_solver_counters
from repro.circuit.waveforms import Waveform, dc, pulse, step
from tests.oracles import simulate_scalar

REL_TOL = 1e-9
NAN_MESSAGE = "array must not contain infs or NaNs"


@pytest.fixture
def compiled():
    """Skips when the compiled loop is unavailable."""
    if transient._compiled_engine() is None:
        pytest.skip("no C compiler: the transient kernel is unavailable")


@pytest.fixture
def engine_calls(monkeypatch):
    """How many runs stepped on the compiled loop."""
    calls = []
    real = transient._step_compiled

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transient, "_step_compiled", spy)
    return calls


def run(build, use_kernel, **kwargs):
    """``simulate`` on a freshly built circuit, on the compiled loop or
    the numpy loop; the result and the counters the run added."""
    saved = transient._compiled_engine
    if not use_kernel:
        transient._compiled_engine = lambda: None
    try:
        reset_solver_counters()
        result = transient.simulate(build(), **kwargs)
        return result, dict(SOLVER_COUNTERS)
    finally:
        transient._compiled_engine = saved


def assert_same_bits(a, b):
    assert a.time.tobytes() == b.time.tobytes()
    assert list(a.voltages) == list(b.voltages)
    for name in a.voltages:
        assert a.voltages[name].tobytes() == b.voltages[name].tobytes(), \
            name
    assert list(a.vsource_currents) == list(b.vsource_currents)
    for name in a.vsource_currents:
        assert (a.vsource_currents[name].tobytes()
                == b.vsource_currents[name].tobytes()), name


def sine(offset: float, amplitude: float, frequency: float,
         delay: float = 0.0) -> Waveform:
    """SPICE SIN source."""
    if frequency <= 0:
        raise ValueError("frequency must be positive")

    def wave(t: float) -> float:
        if t < delay:
            return offset
        return offset + amplitude * math.sin(
            2 * math.pi * frequency * (t - delay))

    def sample(times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = offset + amplitude * np.sin(
            2 * math.pi * frequency * (t - delay))
        out[t < delay] = offset
        return out

    wave.sample = sample
    return wave


def _wave(rng, scale):
    kind = rng.randrange(5)
    if kind == 0:
        return dc(rng.choice([scale, -0.0, -scale]))
    if kind == 1:
        return step(scale, t_start=rng.uniform(0, 2e-9),
                    rise_time=rng.uniform(1e-11, 5e-10))
    if kind == 2:
        return pulse(0.0, scale, rng.uniform(0, 1e-9), 1e-10, 2e-10,
                     rng.uniform(1e-10, 1e-9), 2e-9)
    if kind == 3:
        return sine(0.0, -scale, rng.uniform(2e8, 2e9))
    return step(-scale, rise_time=1e-12)


def random_case(seed):
    """A random RLC circuit builder and its ``simulate`` arguments.

    The low four bits of ``seed`` switch capacitors, inductors,
    v-sources and i-sources on or off.  Resistors tie every node to
    ground, and inductors and v-sources form a forest, so the DC and
    companion systems are regular.  Capacitors of unlike sizes share
    nodes, so a row sum taken in another order rounds differently.
    """
    rng = random.Random(seed)
    with_cap, with_ind, with_vsrc, with_isrc = (
        bool(seed >> k & 1) for k in range(4))
    n_nodes = rng.randint(2, 9)
    nodes = [f"n{k}" for k in range(n_nodes)]
    every = ["0"] + nodes
    elements = []
    for k, node in enumerate(nodes):  # spanning tree of resistors
        elements.append(("R", f"Rt{k}", node, rng.choice(every[:k + 1]),
                         10 ** rng.uniform(0, 4)))
    for k in range(rng.randint(0, n_nodes)):
        a, b = rng.sample(every, 2)
        elements.append(("R", f"Rx{k}", a, b, 10 ** rng.uniform(0, 4)))
    if with_cap:
        for k in range(rng.randint(1, 3 * n_nodes)):
            a, b = rng.sample(every, 2)
            elements.append(("C", f"C{k}", a, b,
                             10 ** rng.uniform(-14, -10)))
    forest = {n: n for n in every}

    def root(n):
        while forest[n] != n:
            n = forest[n]
        return n

    def short(kind, name, value):
        for _ in range(10):
            a, b = rng.sample(every, 2)
            if root(a) != root(b):
                forest[root(a)] = root(b)
                elements.append((kind, name, a, b, value))
                return

    if with_ind:
        for k in range(rng.randint(1, n_nodes)):
            short("L", f"L{k}", 10 ** rng.uniform(-11, -8))
    if with_vsrc:
        for k in range(rng.randint(1, 3)):
            short("V", f"V{k}", _wave(rng, rng.uniform(0.1, 2.0)))
    if with_isrc:
        for k in range(rng.randint(1, 3)):
            a, b = rng.sample(every, 2)
            elements.append(("I", f"I{k}", a, b,
                             _wave(rng, rng.uniform(1e-4, 1e-2))))

    def build():
        ckt = Circuit()
        adders = {"R": ckt.add_resistor, "C": ckt.add_capacitor,
                  "L": ckt.add_inductor, "V": ckt.add_vsource,
                  "I": ckt.add_isource}
        for kind, name, a, b, value in elements:
            adders[kind](name, a, b, value)
        return ckt

    vsrcs = [name for kind, name, *_ in elements if kind == "V"]
    record = (None, rng.sample(every, rng.randint(1, len(every))),
              ["0"] + nodes[:1], [])[seed >> 5 & 3]
    dt = 10 ** rng.uniform(-11.5, -10)
    kwargs = dict(t_stop=dt * rng.randint(2, 150), dt=dt, record=record,
                  record_currents=vsrcs[:rng.randint(0, len(vsrcs))],
                  use_ic=bool(seed >> 4 & 1))
    return build, kwargs


@pytest.mark.parametrize("block", range(8))
def test_compiled_loop_matches_numpy_loop(block, compiled, engine_calls):
    for seed in range(25 * block, 25 * block + 25):
        build, kwargs = random_case(seed)
        ref, ref_counters = run(build, False, **kwargs)
        assert not engine_calls
        got, got_counters = run(build, True, **kwargs)
        assert len(engine_calls) == 1
        engine_calls.clear()
        assert_same_bits(got, ref)
        assert got_counters == ref_counters, seed
        steps = len(ref.time)
        assert got_counters["transient_solves"] == steps - 1
        assert got_counters["transient_factorizations"] == 1


def test_random_cases_cover_every_mix():
    """The 200 cases switch each element kind and ``use_ic`` on and
    off, and record all nodes, a subset, ground and nothing."""
    seen = set()
    for seed in range(200):
        build, kwargs = random_case(seed)
        ckt = build()
        rec = kwargs["record"]
        seen.add((bool(ckt.capacitors), bool(ckt.inductors),
                  bool(ckt.vsources), bool(ckt.isources),
                  kwargs["use_ic"], rec is None,
                  rec is not None and "0" in rec,
                  bool(kwargs["record_currents"])))
    for position in range(8):
        assert {key[position] for key in seen} == {False, True}


def _nan_source_circuit(kind):
    """An RC stage whose source turns NaN at 5 ns of a 10 ns run."""
    def wave(t):
        return 1.0 if t < 5e-9 else float("nan")

    ckt = Circuit()
    if kind == "v":
        ckt.add_vsource("V", "in", "0", wave)
    else:
        ckt.add_isource("I", "0", "in", wave)
    ckt.add_resistor("R", "in", "out", 100.0)
    ckt.add_resistor("Rg", "out", "0", 1000.0)
    ckt.add_capacitor("C", "out", "0", 1e-12)
    return ckt


@pytest.mark.parametrize("kind", ["v", "i"])
def test_non_finite_source_raises_as_lu_solve_does(kind, compiled):
    counters = []
    for use_kernel in (False, True):
        with pytest.raises(ValueError, match=NAN_MESSAGE):
            run(lambda: _nan_source_circuit(kind), use_kernel,
                t_stop=1e-8, dt=1e-10)
        counters.append(dict(SOLVER_COUNTERS))
    assert counters[0] == counters[1]
    assert counters[0]["transient_solves"] == 0


def _coupled_pair():
    ckt = Circuit()
    ckt.add_vsource("V", "p", "0",
                    pulse(0, 1, 1e-9, 1e-10, 1e-10, 5e-9, 20e-9))
    ckt.add_resistor("Rp", "p", "a", 10.0)
    ckt.add_inductor("L1", "a", "0", 1e-8)
    ckt.add_inductor("L2", "s", "0", 1e-8)
    ckt.add_mutual("K", "L1", "L2", 0.9)
    ckt.add_resistor("Rs", "s", "0", 50.0)
    ckt.add_capacitor("Cs", "s", "0", 1e-12)
    return ckt


def assert_matches_reference(ckt, **kwargs):
    got = transient.simulate(ckt, **kwargs)
    ref = simulate_scalar(ckt, **kwargs)
    np.testing.assert_array_equal(got.time, ref.time)
    for node in ref.voltages:
        a, b = got.voltage(node), ref.voltage(node)
        scale = max(np.abs(b).max(), 1e-12)
        assert np.abs(a - b).max() <= REL_TOL * scale, node


def test_mutual_inductors_step_in_numpy(engine_calls):
    """``mut_g @ ind_i`` runs in numpy's BLAS, which C cannot copy."""
    assert_matches_reference(_coupled_pair(), t_stop=40e-9, dt=2e-11)
    assert not engine_calls


def test_no_ccompile_steps_in_numpy(no_ccompile, engine_calls):
    build, kwargs = random_case(15)  # every element kind
    assert_matches_reference(build(), **kwargs)
    assert not engine_calls


@pytest.fixture
def fresh_dgetrs():
    """Forget the memoized kernel and ``dgetrs`` before and after."""
    _kernel._reset_for_tests()
    yield
    _kernel._reset_for_tests()


def test_unreadable_dgetrs_warns_once_and_steps_in_numpy(
        compiled, fresh_dgetrs, monkeypatch, caplog, engine_calls):
    monkeypatch.setitem(cython_lapack.__pyx_capi__, "dgetrs", object())
    build, kwargs = random_case(15)
    with caplog.at_level(logging.WARNING, logger=_kernel.__name__):
        got = transient.simulate(build(), **kwargs)
        transient.simulate(build(), **kwargs)  # memoized: no new warning
    assert not engine_calls
    assert len(caplog.records) == 1
    assert "dgetrs" in caplog.records[0].getMessage()
    ref, _ = run(build, False, **kwargs)
    assert_same_bits(got, ref)
