"""Shared fixtures: small-scale netlists and designs (session-scoped).

Tests run the same code paths as the paper-scale benchmarks but on
reduced netlists (a few thousand cells) so the whole suite stays fast.
"""

import pytest

import repro._kernel as kernel
from repro.arch.generate import (generate_chiplet_netlist,
                                 generate_monolithic_netlist,
                                 generate_tile_netlist)
from repro.chiplet.design import build_chiplet
from repro.tech.interposer import GLASS_25D, SILICON_25D

#: Scale used by most integration-ish tests.
SMALL = 0.03


@pytest.fixture(scope="session")
def logic_netlist():
    return generate_chiplet_netlist("logic", scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def memory_netlist():
    return generate_chiplet_netlist("memory", scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def tile_netlist():
    return generate_tile_netlist(scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def mono_netlist():
    return generate_monolithic_netlist(scale=0.02, seed=7)


@pytest.fixture(scope="session")
def glass_logic_chiplet():
    return build_chiplet("logic", GLASS_25D, scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def glass_memory_chiplet():
    return build_chiplet("memory", GLASS_25D, scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def silicon_logic_chiplet():
    return build_chiplet("logic", SILICON_25D, scale=SMALL, seed=7)


@pytest.fixture(scope="session")
def glass3d_design():
    # Computed, not loaded, with cold channel memos: a stored result
    # carries no stage timings or solver counters, and the solver-stats
    # tests count the work each stage does.
    from repro.core.flow import run_design
    from repro.si.channel import _CHANNEL_SIM_CACHE, _PADS_REF_CACHE
    _CHANNEL_SIM_CACHE.clear()
    _PADS_REF_CACHE.clear()
    return run_design("glass_3d", scale=SMALL, seed=7, use_cache=False)


@pytest.fixture(scope="session")
def silicon_design():
    from repro.core.flow import run_design
    return run_design("silicon_25d", scale=SMALL, seed=7)


@pytest.fixture
def no_ccompile(monkeypatch):
    """Run the test as on a machine without a C compiler: the compiled
    kernel refuses to load, so every maze search takes the scalar A*,
    FM its portable pass and transients the numpy loop."""
    monkeypatch.setenv(kernel.ENV_DISABLE, "1")
    kernel._reset_for_tests()
    yield
    kernel._reset_for_tests()  # let later tests re-load it
