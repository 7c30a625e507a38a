"""Block-factored AC sweeps vs the per-point reference.

The AC engine stacks every sweep point sharing one ``MnaStructure``
topology into a single block-diagonal sparse factorization (one LU,
many solves).  These tests pin:

* numerical equivalence of the block path against per-point dense
  solves to 1e-9 relative on the PDN circuits of all six designs;
* the factor cache — one factorization per (topology, frequency grid),
  reused across repeated sweeps;
* the counted, warned-about fallback path for singular systems (the
  pre-PR ``_robust_solve`` swallowed them silently).
"""

import logging
import math

import numpy as np
import pytest
import scipy.linalg

import repro.circuit.mna as mna
from repro.chiplet.bumps import plan_for_design
from repro.circuit.ac import driving_point_impedance, log_frequencies
from repro.circuit.elements import Circuit
from repro.circuit.mna import (ac_block_factor, assemble_ac,
                               reset_solver_counters, solver_counters)
from repro.circuit.waveforms import dc
from repro.interposer.pdn import build_pdn
from repro.interposer.placement import place_dies
from repro.pi.impedance import build_pdn_circuit
from repro.tech.interposer import get_spec

ALL_DESIGNS = ["glass_25d", "glass_3d", "silicon_25d", "silicon_3d",
               "shinko", "apx"]

#: Maximum relative deviation allowed between the block-factored sweep
#: and the dense per-point reference.
RTOL = 1e-9


def _pdn_circuit(design):
    spec = get_spec(design)
    lp = plan_for_design(spec, "logic")
    mp = plan_for_design(spec, "memory")
    pdn = build_pdn(place_dies(spec, lp, mp))
    return build_pdn_circuit(pdn)


def _per_point_impedance(ckt, node, freqs):
    """Dense per-point reference for driving_point_impedance."""
    st = mna.CircuitStamps.of(ckt).structure
    ni = st.node(node)
    vals = np.empty(len(freqs), dtype=complex)
    for i, f in enumerate(freqs):
        _st, A, _z = assemble_ac(ckt, 2 * math.pi * f)
        z = np.zeros(st.size, dtype=complex)
        z[ni] = 1.0
        vals[i] = scipy.linalg.solve(A, z)[ni]
    return vals


class TestBlockSweepEquivalence:
    @pytest.mark.parametrize("design", ALL_DESIGNS)
    def test_pdn_impedance_matches_per_point(self, design):
        ckt = _pdn_circuit(design)
        freqs = log_frequencies(1e6, 1e9, 25)
        sweep = driving_point_impedance(ckt, "bump", freqs)
        ref = _per_point_impedance(ckt, "bump", freqs)
        err = np.abs(sweep.values - ref) / np.abs(ref)
        assert err.max() <= RTOL, (
            f"{design}: block sweep deviates {err.max():.2e} from the "
            f"per-point reference")


class TestFactorCacheCounters:
    def test_one_lu_per_topology_and_grid(self):
        ckt = _pdn_circuit("glass_25d")
        freqs = log_frequencies(1e6, 1e9, 6)
        reset_solver_counters()
        driving_point_impedance(ckt, "bump", freqs)
        c1 = solver_counters()
        assert c1["mna_factorizations"] == 1
        assert c1["mna_solves"] == len(freqs)
        assert c1["robust_fallbacks"] == 0
        # Same circuit object, same grid: the cached factor is reused.
        driving_point_impedance(ckt, "bump", freqs)
        c2 = solver_counters()
        assert c2["mna_factorizations"] == 1
        assert c2["mna_solves"] == 2 * len(freqs)

    def test_new_grid_factors_once_more(self):
        ckt = _pdn_circuit("glass_3d")
        reset_solver_counters()
        driving_point_impedance(ckt, "bump", log_frequencies(1e6, 1e9, 4))
        driving_point_impedance(ckt, "bump", log_frequencies(1e6, 1e8, 4))
        assert solver_counters()["mna_factorizations"] == 2

    def test_block_factor_none_for_empty_circuit(self):
        assert ac_block_factor(Circuit("empty"), np.array([1e6])) is None


class TestRobustFallbackAccounting:
    def _singular(self):
        # Two V-sources forcing different voltages on one node: the MNA
        # system is exactly singular.
        ckt = Circuit("sing")
        ckt.add_vsource("V1", "a", "0", dc(1.0))
        ckt.add_vsource("V2", "a", "0", dc(2.0))
        ckt.add_resistor("R", "a", "0", 1.0)
        return ckt

    def test_counted_and_warned_once_per_run(self, caplog):
        ckt = self._singular()
        freqs = np.array([1e6, 2e6, 4e6])
        reset_solver_counters()
        with caplog.at_level(logging.WARNING, logger="repro.circuit.mna"):
            sweep = driving_point_impedance(ckt, "a", freqs)
        counters = solver_counters()
        assert counters["robust_fallbacks"] == len(freqs)
        warnings = [r for r in caplog.records
                    if "singular MNA system" in r.getMessage()]
        assert len(warnings) == 1  # once per run, not per solve
        assert np.isfinite(sweep.values).all()  # lstsq still answers

    def test_reset_rearms_the_warning(self, caplog):
        ckt = self._singular()
        with caplog.at_level(logging.WARNING, logger="repro.circuit.mna"):
            reset_solver_counters()
            driving_point_impedance(ckt, "a", np.array([1e6]))
            reset_solver_counters()
            driving_point_impedance(ckt, "a", np.array([1e6]))
        warnings = [r for r in caplog.records
                    if "singular MNA system" in r.getMessage()]
        assert len(warnings) == 2
