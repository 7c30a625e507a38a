"""Modified nodal analysis (MNA) assembly and DC/AC solution.

The unknown vector is ``x = [node voltages | V-source currents |
VCVS currents | inductor currents]``.  Inductors are always branch (group
2) elements so that DC (where they are shorts) and AC/transient (where
they have reactance) share one formulation, and so mutual inductance can
be stamped directly between branch currents.

Sign conventions:

* Voltage source current flows from the positive terminal ``n1`` through
  the source to ``n2`` (i.e. a positive current means the source is
  delivering current out of ``n1``... measured *into* the source at n1).
  Concretely: KCL rows get ``+i`` at ``n1`` and ``-i`` at ``n2``.
* Current sources push current from ``n1`` to ``n2`` through the external
  circuit: RHS gets ``-I`` at ``n1`` and ``+I`` at ``n2``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .elements import Circuit, is_ground

_LOG = logging.getLogger(__name__)

#: Process-wide solver observability counters.  ``mna_factorizations``
#: counts DC/AC LU factorizations (a block factorization covering a
#: whole sweep counts once — that is the point), ``mna_solves`` counts
#: DC/AC (system, right-hand-side) pairs solved, and
#: ``robust_fallbacks`` counts singular systems that fell back to least
#: squares.  ``transient_factorizations``/``transient_solves`` are the
#: same two quantities for the trapezoidal transient engine (see
#: :class:`repro.circuit.transient.TransientBlockFactor`): one cached
#: companion-matrix LU per (topology, dt), one solve per
#: right-hand-side column back-substitution per step.  Flows call
#: :func:`reset_solver_counters` per run and snapshot the totals into
#: their diagnostics.
SOLVER_COUNTERS: Dict[str, int] = {
    "mna_factorizations": 0,
    "mna_solves": 0,
    "transient_factorizations": 0,
    "transient_solves": 0,
    "robust_fallbacks": 0,
}

_fallback_warned = False


def reset_solver_counters() -> None:
    """Zero the solver counters and re-arm the once-per-run singular-
    system warning."""
    global _fallback_warned
    for key in SOLVER_COUNTERS:
        SOLVER_COUNTERS[key] = 0
    _fallback_warned = False


def solver_counters() -> Dict[str, int]:
    """A snapshot copy of the current solver counters."""
    return dict(SOLVER_COUNTERS)


@dataclass
class MnaStructure:
    """Index bookkeeping shared by all analyses of one circuit.

    Attributes:
        circuit: The source circuit.
        n_nodes: Number of non-ground nodes.
        vsrc_offset: Column/row offset of V-source branch currents.
        vcvs_offset: Offset of VCVS branch currents.
        ind_offset: Offset of inductor branch currents.
        size: Total MNA system size.
    """

    circuit: Circuit
    n_nodes: int
    vsrc_offset: int
    vcvs_offset: int
    ind_offset: int
    size: int

    @classmethod
    def of(cls, circuit: Circuit) -> "MnaStructure":
        """Build the index structure for a circuit."""
        n = circuit.num_nodes()
        nv = len(circuit.vsources)
        ne = len(circuit.vcvs)
        nl = len(circuit.inductors)
        return cls(circuit=circuit, n_nodes=n, vsrc_offset=n,
                   vcvs_offset=n + nv, ind_offset=n + nv + ne,
                   size=n + nv + ne + nl)

    def node(self, name: str) -> int:
        """MNA index of a node, or -1 for ground."""
        if is_ground(name):
            return -1
        return self.circuit.node_index(name)


def _stamp_conductance(A: np.ndarray, i: int, j: int, g) -> None:
    """Stamp a two-terminal admittance between node indices i, j (-1=gnd)."""
    if i >= 0:
        A[i, i] += g
    if j >= 0:
        A[j, j] += g
    if i >= 0 and j >= 0:
        A[i, j] -= g
        A[j, i] -= g


def _stamp_branch(A: np.ndarray, st: MnaStructure, row: int, i: int,
                  j: int) -> None:
    """Stamp the incidence of a branch current at ``row`` between i and j."""
    if i >= 0:
        A[i, row] += 1.0
        A[row, i] += 1.0
    if j >= 0:
        A[j, row] -= 1.0
        A[row, j] -= 1.0


class CircuitStamps:
    """One-time vectorized stamp structure shared by DC, AC, and transient.

    The MNA matrix of a linear circuit splits as ``A(s) = G + s * B``:
    ``G`` carries the frequency-independent stamps (conductances, branch
    incidences, VCVS gains) and ``B`` the reactance pattern (capacitances
    into node conductance positions, ``-L`` on inductor branch diagonals,
    ``-M`` between coupled branches).  Building both once per circuit
    means DC (``G``), AC (``G + j omega B``), and trapezoidal transient
    (``G + (2/dt) B``) all share one stamped structure instead of
    re-walking the element lists per assembly.

    Instances are cached on the circuit object and invalidated when the
    element or node count changes, so frequency sweeps and repeated
    solves pay for stamping exactly once.
    """

    def __init__(self, circuit: Circuit):
        st = MnaStructure.of(circuit)
        self.structure = st
        n = st.size
        G = np.zeros((n, n))
        B = np.zeros((n, n))

        for res in circuit.resistors:
            _stamp_conductance(G, st.node(res.n1), st.node(res.n2),
                               1.0 / res.resistance)
        for idx, vs in enumerate(circuit.vsources):
            _stamp_branch(G, st, st.vsrc_offset + idx,
                          st.node(vs.n1), st.node(vs.n2))
        for idx, e in enumerate(circuit.vcvs):
            row = st.vcvs_offset + idx
            _stamp_branch(G, st, row, st.node(e.out_pos), st.node(e.out_neg))
            cp, cn = st.node(e.ctrl_pos), st.node(e.ctrl_neg)
            if cp >= 0:
                G[row, cp] -= e.gain
            if cn >= 0:
                G[row, cn] += e.gain
        for idx, ind in enumerate(circuit.inductors):
            row = st.ind_offset + idx
            _stamp_branch(G, st, row, st.node(ind.n1), st.node(ind.n2))
            B[row, row] -= ind.inductance
        for cap in circuit.capacitors:
            _stamp_conductance(B, st.node(cap.n1), st.node(cap.n2),
                               cap.capacitance)
        for mut in circuit.mutuals:
            p1 = st.ind_offset + circuit.inductor_position(mut.l1)
            p2 = st.ind_offset + circuit.inductor_position(mut.l2)
            l1 = circuit.inductors[
                circuit.inductor_position(mut.l1)].inductance
            l2 = circuit.inductors[
                circuit.inductor_position(mut.l2)].inductance
            m = mut.k * np.sqrt(l1 * l2)
            B[p1, p2] -= m
            B[p2, p1] -= m
        self.G = G
        self.B = B
        self._has_reactance = bool(circuit.capacitors or circuit.inductors
                                   or circuit.mutuals)
        #: Frequency-grid-keyed cache of AC block factorizations.
        self._ac_factors: Dict[bytes, Optional["AcBlockFactor"]] = {}
        #: Timestep-keyed cache of transient companion-matrix LUs (see
        #: :func:`repro.circuit.transient.transient_block_factor`).
        self._transient_factors: Dict[bytes, object] = {}
        #: (dt, record)-keyed cache of pulse-response banks (see
        #: :func:`repro.circuit.transient.pulse_response_bank`).
        self._pulse_banks: Dict[tuple, object] = {}

        # Element index arrays for vectorized RHS assembly / recording.
        self.vsrc_rows = np.arange(st.vsrc_offset,
                                   st.vsrc_offset + len(circuit.vsources))
        self.vsrc_waves = [vs.waveform for vs in circuit.vsources]
        self.isrc_waves = [cs.waveform for cs in circuit.isources]
        self.ind_rows = np.arange(st.ind_offset,
                                  st.ind_offset + len(circuit.inductors))
        self.cap_c = np.array([c.capacitance for c in circuit.capacitors],
                              dtype=float)
        self.ind_l = np.array([l.inductance for l in circuit.inductors],
                              dtype=float)
        self.cap_nodes = [(st.node(c.n1), st.node(c.n2))
                          for c in circuit.capacitors]
        self.isrc_nodes = [(st.node(s.n1), st.node(s.n2))
                           for s in circuit.isources]
        self.ind_nodes = [(st.node(l.n1), st.node(l.n2))
                          for l in circuit.inductors]
        #: size x n_cap incidence: column k has +1 at the cap's n1 row and
        #: -1 at its n2 row (ground rows dropped): RHS += inc @ i_hist.
        self.cap_incidence = _incidence(n, self.cap_nodes, +1.0)
        #: size x n_isrc incidence: -1 at n1, +1 at n2 (current pushed
        #: from n1 into n2 through the external circuit).
        self.isrc_incidence = _incidence(n, self.isrc_nodes, -1.0)
        #: n_cap x size / n_ind x size difference operators: v = D @ x.
        self.cap_diff = _difference(n, self.cap_nodes)
        self.ind_diff = _difference(n, self.ind_nodes)
        #: n_ind x n_ind mutual-coupling pattern (-M entries), or None.
        if circuit.mutuals:
            nl = len(circuit.inductors)
            M = np.zeros((nl, nl))
            for mut in circuit.mutuals:
                p1 = circuit.inductor_position(mut.l1)
                p2 = circuit.inductor_position(mut.l2)
                m = mut.k * np.sqrt(
                    circuit.inductors[p1].inductance
                    * circuit.inductors[p2].inductance)
                M[p1, p2] -= m
                M[p2, p1] -= m
            self.mutual_pattern: Optional[np.ndarray] = M
        else:
            self.mutual_pattern = None

    @classmethod
    def of(cls, circuit: Circuit) -> "CircuitStamps":
        """The cached stamp structure of a circuit (built on first use)."""
        sig = (circuit.element_count(), circuit.num_nodes())
        cached = getattr(circuit, "_stamps_cache", None)
        if cached is not None and cached[0] == sig:
            return cached[1]
        stamps = cls(circuit)
        circuit._stamps_cache = (sig, stamps)
        return stamps

    # ------------------------------------------------------------------ #
    # Matrix builders.
    # ------------------------------------------------------------------ #

    def dc_matrix(self) -> np.ndarray:
        """A fresh copy of the DC system matrix (caps open, inductors
        shorted through their branch rows)."""
        return self.G.copy()

    def ac_matrix(self, omega: float) -> np.ndarray:
        """The complex AC system matrix ``G + j omega B``."""
        if not self._has_reactance:
            return self.G.astype(complex)
        return self.G + (1j * omega) * self.B

    def transient_matrix(self, dt: float) -> np.ndarray:
        """The trapezoidal companion-model matrix ``G + (2/dt) B``."""
        if not self._has_reactance:
            return self.G.copy()
        return self.G + (2.0 / dt) * self.B

    # ------------------------------------------------------------------ #
    # RHS builders.
    # ------------------------------------------------------------------ #

    def source_rhs(self, t: float, dtype=float) -> np.ndarray:
        """The independent-source RHS vector with sources sampled at t."""
        st = self.structure
        z = np.zeros(st.size, dtype=dtype)
        for row, wave in zip(self.vsrc_rows, self.vsrc_waves):
            z[row] += wave(t)
        for (i, j), wave in zip(self.isrc_nodes, self.isrc_waves):
            value = wave(t)
            if i >= 0:
                z[i] -= value
            if j >= 0:
                z[j] += value
        return z

    def sample_waveforms(self, waves, times: np.ndarray) -> np.ndarray:
        """Sample waveforms over a full time grid up front.

        Returns an array of shape ``(len(waves), len(times))``.  Waveforms
        exposing a vectorized ``.sample(times)`` (the common PWL / PRBS /
        pulse sources from :mod:`repro.circuit.waveforms`) are evaluated
        in one batched call; anything else falls back to per-point calls.
        """
        out = np.empty((len(waves), len(times)))
        for k, wave in enumerate(waves):
            sample = getattr(wave, "sample", None)
            if sample is not None:
                out[k] = sample(times)
            else:
                out[k] = [wave(t) for t in times]
        return out


def _incidence(size: int, node_pairs, sign: float):
    """Sparse ``size x len(pairs)`` signed incidence matrix (ground
    rows dropped): column k carries ``+sign`` at pair[0], ``-sign`` at
    pair[1]."""
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for k, (i, j) in enumerate(node_pairs):
        if i >= 0:
            rows.append(i)
            cols.append(k)
            data.append(sign)
        if j >= 0:
            rows.append(j)
            cols.append(k)
            data.append(-sign)
    return scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(size, len(node_pairs)))


def _difference(size: int, node_pairs):
    """Sparse ``len(pairs) x size`` difference operator: row k computes
    ``x[pair[0]] - x[pair[1]]`` with ground terms dropped."""
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for k, (i, j) in enumerate(node_pairs):
        if i >= 0:
            rows.append(k)
            cols.append(i)
            data.append(1.0)
        if j >= 0:
            rows.append(k)
            cols.append(j)
            data.append(-1.0)
    return scipy.sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(node_pairs), size))


def assemble_dc(circuit: Circuit, t: float = 0.0):
    """Build the real DC MNA system ``A x = z`` with sources sampled at t.

    Capacitors are open; inductors are shorts (branch with zero series
    impedance).  Returns ``(structure, A, z)``.
    """
    stamps = CircuitStamps.of(circuit)
    return stamps.structure, stamps.dc_matrix(), stamps.source_rhs(t)


def assemble_ac(circuit: Circuit, omega: float):
    """Build the complex AC MNA system at angular frequency ``omega``.

    Independent sources contribute a unit (or their DC) phasor only when
    the caller sets it; by convention here every V/I source's *AC
    magnitude* is taken as its waveform value at t=0.  For network-
    parameter extraction use :mod:`repro.circuit.twoport`, which manages
    excitations explicitly.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    stamps = CircuitStamps.of(circuit)
    return (stamps.structure, stamps.ac_matrix(omega),
            stamps.source_rhs(0.0, dtype=complex))


class Solution:
    """Wraps an MNA solution vector with named accessors."""

    def __init__(self, structure: MnaStructure, x: np.ndarray):
        self._st = structure
        self._x = x

    def voltage(self, node: str):
        """Voltage of a node (0 for ground)."""
        idx = self._st.node(node)
        if idx < 0:
            return 0.0 * self._x[0] if len(self._x) else 0.0
        return self._x[idx]

    def vsource_current(self, name: str):
        """Current through a named voltage source (positive into n1)."""
        for idx, vs in enumerate(self._st.circuit.vsources):
            if vs.name == name:
                return self._x[self._st.vsrc_offset + idx]
        raise KeyError(f"no voltage source named {name!r}")

    def inductor_current(self, name: str):
        """Branch current of a named inductor."""
        pos = self._st.circuit.inductor_position(name)
        return self._x[self._st.ind_offset + pos]

    @property
    def raw(self) -> np.ndarray:
        """The raw MNA solution vector."""
        return self._x


def solve_dc(circuit: Circuit, t: float = 0.0) -> Solution:
    """DC operating point with sources sampled at time ``t``."""
    st, A, z = assemble_dc(circuit, t)
    if st.size == 0:
        return Solution(st, np.zeros(0))
    x = _robust_solve(A, z)
    return Solution(st, x)


def solve_ac(circuit: Circuit, frequency_hz: float) -> Solution:
    """Single-frequency AC solve (sources as phasors of their t=0 value)."""
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    st, A, z = assemble_ac(circuit, 2 * np.pi * frequency_hz)
    if st.size == 0:
        return Solution(st, np.zeros(0, dtype=complex))
    x = _robust_solve(A, z)
    return Solution(st, x)


def _robust_solve(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """LU solve with a least-squares fallback for singular systems.

    Fallbacks are never silent: each one increments
    ``SOLVER_COUNTERS["robust_fallbacks"]`` and the first per run (see
    :func:`reset_solver_counters`) logs a warning — a singular MNA
    system almost always means a modelling bug (floating node, zero
    resistance loop), and the least-squares answer is only the
    minimum-norm stand-in for it.
    """
    global _fallback_warned
    try:
        x = scipy.linalg.solve(A, z)
        SOLVER_COUNTERS["mna_factorizations"] += 1
        SOLVER_COUNTERS["mna_solves"] += 1
        return x
    except scipy.linalg.LinAlgError:
        SOLVER_COUNTERS["robust_fallbacks"] += 1
        if not _fallback_warned:
            _fallback_warned = True
            _LOG.warning(
                "singular MNA system (%dx%d): falling back to a "
                "least-squares solve; further fallbacks this run are "
                "counted silently (see solver counters)",
                A.shape[0], A.shape[1])
        x, *_ = np.linalg.lstsq(A, z, rcond=None)
        return x


class AcBlockFactor:
    """One LU factorization covering every point of an AC sweep.

    Stacks ``A(omega_k) = G + j omega_k B`` for all sweep points into
    one block-diagonal sparse matrix and factors it once with SuperLU:
    one factorization, then any number of stacked-RHS solves — the
    "one LU, many solves" shape a per-point sweep pays K times for.
    Obtain instances through :func:`ac_block_factor`, which caches them
    on the circuit's :class:`CircuitStamps` keyed by the frequency
    grid, so repeated sweeps of one topology reuse the factorization.
    """

    def __init__(self, stamps: "CircuitStamps", omegas: np.ndarray):
        self.structure = stamps.structure
        self.n_points = len(omegas)
        blocks = [stamps.ac_matrix(w) for w in omegas]
        A = scipy.sparse.block_diag(blocks, format="csc")
        self._lu = scipy.sparse.linalg.splu(A)
        SOLVER_COUNTERS["mna_factorizations"] += 1

    def solve(self, Z: np.ndarray) -> np.ndarray:
        """Solve ``A(omega_k) x_k = z_k`` for every sweep point.

        Args:
            Z: Right-hand sides, shape ``(K, size)`` or ``(K, size, r)``
               for ``r`` simultaneous injections per point.

        Returns:
            Solutions with the same shape as ``Z``.
        """
        K, m = self.n_points, self.structure.size
        if Z.ndim == 2:
            b = Z.reshape(K * m)
            n_rhs = 1
        else:
            b = np.ascontiguousarray(Z).reshape(K * m, -1)
            n_rhs = b.shape[1]
        x = self._lu.solve(b)
        SOLVER_COUNTERS["mna_solves"] += K * n_rhs
        return x.reshape(Z.shape)


def ac_block_factor(circuit: Circuit,
                    frequencies_hz: np.ndarray
                    ) -> Optional[AcBlockFactor]:
    """The cached block factorization of an AC sweep, or ``None``.

    Returns ``None`` when the stacked system is singular (callers then
    fall back to per-point :func:`_robust_solve`, which counts and
    warns) or the circuit is empty.  The factor cache lives on the
    circuit's stamp structure, keyed by the exact frequency grid.
    """
    stamps = CircuitStamps.of(circuit)
    if stamps.structure.size == 0:
        return None
    freqs = np.asarray(frequencies_hz, dtype=float)
    key = freqs.tobytes()
    cache = stamps._ac_factors
    if key not in cache:
        try:
            cache[key] = AcBlockFactor(stamps, 2.0 * np.pi * freqs)
        except RuntimeError:  # SuperLU: matrix is singular
            cache[key] = None
    return cache[key]
