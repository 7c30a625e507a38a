"""Fixed-step trapezoidal transient analysis.

The circuits in this reproduction are linear (drivers are modelled as
Thevenin sources), so the MNA matrix with trapezoidal companion models is
constant for a fixed time step: it is factored once and each step costs
one RHS build plus one triangular solve.

Companion models (trapezoidal):

* Capacitor: ``i_new = g v_new - (g v_old + i_old)`` with ``g = 2C/dt``.
* Inductor:  ``(v1-v2)_new - (2L/dt) i_new = -(2L/dt) i_old - v_old``,
  with mutual terms ``-(2M/dt)`` coupling branch currents.

The companion matrix comes from the cached
:class:`~repro.circuit.mna.CircuitStamps` structure (``G + (2/dt) B``)
and is factored once per run (:class:`TransientBlockFactor`), and
source waveforms are sampled over the whole time grid up front.
The steps then run on one of two engines:

* the compiled loop, ``transient_run`` in :mod:`repro._kernel`, which
  runs every step in one call.  It is used whenever the kernel loads
  and scipy's ``dgetrs`` can be read, unless the circuit has mutual
  inductors.  The production circuits have at most a few dozen
  unknowns, so a step is about a microsecond of arithmetic, which the
  numpy loop buries under tens of microseconds of Python and scipy
  dispatch;
* the numpy loop, which builds each RHS from the precomputed sparse
  incidence matrices, solves it with ``scipy.linalg.lu_solve`` and
  updates the state with array arithmetic.  It runs without a C
  compiler (or under ``REPRO_NO_CCOMPILE``) and for mutual inductors,
  whose ``mut_g @ ind_i`` goes through numpy's BLAS.

The two give the same bits: the C loop performs the numpy loop's
floating-point operations in the same order, raises the same
``ValueError`` on a non-finite RHS, and solves through the very LAPACK
``dgetrs`` that ``lu_solve`` calls (:mod:`repro._kernel` states the
rules).  ``tests/circuit/test_transient_kernel.py`` pins them together
byte for byte, and the test suite keeps a straightforward per-element
reference implementation (``tests/oracles``) that both match at 1e-9.

:func:`pulse_response_bank` sits on top of the stepping engine: for a
linear circuit, one multi-column run computes every source's
Kronecker-delta response and unit-DC-init relaxation response;
:meth:`PulseResponseBank.synthesize` then reconstructs the response to
*arbitrary* source waveforms by discrete convolution, with no further
stepping.  Each call builds its own bank.

Transient LU factorizations and per-step back-substitutions are counted
under ``transient_factorizations``/``transient_solves`` in
:data:`~repro.circuit.mna.SOLVER_COUNTERS`, alike on both engines
(``steps - 1`` solves per run); ``mna_*`` stays reserved for DC and AC
solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.signal

from .._kernel import lapack_dgetrs, load_kernel
from .elements import Circuit
from .mna import SOLVER_COUNTERS, CircuitStamps, MnaStructure, _robust_solve


@dataclass
class TransientResult:
    """Result of a transient run.

    Attributes:
        time: Time points in seconds, shape (steps,).
        voltages: node name → waveform array, shape (steps,).
        vsource_currents: source name → current waveform.
    """

    time: np.ndarray
    voltages: Dict[str, np.ndarray]
    vsource_currents: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Recorded waveform of one node."""
        try:
            return self.voltages[node]
        except KeyError:
            raise KeyError(f"node {node!r} was not recorded; recorded: "
                           f"{sorted(self.voltages)[:10]}...")


def _recording_plan(circuit: Circuit, st: MnaStructure,
                    record: Optional[Sequence[str]],
                    record_currents: Optional[Sequence[str]]):
    """Resolve the record lists into names and MNA row indices."""
    node_names = (list(circuit.nodes) if record is None else list(record))
    node_idx = [st.node(n) for n in node_names]
    cur_names = list(record_currents or [])
    cur_rows = []
    for name in cur_names:
        found = [st.vsrc_offset + i for i, v in enumerate(circuit.vsources)
                 if v.name == name]
        if not found:
            raise KeyError(f"no voltage source named {name!r}")
        cur_rows.append(found[0])
    return node_names, node_idx, cur_names, cur_rows


class TransientBlockFactor:
    """The LU of one circuit's trapezoidal companion matrix at one dt.

    The transient twin of :class:`~repro.circuit.mna.AcBlockFactor`:
    ``G + (2/dt) B`` from the circuit's :class:`CircuitStamps`, factored
    once and back-substituted at every step of one run (or for every
    column of one pulse-response bank).
    """

    def __init__(self, stamps: CircuitStamps, dt: float):
        #: Raw ``lu_factor`` pair for hot loops that bulk-count solves.
        self.lu = scipy.linalg.lu_factor(stamps.transient_matrix(dt))
        #: The same factor as LAPACK's ``dgetrs`` reads it, for the
        #: compiled loop: the column-major LU and 1-based pivots.
        self.lu_f = np.asfortranarray(self.lu[0])
        self.piv1 = (self.lu[1] + 1).astype(np.int32)
        SOLVER_COUNTERS["transient_factorizations"] += 1

    def solve(self, Z: np.ndarray) -> np.ndarray:
        """Back-substitute right-hand sides (counts one per column)."""
        x = scipy.linalg.lu_solve(self.lu, Z)
        n_rhs = 1 if Z.ndim == 1 else Z.shape[1]
        SOLVER_COUNTERS["transient_solves"] += n_rhs
        return x


def simulate(circuit: Circuit, t_stop: float, dt: float,
             record: Optional[Sequence[str]] = None,
             record_currents: Optional[Sequence[str]] = None,
             use_ic: bool = True) -> TransientResult:
    """Run a fixed-step trapezoidal transient simulation.

    Args:
        circuit: The circuit to simulate.
        t_stop: End time in seconds.
        dt: Time step in seconds.
        record: Node names to record; ``None`` records every node.
        record_currents: V-source names whose currents to record.
        use_ic: Start from the DC operating point at t=0 (True) or from
            an all-zero state (False — useful for PDN droop studies where
            the supply ramps in).

    Returns:
        A :class:`TransientResult` with one sample per step including t=0.
    """
    if dt <= 0 or t_stop <= dt:
        raise ValueError("need 0 < dt < t_stop")
    steps = int(round(t_stop / dt)) + 1
    stamps = CircuitStamps.of(circuit)
    st = stamps.structure
    if st.size == 0:
        raise ValueError("cannot simulate an empty circuit")
    size = st.size
    n_cap = len(circuit.capacitors)
    n_ind = len(circuit.inductors)
    n_vsrc = len(circuit.vsources)
    n_isrc = len(circuit.isources)

    # Batched source sampling over the full time grid.
    times = np.arange(steps) * dt
    vsrc_samples = stamps.sample_waveforms(stamps.vsrc_waves, times)
    isrc_samples = (stamps.sample_waveforms(stamps.isrc_waves, times)
                    if n_isrc else None)

    # Initial state.
    if use_ic:
        x = _robust_solve(stamps.dc_matrix(), stamps.source_rhs(0.0))
    else:
        x = np.zeros(size)
    cap_g = 2.0 * stamps.cap_c / dt
    ind_g = 2.0 * stamps.ind_l / dt
    mut_g = (stamps.mutual_pattern * (2.0 / dt)
             if stamps.mutual_pattern is not None else None)
    cap_v = stamps.cap_diff @ x
    cap_i = np.zeros(n_cap)
    ind_i = x[st.ind_offset:st.ind_offset + n_ind].copy()
    ind_v = np.zeros(n_ind)

    # Recording.  Ground (-1) indices read the guaranteed-zero slot past
    # the end of the augmented solution vector.
    node_names, node_idx, cur_names, cur_rows = _recording_plan(
        circuit, st, record, record_currents)
    rec_idx = np.array([size if k < 0 else k for k in node_idx], dtype=int)
    cur_idx = np.array(cur_rows, dtype=int)
    xa = np.zeros(size + 1)
    v_out = np.zeros((steps, len(node_idx)))
    i_out = np.zeros((steps, len(cur_rows)))
    xa[:size] = x
    v_out[0] = xa[rec_idx]
    i_out[0] = x[cur_idx]

    factor = TransientBlockFactor(stamps, dt)
    engine = _compiled_engine() if mut_g is None else None
    if engine is not None:
        _step_compiled(engine, factor, stamps, steps, vsrc_samples,
                       isrc_samples, cap_g, cap_v, cap_i, ind_g, ind_i,
                       ind_v, rec_idx, cur_idx, v_out, i_out, xa)
    else:
        lu = factor.lu
        lu_solve = scipy.linalg.lu_solve
        for step in range(1, steps):
            # Trapezoidal RHS: sources plus companion history terms.
            z = np.zeros(size)
            if n_vsrc:
                z[stamps.vsrc_rows] = vsrc_samples[:, step]
            if n_isrc:
                z += stamps.isrc_incidence @ isrc_samples[:, step]
            if n_cap:
                z += stamps.cap_incidence @ (cap_g * cap_v + cap_i)
            if n_ind:
                zl = -ind_g * ind_i - ind_v
                if mut_g is not None:
                    zl += mut_g @ ind_i
                z[stamps.ind_rows] = zl
            x = lu_solve(lu, z)
            # Advance the companion-model state and record the step.
            if n_cap:
                v_new = stamps.cap_diff @ x
                cap_i = cap_g * (v_new - cap_v) - cap_i
                cap_v = v_new
            if n_ind:
                ind_v = stamps.ind_diff @ x
                ind_i = x[st.ind_offset:st.ind_offset + n_ind].copy()
            xa[:size] = x
            v_out[step] = xa[rec_idx]
            i_out[step] = x[cur_idx]
    SOLVER_COUNTERS["transient_solves"] += steps - 1
    return TransientResult(
        time=times,
        voltages={n: v_out[:, c] for c, n in enumerate(node_names)},
        vsource_currents={n: i_out[:, c] for c, n in enumerate(cur_names)})


def _compiled_engine():
    """The kernel's ``transient_run`` and the address of scipy's
    ``dgetrs``, or ``None`` when either is unavailable."""
    kernel = load_kernel()
    if kernel is None:
        return None
    dgetrs = lapack_dgetrs()
    return None if dgetrs is None else (kernel.transient, dgetrs)


def _step_compiled(engine, factor: TransientBlockFactor,
                   stamps: CircuitStamps, steps: int,
                   vsrc_samples: np.ndarray,
                   isrc_samples: Optional[np.ndarray],
                   cap_g: np.ndarray, cap_v: np.ndarray,
                   cap_i: np.ndarray, ind_g: np.ndarray,
                   ind_i: np.ndarray, ind_v: np.ndarray,
                   rec_idx: np.ndarray, cur_idx: np.ndarray,
                   v_out: np.ndarray, i_out: np.ndarray,
                   xa: np.ndarray) -> None:
    """Steps 1 .. ``steps - 1`` of :func:`simulate` in one
    ``transient_run`` call: advances the state arrays and fills rows
    1 on of ``v_out`` and ``i_out`` in place."""
    run, dgetrs = engine
    st = stamps.structure
    keep = []  # the converted arguments, alive until the call returns

    def arr(a, dtype=np.float64):
        a = np.ascontiguousarray(a, dtype=dtype)
        keep.append(a)
        return a.ctypes.data

    def csr(m):
        return (arr(m.indptr, np.int32), arr(m.indices, np.int32),
                arr(m.data))

    status = run(
        dgetrs, factor.lu_f.ctypes.data, factor.piv1.ctypes.data,
        st.size, steps,
        len(stamps.vsrc_waves), st.vsrc_offset, arr(vsrc_samples),
        len(stamps.isrc_waves),
        None if isrc_samples is None else arr(isrc_samples),
        *csr(stamps.isrc_incidence),
        len(cap_g), arr(cap_g), cap_v.ctypes.data, cap_i.ctypes.data,
        *csr(stamps.cap_incidence), *csr(stamps.cap_diff),
        len(ind_g), st.ind_offset,
        arr(ind_g), ind_i.ctypes.data, ind_v.ctypes.data,
        *csr(stamps.ind_diff),
        len(rec_idx), arr(rec_idx, np.int64), v_out.ctypes.data,
        len(cur_idx), arr(cur_idx, np.int64), i_out.ctypes.data,
        xa.ctypes.data, arr(np.empty(len(cap_g))))
    if status > 0:  # what lu_solve's check_finite raises
        raise ValueError("array must not contain infs or NaNs")
    if status < 0:
        raise ValueError(f"illegal value in {-status}th argument of "
                         "internal gesv|posv")


# --------------------------------------------------------------------- #
# Pulse-response superposition.
# --------------------------------------------------------------------- #


@dataclass
class PulseResponseBank:
    """Per-source responses that determine every waveform of a circuit.

    With a fixed timestep the trapezoidal engine is a discrete linear
    time-invariant system, so its output at the recorded nodes is fully
    determined by, per source ``s`` (v-sources first, then i-sources):

    * ``impulse_resp[:, :, s]`` — the response to a Kronecker delta
      (source value 1 at step 1, 0 elsewhere, zero initial state);
    * ``init_resp[:, :, s]`` — the relaxation from the DC operating
      point of a unit value on that source, with all inputs zero from
      step 1 on (this carries the engine's ``use_ic`` start exactly).

    Both are truncated at ``length`` samples, where the internal state
    of every column has decayed below ``settle_tol`` of its running
    peak — beyond that point the responses contribute at most
    ``steps * settle_tol`` of the peak, far below the 1e-9 equivalence
    budget.  ``settled`` is False when the horizon ran out first; in
    that case :meth:`synthesize` is exact only up to ``length`` steps
    and callers should fall back to full stepping.
    """

    dt: float
    length: int
    settled: bool
    node_names: Tuple[str, ...]
    n_sources: int
    init_resp: np.ndarray
    impulse_resp: np.ndarray

    def synthesize(self, samples: np.ndarray) -> Dict[str, np.ndarray]:
        """Reconstruct the recorded waveforms for arbitrary sources.

        Args:
            samples: Source waveforms sampled on the bank's time grid,
                shape ``(n_sources, steps)``, ordered v-sources first
                then i-sources (the :class:`CircuitStamps` order).

        Returns:
            node name → waveform of length ``steps``, matching a full
            trapezoidal run with ``use_ic=True`` to within the
            truncation tolerance (exactly, in real arithmetic).
        """
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2 or samples.shape[0] != self.n_sources:
            raise ValueError(
                f"need samples of shape ({self.n_sources}, steps), got "
                f"{samples.shape}")
        steps = samples.shape[1]
        if not self.settled and steps > self.length:
            raise ValueError(
                f"bank horizon ({self.length} steps) never settled and "
                f"is shorter than the requested {steps} steps")
        n_rec = len(self.node_names)
        out = np.zeros((steps, n_rec))
        head = min(self.length, steps)
        for s in range(self.n_sources):
            w = samples[s]
            # DC-init relaxation, scaled by the t=0 source value.
            out[:head] += w[0] * self.init_resp[:head, :, s]
            # Impulse convolution over the steps>=1 source samples;
            # long bank/input pairs go through FFT convolution (error
            # ~1e-13 of full scale, far inside the 1e-9 budget).
            hh = self.impulse_resp[1:self.length, :, s]
            if steps > 1 and hh.shape[0]:
                if (steps - 1) * hh.shape[0] > (1 << 21):
                    acc = scipy.signal.fftconvolve(w[1:, None], hh,
                                                   axes=0)
                    out[1:] += acc[:steps - 1]
                else:
                    for r in range(n_rec):
                        out[1:, r] += np.convolve(w[1:],
                                                  hh[:, r])[:steps - 1]
        return {name: np.ascontiguousarray(out[:, r])
                for r, name in enumerate(self.node_names)}


def pulse_response_bank(circuit: Circuit, dt: float, max_steps: int,
                        record: Sequence[str],
                        settle_tol: float = 1e-15
                        ) -> Optional[PulseResponseBank]:
    """The pulse-response bank of a circuit, or ``None``.

    Returns ``None`` when the circuit is empty or its DC system is
    singular — callers then fall back to full stepping, whose robust DC
    solve counts and warns properly.  A bank covers ``max_steps``
    samples: it is shorter only when it settled first.
    """
    stamps = CircuitStamps.of(circuit)
    if stamps.structure.size == 0:
        return None
    return _build_pulse_bank(circuit, stamps, dt, max_steps, record,
                             settle_tol)


def _build_pulse_bank(circuit: Circuit, stamps: CircuitStamps, dt: float,
                      max_steps: int, record: Sequence[str],
                      settle_tol: float) -> Optional[PulseResponseBank]:
    """Propagate all delta/init responses through the reduced state map.

    The trapezoidal engine's per-step RHS depends on the past only
    through the companion history terms

    * ``p = cap_g * cap_v + cap_i``      (one per capacitor) and
    * ``q = -ind_g * ind_i - ind_v + mut_g @ ind_i``  (per inductor)

    — exactly the quantities it adds to the RHS.  With zero inputs the
    step ``x = A^-1 E s``, ``s' = C x + D s`` composes into a dense
    propagator ``M = C A^-1 E + D`` on ``s = [p; q]`` alone, so every
    response column advances by one small matrix product per step
    instead of an ``lu_solve`` plus sparse RHS assembly; the recorded
    nodes come back through one small output map per step.  This is an
    exact algebraic regrouping of the stepping recurrence — the bank
    matches full stepping to machine-precision accumulation order, far
    inside the 1e-9 equivalence budget the tests pin.
    """
    st = stamps.structure
    size = st.size
    n_v = len(circuit.vsources)
    n_i = len(circuit.isources)
    n_src = n_v + n_i
    n_cap = len(circuit.capacitors)
    n_ind = len(circuit.inductors)
    node_names, node_idx, _, _ = _recording_plan(circuit, st,
                                                 list(record), None)
    rec_idx = np.array([size if k < 0 else k for k in node_idx],
                       dtype=int)
    n_rec = len(rec_idx)

    # Unit-source RHS columns: a v-source stamps 1 on its branch row, an
    # i-source its signed node incidence.
    S = np.zeros((size, n_src))
    if n_v:
        S[stamps.vsrc_rows, np.arange(n_v)] = 1.0
    if n_i:
        S[:, n_v:] = stamps.isrc_incidence.toarray()

    # DC operating point per unit source — the init-response columns.
    # A singular G means the superposition path cannot carry the
    # engine's use_ic start; bail out so the caller's full stepping
    # (and its robust, counted, warned DC solve) handles it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g_lu = scipy.linalg.lu_factor(stamps.dc_matrix())
        x0 = scipy.linalg.lu_solve(g_lu, S) if n_src else \
            np.zeros((size, 0))
    if not np.all(np.isfinite(x0)):
        return None
    SOLVER_COUNTERS["mna_factorizations"] += 1
    SOLVER_COUNTERS["mna_solves"] += n_src

    factor = TransientBlockFactor(stamps, dt)
    m = n_cap + n_ind
    cap_g = 2.0 * stamps.cap_c / dt
    ind_g = 2.0 * stamps.ind_l / dt
    mut_g = (stamps.mutual_pattern * (2.0 / dt)
             if stamps.mutual_pattern is not None else None)

    # E embeds the state into the RHS; its columns solved through the
    # transient LU give the one-step response to each history
    # term (the bank's only multi-column back-substitutions).
    E = np.zeros((size, m))
    if n_cap:
        E[:, :n_cap] = stamps.cap_incidence.toarray()
    if n_ind:
        E[stamps.ind_rows, n_cap + np.arange(n_ind)] = 1.0
    AiE = factor.solve(E) if m else np.zeros((size, 0))
    AiS = factor.solve(S) if n_src else np.zeros((size, 0))

    # C maps a solved step back onto the next state: p' = 2 cap_g
    # (cap_diff x) - p, and q' reads the new branch currents/voltages.
    C = np.zeros((m, size))
    if n_cap:
        C[:n_cap] = (2.0 * cap_g)[:, None] * stamps.cap_diff.toarray()
    if n_ind:
        C[n_cap:] = -stamps.ind_diff.toarray()
        C[n_cap + np.arange(n_ind), stamps.ind_rows] -= ind_g
        if mut_g is not None:
            C[np.ix_(np.arange(n_cap, m), stamps.ind_rows)] += mut_g
    M = C @ AiE
    if n_cap:
        M[np.arange(n_cap), np.arange(n_cap)] -= 1.0

    # Output maps (ground rows read a guaranteed-zero slot).
    R = np.vstack([AiE, np.zeros((1, m))])[rec_idx]
    RS = np.vstack([AiS, np.zeros((1, n_src))])[rec_idx]
    x0_aug = np.vstack([x0, np.zeros((1, n_src))])

    # Initial states: the DC columns start from the operating point
    # (cap_i = ind_v = 0); the delta columns start from rest and
    # receive their unit source inside step 1.
    n_cols = 2 * n_src
    s = np.zeros((m, n_cols))
    if n_src:
        x0i = x0[st.ind_offset:st.ind_offset + n_ind, :]
        if n_cap:
            s[:n_cap, :n_src] = cap_g[:, None] * (stamps.cap_diff @ x0)
        if n_ind:
            q0 = -ind_g[:, None] * x0i
            if mut_g is not None:
                q0 += mut_g @ x0i
            s[n_cap:, :n_src] = q0
    s_delta = C @ AiS

    out = np.zeros((max_steps, n_rec, n_cols))
    out[0, :, :n_src] = x0_aug[rec_idx]

    # Hot loop: one dense product per step.  States are buffered per
    # chunk so outputs come from one batched product per chunk, and the
    # settle test runs off the hot path entirely.  Settling is judged on
    # the *injected RHS* ``E s`` rather than the raw state: parallel
    # capacitors carry conserved companion-current splits (|λ| = 1 modes
    # in the kernel of the incidence map) that never decay but are
    # invisible to every solve — once ``E s`` is below ``settle_tol`` of
    # its running peak at two consecutive chunk ends, all future
    # outputs are bounded by that same fraction.
    peak = float(np.max(np.abs(E @ s))) if s.size else 0.0
    below = 0
    length = max_steps
    settled = False
    chunk = 512
    buf = np.empty((min(chunk, max(max_steps - 1, 1)), m, n_cols))
    s_next = np.empty_like(s)
    step = 1
    while step < max_steps:
        n_blk = min(chunk, max_steps - step)
        for j in range(n_blk):
            buf[j] = s
            np.dot(M, s, out=s_next)
            if step + j == 1:
                s_next[:, n_src:] += s_delta
            s, s_next = s_next, s
        out[step:step + n_blk] = R @ buf[:n_blk]
        step += n_blk
        mag = float(np.max(np.abs(E @ s))) if s.size else 0.0
        peak = max(peak, mag)
        if mag <= settle_tol * peak:
            below += 1
            if below >= 2:
                length = step
                settled = True
                break
        else:
            below = 0
    if max_steps > 1:
        out[1, :, n_src:] += RS
    out = out[:length]
    return PulseResponseBank(
        dt=float(dt), length=length, settled=settled,
        node_names=tuple(node_names), n_sources=n_src,
        init_resp=np.ascontiguousarray(out[:, :, :n_src]),
        impulse_resp=np.ascontiguousarray(out[:, :, n_src:]))

