"""Per-element golden reference for :func:`repro.circuit.transient.simulate`.

Walks the element lists every step the way the original engine did:
the companion matrix is stamped element by element and every RHS entry
is written by a Python loop.  The vectorized engine agrees with it to
well below 1e-9 relative error.
"""

from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from repro.circuit.elements import Circuit
from repro.circuit.mna import (MnaStructure, Solution, _robust_solve,
                               _stamp_conductance, assemble_dc)
from repro.circuit.transient import TransientResult, _recording_plan


def simulate_scalar(circuit: Circuit, t_stop: float, dt: float,
                    record: Optional[Sequence[str]] = None,
                    record_currents: Optional[Sequence[str]] = None,
                    use_ic: bool = True) -> TransientResult:
    """Per-element twin of :func:`repro.circuit.transient.simulate`."""
    if dt <= 0 or t_stop <= dt:
        raise ValueError("need 0 < dt < t_stop")
    steps = int(round(t_stop / dt)) + 1
    st = MnaStructure.of(circuit)
    if st.size == 0:
        raise ValueError("cannot simulate an empty circuit")

    # --- constant system matrix -------------------------------------- #
    _, A, _ = assemble_dc(circuit, 0.0)
    cap_g = []
    for cap in circuit.capacitors:
        g = 2.0 * cap.capacitance / dt
        _stamp_conductance(A, st.node(cap.n1), st.node(cap.n2), g)
        cap_g.append(g)
    ind_g = []
    for idx, ind in enumerate(circuit.inductors):
        row = st.ind_offset + idx
        g = 2.0 * ind.inductance / dt
        A[row, row] -= g
        ind_g.append(g)
    mut_g = []
    for mut in circuit.mutuals:
        p1 = circuit.inductor_position(mut.l1)
        p2 = circuit.inductor_position(mut.l2)
        l1 = circuit.inductors[p1].inductance
        l2 = circuit.inductors[p2].inductance
        gm = 2.0 * mut.k * np.sqrt(l1 * l2) / dt
        A[st.ind_offset + p1, st.ind_offset + p2] -= gm
        A[st.ind_offset + p2, st.ind_offset + p1] -= gm
        mut_g.append((p1, p2, gm))
    lu = scipy.linalg.lu_factor(A)

    # --- initial state ------------------------------------------------ #
    if use_ic:
        _, A0, z0 = assemble_dc(circuit, 0.0)
        x = _robust_solve(A0, z0)
    else:
        x = np.zeros(st.size)
    sol = Solution(st, x)
    cap_v = np.array([sol.voltage(c.n1) - sol.voltage(c.n2)
                      for c in circuit.capacitors], dtype=float)
    cap_i = np.zeros(len(circuit.capacitors))
    ind_i = np.array([x[st.ind_offset + k]
                      for k in range(len(circuit.inductors))], dtype=float)
    ind_v = np.zeros(len(circuit.inductors))

    # --- recording ---------------------------------------------------- #
    node_names, node_idx, cur_names, cur_rows = _recording_plan(
        circuit, st, record, record_currents)

    times = np.arange(steps) * dt
    v_out = np.zeros((steps, len(node_names)))
    i_out = np.zeros((steps, len(cur_names)))
    v_out[0] = [0.0 if k < 0 else x[k] for k in node_idx]
    i_out[0] = [x[r] for r in cur_rows]

    # Precompute element node indices once.
    cap_nodes = [(st.node(c.n1), st.node(c.n2)) for c in circuit.capacitors]
    isrc_nodes = [(st.node(s.n1), st.node(s.n2)) for s in circuit.isources]
    vsrc_rows = [(st.vsrc_offset + i, v.waveform)
                 for i, v in enumerate(circuit.vsources)]

    for step in range(1, steps):
        t = times[step]
        z = np.zeros(st.size)
        for row, wave in vsrc_rows:
            z[row] = wave(t)
        for (i, j), src in zip(isrc_nodes, circuit.isources):
            val = src.waveform(t)
            if i >= 0:
                z[i] -= val
            if j >= 0:
                z[j] += val
        for k, (i, j) in enumerate(cap_nodes):
            ihist = cap_g[k] * cap_v[k] + cap_i[k]
            if i >= 0:
                z[i] += ihist
            if j >= 0:
                z[j] -= ihist
        for k in range(len(circuit.inductors)):
            row = st.ind_offset + k
            z[row] = -ind_g[k] * ind_i[k] - ind_v[k]
        for p1, p2, gm in mut_g:
            z[st.ind_offset + p1] += -gm * ind_i[p2]
            z[st.ind_offset + p2] += -gm * ind_i[p1]

        x = scipy.linalg.lu_solve(lu, z)

        # State update.
        for k, (i, j) in enumerate(cap_nodes):
            v_new = (x[i] if i >= 0 else 0.0) - (x[j] if j >= 0 else 0.0)
            cap_i[k] = cap_g[k] * (v_new - cap_v[k]) - cap_i[k]
            cap_v[k] = v_new
        new_ind_i = x[st.ind_offset:st.ind_offset + len(circuit.inductors)]
        for k, ind in enumerate(circuit.inductors):
            i_n, j_n = st.node(ind.n1), st.node(ind.n2)
            ind_v[k] = ((x[i_n] if i_n >= 0 else 0.0)
                        - (x[j_n] if j_n >= 0 else 0.0))
        ind_i = np.array(new_ind_i, dtype=float)

        v_out[step] = [0.0 if k < 0 else x[k] for k in node_idx]
        i_out[step] = [x[r] for r in cur_rows]

    return TransientResult(
        time=times,
        voltages={n: v_out[:, c] for c, n in enumerate(node_names)},
        vsource_currents={n: i_out[:, c] for c, n in enumerate(cur_names)})
