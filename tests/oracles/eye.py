"""Forced-stepping golden reference for :func:`repro.si.eye.simulate_eye`.

Production synthesizes the received waveform from a pulse-response
bank; this reference builds the same eye circuit and steps it in full
with the trapezoidal engine, then folds and measures it the same way.
"""

import inspect
import math

from repro.circuit.transient import simulate
from repro.si import eye
from repro.si.eye import EyeResult


def simulate_eye_stepped(*args, **kwargs) -> EyeResult:
    """:func:`repro.si.eye.simulate_eye` with every timestep simulated.

    Takes exactly :func:`~repro.si.eye.simulate_eye`'s arguments and
    defaults.
    """
    bound = inspect.signature(eye.simulate_eye).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    ckt, bits, ui, dt = eye._build_eye_circuit(
        a["line"], a["length_um"], a["lumped"], a["coupled"],
        a["data_rate_gbps"], a["num_bits"], a["aggressors"], a["driver"],
        a["vdd"], a["samples_per_ui"], a["seed"])
    result = simulate(ckt, t_stop=a["num_bits"] * ui, dt=dt,
                      record=["vrx"])
    time, wave = result.time, result.voltage("vrx")
    latency = eye._estimate_latency(time, wave, bits, ui, a["vdd"])
    usable = a["num_bits"] - int(math.ceil(latency / ui)) - 1
    high_min, low_max = eye.fold_eye(time, wave, bits[:usable], ui,
                                     latency, a["samples_per_ui"])
    return eye.eye_metrics(high_min, low_max, ui, a["vdd"])
