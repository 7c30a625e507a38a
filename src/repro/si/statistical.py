"""Statistical eye analysis: jitter/noise convolution, bathtubs, BER.

The paper's eyes (Fig. 14) are deterministic worst-case envelopes.  A
link designer adopting the flow also needs statistical margins: this
module extends a deterministic :class:`~repro.si.eye.EyeResult` with
Gaussian random jitter and voltage noise, producing the standard
quantities ADS/industry tools report — Q-factor, BER at the sampling
point, and timing/voltage bathtub curves.

The model: the deterministic envelope gives the *bounded* (ISI +
crosstalk) part; random jitter shifts the sampling instant with
standard deviation ``rj_ps`` and random noise shifts the threshold with
standard deviation ``noise_mv``.  BER at an offset is the Gaussian tail
probability of crossing the remaining margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .eye import EyeResult


def q_to_ber(q: float) -> float:
    """Gaussian tail probability for a Q-factor (one-sided)."""
    if q <= 0:
        return 0.5
    return 0.5 * math.erfc(q / math.sqrt(2.0))


def ber_to_q(ber: float) -> float:
    """Inverse of :func:`q_to_ber` via bisection."""
    if not 0 < ber < 0.5:
        raise ValueError("BER must be in (0, 0.5)")
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if q_to_ber(mid) > ber:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@dataclass
class StatisticalEyeReport:
    """Statistical link margins derived from a deterministic eye.

    Attributes:
        q_factor: Voltage Q at the optimal sampling point.
        ber_at_center: BER at the optimal sampling point.
        timing_margin_ps: Half-width of the timing bathtub at the target
            BER (one-sided, from eye center).
        voltage_margin_mv: One-sided voltage margin at the target BER.
        target_ber: BER the margins are quoted at.
        timing_bathtub: (offsets_ps, ber) arrays across the UI.
    """

    q_factor: float
    ber_at_center: float
    timing_margin_ps: float
    voltage_margin_mv: float
    target_ber: float
    timing_bathtub: Tuple[np.ndarray, np.ndarray]

    @property
    def meets_target(self) -> bool:
        """Whether the center BER meets the target."""
        return self.ber_at_center <= self.target_ber


def analyze_statistical_eye(eye: EyeResult, rj_ps: float = 8.0,
                            noise_mv: float = 10.0,
                            target_ber: float = 1e-12,
                            vdd: float = 0.9) -> StatisticalEyeReport:
    """Convolve a deterministic eye with Gaussian jitter and noise.

    Args:
        eye: Deterministic eye (per-phase envelopes required).
        rj_ps: Random-jitter sigma.
        noise_mv: Voltage-noise sigma.
        target_ber: BER for quoting margins.
        vdd: Swing (threshold at vdd/2).

    Returns:
        A :class:`StatisticalEyeReport`.
    """
    if rj_ps <= 0 or noise_mv <= 0:
        raise ValueError("jitter and noise sigmas must be positive")
    n = eye.samples_per_ui
    ui_ps = eye.ui_ns * 1000.0
    phase_ps = np.arange(n) / n * ui_ps
    vmid = vdd / 2.0

    hi = np.where(np.isnan(eye.high_min), -np.inf, eye.high_min)
    lo = np.where(np.isnan(eye.low_max), np.inf, eye.low_max)

    # Per-phase deterministic margins to the threshold (volts).
    margin_hi = hi - vmid
    margin_lo = vmid - lo

    sigma_v = noise_mv * 1e-3
    sigma_t_phases = rj_ps / ui_ps * n  # jitter in phase samples

    # BER(phase): jitter smears the phase; approximate by evaluating the
    # Gaussian-weighted average of the per-phase threshold-crossing
    # probability over neighbouring phases.
    half_window = max(1, int(math.ceil(3 * sigma_t_phases)))
    offsets = np.arange(-half_window, half_window + 1)
    weights = np.exp(-0.5 * (offsets / max(sigma_t_phases, 1e-9)) ** 2)
    weights /= weights.sum()

    def phase_ber(idx: int) -> float:
        total = 0.0
        for off, w in zip(offsets, weights):
            k = (idx + off) % n
            p_hi = q_to_ber(margin_hi[k] / sigma_v) \
                if np.isfinite(margin_hi[k]) else 0.5
            p_lo = q_to_ber(margin_lo[k] / sigma_v) \
                if np.isfinite(margin_lo[k]) else 0.5
            total += w * 0.5 * (p_hi + p_lo)
        return min(0.5, total)

    bers = np.array([phase_ber(i) for i in range(n)])
    center = int(np.argmin(bers))
    ber_center = float(bers[center])

    # Q at center from the smaller of the two margins.
    m = min(margin_hi[center], margin_lo[center])
    q = float(m / sigma_v) if np.isfinite(m) else 0.0

    # Timing margin: widest contiguous run around center with
    # BER <= target, halved.
    ok = bers <= target_ber
    margin_samples = 0
    step = 1
    while (margin_samples < n // 2
           and ok[(center + step) % n] and ok[(center - step) % n]):
        margin_samples = step
        step += 1
    timing_margin_ps = margin_samples / n * ui_ps

    # Voltage margin at target BER: eye half-height minus the noise that
    # a target-BER Gaussian consumes.
    q_target = ber_to_q(target_ber)
    v_margin = max(0.0, (m - q_target * sigma_v)) * 1e3 \
        if np.isfinite(m) else 0.0

    # Bathtub: offsets from center across the UI.
    rel = (np.arange(n) - center) / n * ui_ps
    order = np.argsort(rel)
    return StatisticalEyeReport(
        q_factor=q,
        ber_at_center=ber_center,
        timing_margin_ps=timing_margin_ps,
        voltage_margin_mv=float(v_margin),
        target_ber=target_ber,
        timing_bathtub=(rel[order], bers[order]))
