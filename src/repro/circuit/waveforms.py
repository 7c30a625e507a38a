"""Source waveforms for transient circuit simulation.

A waveform is a callable ``t_seconds -> value`` plus a little metadata.
The constructors here mirror the SPICE source syntax the paper's HSPICE
decks would have used: DC and PULSE, a step, and a PRBS generator and
bitstream for eye diagrams.

Every constructor also attaches a vectorized ``wave.sample(times)``
evaluator (``times`` a numpy array) so the transient engine can sample a
source over its whole time grid in one batched call instead of one
Python call per step.  Custom waveform callables without ``.sample``
still work — they just fall back to per-point evaluation.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

Waveform = Callable[[float], float]


def dc(value: float) -> Waveform:
    """Constant source."""

    def wave(t: float) -> float:
        return value

    def sample(times: np.ndarray) -> np.ndarray:
        return np.full(len(times), value, dtype=float)

    wave.sample = sample
    return wave


def step(level: float, t_start: float = 0.0,
         rise_time: float = 1e-12) -> Waveform:
    """0 → ``level`` step with a finite linear rise starting at ``t_start``."""
    if rise_time <= 0:
        raise ValueError("rise_time must be positive")

    def wave(t: float) -> float:
        if t <= t_start:
            return 0.0
        if t >= t_start + rise_time:
            return level
        return level * (t - t_start) / rise_time

    def sample(times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = level * (t - t_start) / rise_time
        out[t <= t_start] = 0.0
        out[t >= t_start + rise_time] = level
        return out

    wave.sample = sample
    return wave


def pulse(v1: float, v2: float, delay: float, rise: float, fall: float,
          width: float, period: float) -> Waveform:
    """SPICE PULSE source: v1→v2 edges with given rise/fall/width/period."""
    if period <= 0:
        raise ValueError("period must be positive")
    if rise <= 0 or fall <= 0:
        raise ValueError("rise/fall must be positive")
    if rise + width + fall > period:
        raise ValueError("rise + width + fall exceeds period")

    def wave(t: float) -> float:
        if t < delay:
            return v1
        tc = (t - delay) % period
        if tc < rise:
            return v1 + (v2 - v1) * tc / rise
        tc -= rise
        if tc < width:
            return v2
        tc -= width
        if tc < fall:
            return v2 + (v1 - v2) * tc / fall
        return v1

    def sample(times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        tc = (t - delay) % period
        out = np.select(
            [t < delay,
             tc < rise,
             tc < rise + width,
             tc < rise + width + fall],
            [v1,
             v1 + (v2 - v1) * tc / rise,
             v2,
             v2 + (v1 - v2) * (tc - rise - width) / fall],
            default=v1)
        return out

    wave.sample = sample
    return wave


def prbs_bits(order: int = 7, length: int = 127, seed: int = 0x5A) -> List[int]:
    """Pseudo-random bit sequence from an LFSR (PRBS-7 by default).

    Args:
        order: LFSR order (7 → PRBS7, taps x^7 + x^6 + 1).
        length: Number of bits to emit.
        seed: Non-zero LFSR initial state.
    """
    taps = {5: (5, 3), 7: (7, 6), 9: (9, 5), 11: (11, 9), 15: (15, 14)}
    if order not in taps:
        raise ValueError(f"unsupported PRBS order {order}; "
                         f"supported: {sorted(taps)}")
    if length < 1:
        raise ValueError("length must be >= 1")
    state = seed & ((1 << order) - 1)
    if state == 0:
        state = 1
    a, b = taps[order]
    bits = []
    for _ in range(length):
        newbit = ((state >> (a - 1)) ^ (state >> (b - 1))) & 1
        state = ((state << 1) | newbit) & ((1 << order) - 1)
        bits.append(newbit)
    return bits


def bitstream(bits: Sequence[int], bit_period: float, v_low: float,
              v_high: float, rise: float) -> Waveform:
    """NRZ waveform for a bit sequence with linear edges.

    Args:
        bits: The bit sequence (0/1).
        bit_period: Unit interval in seconds.
        v_low: Voltage for a 0 bit.
        v_high: Voltage for a 1 bit.
        rise: Edge (10-90-ish) transition time in seconds; must be shorter
            than the bit period.
    """
    if not bits:
        raise ValueError("empty bit sequence")
    if rise <= 0 or rise >= bit_period:
        raise ValueError("rise must be in (0, bit_period)")

    levels = [v_high if b else v_low for b in bits]

    def wave(t: float) -> float:
        if t < 0:
            return levels[0]
        idx = int(t / bit_period)
        if idx >= len(levels):
            return levels[-1]
        prev = levels[idx - 1] if idx > 0 else levels[0]
        cur = levels[idx]
        t_in = t - idx * bit_period
        if t_in >= rise or prev == cur:
            return cur
        return prev + (cur - prev) * t_in / rise

    lv = np.array(levels, dtype=float)
    pv = np.concatenate(([lv[0]], lv[:-1]))  # previous bit's level

    def sample(ts: np.ndarray) -> np.ndarray:
        t = np.asarray(ts, dtype=float)
        idx = (t / bit_period).astype(np.int64)
        idx_c = np.clip(idx, 0, len(lv) - 1)
        cur = lv[idx_c]
        prev = pv[idx_c]
        t_in = t - idx_c * bit_period
        edge = prev + (cur - prev) * t_in / rise
        out = np.where((t_in >= rise) | (prev == cur), cur, edge)
        out[t < 0] = lv[0]
        out[idx >= len(lv)] = lv[-1]
        return out

    wave.sample = sample
    return wave
