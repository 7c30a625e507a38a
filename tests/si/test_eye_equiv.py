"""Superposition eye engine pinned to the stepping reference.

The acceptance bar for the pulse-response engine: on every design's
channels, ``simulate_eye`` must match ``simulate_eye_stepped`` (the
``tests/oracles`` reference, full trapezoidal stepping) to ≤1e-9 — on
the folded envelopes, not just the scalar metrics.  The production
fall-back to stepping, for circuits the bank cannot carry, is held to
the same bar.
"""

import numpy as np
import pytest

import repro.si.eye as eye
from repro.core.flow import _channels_for
from repro.interposer.placement import place_dies
from repro.interposer.routing import route_interposer
from repro.si.crosstalk import coupled_line_for_spec
from repro.si.eye import simulate_eye
from repro.tech.interposer import IntegrationStyle, get_spec, spec_names
from tests.oracles import simulate_eye_stepped


def _design_channels(name):
    """The design's L2M/L2L channels at a small test scale."""
    from repro.chiplet.design import build_chiplet

    spec = get_spec(name)
    route = None
    if spec.style is not IntegrationStyle.TSV_STACK:
        logic = build_chiplet("logic", spec, scale=0.015, seed=2023)
        memory = build_chiplet("memory", spec, scale=0.015, seed=2023)
        placement = place_dies(spec, logic.bump_plan, memory.bump_plan)
        route = route_interposer(placement,
                                 logic.bump_plan.signal_positions(),
                                 memory.bump_plan.signal_positions())
    return spec, _channels_for(spec, route)


def _envelope_diff(a, b):
    """Max abs difference between two envelopes, NaN-pattern checked."""
    assert np.array_equal(np.isnan(a), np.isnan(b))
    mask = ~np.isnan(a)
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(a[mask] - b[mask])))


def _assert_matches(eye_a, eye_b):
    assert _envelope_diff(eye_a.high_min, eye_b.high_min) <= 1e-9
    assert _envelope_diff(eye_a.low_max, eye_b.low_max) <= 1e-9
    assert eye_a.eye_width_ns == pytest.approx(eye_b.eye_width_ns,
                                               abs=1e-9)
    assert eye_a.eye_height_v == pytest.approx(eye_b.eye_height_v,
                                               abs=1e-9)


@pytest.mark.parametrize("name", spec_names())
def test_auto_engine_matches_scalar_on_design_channels(name):
    spec, (l2m, l2l) = _design_channels(name)
    coupled = coupled_line_for_spec(spec)
    for ch in (l2m, l2l):
        kwargs = dict(line=ch.line, length_um=ch.length_um,
                      lumped=ch.lumped, coupled=coupled, num_bits=24)
        _assert_matches(simulate_eye(**kwargs),
                        simulate_eye_stepped(**kwargs))


def test_stepping_fallback_matches_reference(monkeypatch):
    """A circuit the pulse-response bank cannot carry is stepped in
    full by production, and that path must match the reference too."""
    spec, (l2m, _l2l) = _design_channels("glass_25d")
    kwargs = dict(line=l2m.line, length_um=l2m.length_um,
                  lumped=l2m.lumped, coupled=coupled_line_for_spec(spec),
                  num_bits=24)
    calls = []

    def no_bank(*args, **kw):
        calls.append(args)
        return None

    monkeypatch.setattr(eye, "pulse_response_bank", no_bank)
    fallback = simulate_eye(**kwargs)
    assert calls  # production asked for a bank and had to step
    _assert_matches(fallback, simulate_eye_stepped(**kwargs))
