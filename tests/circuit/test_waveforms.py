"""Waveform constructor tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import waveforms as wf


class TestBasicSources:
    def test_dc(self):
        w = wf.dc(3.3)
        assert w(0) == 3.3
        assert w(1e9) == 3.3

    def test_step_levels(self):
        w = wf.step(2.0, t_start=1e-9, rise_time=1e-9)
        assert w(0.5e-9) == 0.0
        assert w(1.5e-9) == pytest.approx(1.0)
        assert w(3e-9) == 2.0

    def test_step_rejects_bad_rise(self):
        with pytest.raises(ValueError):
            wf.step(1.0, rise_time=0.0)


class TestPulse:
    def test_pulse_phases(self):
        w = wf.pulse(0.0, 1.0, delay=1e-9, rise=1e-9, fall=1e-9,
                     width=3e-9, period=10e-9)
        assert w(0.5e-9) == 0.0           # before delay
        assert w(1.5e-9) == pytest.approx(0.5)  # mid rise
        assert w(3e-9) == 1.0             # plateau
        assert w(5.5e-9) == pytest.approx(0.5)  # mid fall
        assert w(8e-9) == 0.0             # low

    def test_pulse_periodicity(self):
        w = wf.pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 3e-9, 10e-9)
        assert w(3e-9) == w(13e-9)

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            wf.pulse(0, 1, 0, 5e-9, 5e-9, 5e-9, 10e-9)


class TestPrbs:
    def test_prbs7_period(self):
        bits = wf.prbs_bits(order=7, length=254)
        # PRBS-7 repeats with period 127.
        assert bits[:127] == bits[127:254]

    def test_prbs7_balance(self):
        bits = wf.prbs_bits(order=7, length=127)
        assert sum(bits) in (63, 64)

    def test_prbs_seeds_differ(self):
        a = wf.prbs_bits(length=64, seed=1)
        b = wf.prbs_bits(length=64, seed=77)
        assert a != b

    def test_zero_seed_coerced(self):
        bits = wf.prbs_bits(length=16, seed=0)
        assert any(bits)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            wf.prbs_bits(order=6)


class TestBitstream:
    def test_levels(self):
        w = wf.bitstream([1, 0, 1], 1e-9, 0.0, 0.9, 0.1e-9)
        assert w(0.5e-9) == pytest.approx(0.9)
        assert w(1.5e-9) == pytest.approx(0.0)
        assert w(2.5e-9) == pytest.approx(0.9)

    def test_edge_is_linear(self):
        w = wf.bitstream([0, 1], 1e-9, 0.0, 1.0, 0.2e-9)
        assert w(1.1e-9) == pytest.approx(0.5)

    def test_holds_last_bit(self):
        w = wf.bitstream([1], 1e-9, 0.0, 0.9, 0.1e-9)
        assert w(5e-9) == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            wf.bitstream([], 1e-9, 0, 1, 1e-10)
        with pytest.raises(ValueError):
            wf.bitstream([1], 1e-9, 0, 1, 2e-9)


@settings(max_examples=25, deadline=None)
@given(order=st.sampled_from([5, 7, 9]),
       seed=st.integers(min_value=1, max_value=2**9 - 1))
def test_prbs_is_binary_and_nonconstant(order, seed):
    bits = wf.prbs_bits(order=order, length=80, seed=seed)
    assert set(bits) <= {0, 1}
    assert 0 < sum(bits) < 80
