"""Two-port network parameter tests: conversions, cascade, passivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.twoport import TwoPort, cascade, is_passive
from repro.tech.interconnect3d import tgv_model


def s_to_abcd(s: np.ndarray, frequency_hz: float,
              z0: float = 50.0) -> TwoPort:
    """Build a :class:`TwoPort` from 2x2 S-parameters."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (2, 2):
        raise ValueError("S matrix must be 2x2")
    s11, s12 = s[0]
    s21, s22 = s[1]
    if abs(s21) < 1e-30:
        raise ValueError("S21 = 0: network is opaque, ABCD undefined")
    den = 2 * s21
    a = ((1 + s11) * (1 - s22) + s12 * s21) / den
    b = z0 * ((1 + s11) * (1 + s22) - s12 * s21) / den
    c = ((1 - s11) * (1 - s22) - s12 * s21) / (z0 * den)
    d = ((1 - s11) * (1 + s22) + s12 * s21) / den
    return TwoPort(frequency_hz, np.array([[a, b], [c, d]]))


class TestConstructors:
    def test_series_element(self):
        tp = TwoPort.series(100.0, 1e9)
        assert tp.abcd[0, 1] == 100.0
        assert tp.abcd[0, 0] == 1.0

    def test_shunt_element(self):
        tp = TwoPort.shunt(0.01, 1e9)
        assert tp.abcd[1, 0] == pytest.approx(0.01)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            TwoPort(1e9, np.eye(3))

    def test_rlc_pi(self):
        tp = TwoPort.from_rlc_pi(tgv_model(), 7e8)
        s = tp.to_s(50.0)
        assert is_passive(s)


class TestCascade:
    def test_two_series_elements_add(self):
        a = TwoPort.series(30.0, 1e9)
        b = TwoPort.series(20.0, 1e9)
        c = a @ b
        assert c.abcd[0, 1] == pytest.approx(50.0)

    def test_cascade_list(self):
        parts = [TwoPort.series(10.0, 1e9) for _ in range(5)]
        assert cascade(parts).abcd[0, 1] == pytest.approx(50.0)

    def test_frequency_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TwoPort.series(1.0, 1e9) @ TwoPort.series(1.0, 2e9)

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            cascade([])


class TestConversions:
    def test_abcd_s_roundtrip(self):
        tp = TwoPort.from_rlc_pi(tgv_model(), 7e8)
        back = s_to_abcd(tp.to_s(50.0), 7e8, 50.0)
        assert np.allclose(back.abcd, tp.abcd, rtol=1e-8)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=0.01, max_value=1e3),
       l=st.floats(min_value=1e-12, max_value=1e-8),
       c=st.floats(min_value=1e-16, max_value=1e-11))
def test_rlc_networks_always_passive(r, l, c):
    """Property: any positive-RLC pi network must be passive."""
    from repro.tech.interconnect3d import LumpedRLC
    rlc = LumpedRLC(resistance_ohm=r, inductance_h=l, capacitance_f=c)
    tp = TwoPort.from_rlc_pi(rlc, 7e8)
    assert is_passive(tp.to_s(50.0), tolerance=1e-6)
