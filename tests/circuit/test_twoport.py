"""Two-port network parameter tests: conversions, cascade, passivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.twoport import (TwoPort, cascade, is_passive, s_to_abcd)
from repro.tech.interconnect3d import tgv_model


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


class TestTransmissionLine:
    def test_matched_line_is_transparent(self):
        gamma = 1j * 2 * math.pi * 1e9 / 1.5e8
        tp = TwoPort.transmission_line(50.0, gamma, 0.01, 1e9)
        s = tp.to_s(50.0)
        assert abs(s[0, 0]) == pytest.approx(0.0, abs=1e-9)
        assert abs(s[1, 0]) == pytest.approx(1.0, abs=1e-9)

    def test_lossy_line_attenuates(self):
        gamma = 5.0 + 1j * 40.0
        tp = TwoPort.transmission_line(50.0, gamma, 0.01, 1e9)
        assert tp.insertion_loss_db(50.0) < -0.3

    def test_quarter_wave_inverts_impedance(self):
        f = 1e9
        wavelength = 1.5e8 / f
        gamma = 1j * 2 * math.pi / wavelength
        tp = TwoPort.transmission_line(50.0, gamma, wavelength / 4, f)
        zin = tp.input_impedance(100.0)
        assert zin.real == pytest.approx(2500.0 / 100.0, rel=1e-6)


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

    def test_z_params_of_tee(self):
        # Series 10 + shunt 1/0.02 network.
        tp = TwoPort.series(10.0, 1e9) @ TwoPort.shunt(0.02, 1e9)
        z = tp.to_z()
        assert z[1, 1] == pytest.approx(50.0)
        assert z[0, 0] == pytest.approx(60.0)

    def test_z_params_singular_for_series_only(self):
        with pytest.raises(ValueError):
            TwoPort.series(10.0, 1e9).to_z()

    def test_voltage_transfer_divider(self):
        tp = TwoPort.series(50.0, 1e9)
        vt = tp.voltage_transfer(source_z=50.0, load_z=100.0)
        assert abs(vt) == pytest.approx(0.5)

    def test_s_to_abcd_rejects_opaque(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            s_to_abcd(s, 1e9)


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
