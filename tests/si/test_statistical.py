"""Statistical eye analysis tests."""

import numpy as np
import pytest

from repro.si.eye import EyeResult
from repro.si.statistical import (analyze_statistical_eye, ber_to_q,
                                  q_to_ber)


def clean_eye(height=0.9, n=64):
    """A fully-open synthetic eye with the given swing."""
    return EyeResult(eye_width_ns=1.4, eye_height_v=height,
                     ui_ns=1.4285714, samples_per_ui=n,
                     high_min=np.full(n, height),
                     low_max=np.zeros(n))


class TestQBer:
    def test_known_values(self):
        # Q=7 ~ 1.28e-12 (standard table value).
        assert q_to_ber(7.0) == pytest.approx(1.28e-12, rel=0.01)
        assert q_to_ber(6.0) == pytest.approx(9.87e-10, rel=0.01)

    def test_monotone(self):
        assert q_to_ber(3.0) > q_to_ber(5.0) > q_to_ber(8.0)

    def test_inverse(self):
        for q in (2.0, 5.0, 7.5):
            assert ber_to_q(q_to_ber(q)) == pytest.approx(q, abs=1e-3)

    def test_ber_to_q_validation(self):
        with pytest.raises(ValueError):
            ber_to_q(0.7)


class TestStatisticalEye:
    def test_clean_eye_has_huge_q(self):
        rep = analyze_statistical_eye(clean_eye(), noise_mv=10.0)
        assert rep.q_factor == pytest.approx(45.0, rel=0.01)
        assert rep.ber_at_center < 1e-15
        assert rep.meets_target

    def test_more_noise_lower_q(self):
        quiet = analyze_statistical_eye(clean_eye(), noise_mv=5.0)
        loud = analyze_statistical_eye(clean_eye(), noise_mv=50.0)
        assert loud.q_factor < quiet.q_factor
        assert loud.voltage_margin_mv < quiet.voltage_margin_mv

    def test_marginal_eye_fails_target(self):
        # 60 mV half-opening with 20 mV noise: Q ~ 1.5 — hopeless BER.
        eye = clean_eye(height=0.9)
        eye.high_min[:] = 0.51
        eye.low_max[:] = 0.39
        rep = analyze_statistical_eye(eye, noise_mv=20.0)
        assert not rep.meets_target
        assert rep.voltage_margin_mv == 0.0

    def test_jitter_shrinks_timing_margin(self):
        # Close the eye near its edges so jitter has something to hit.
        eye = clean_eye()
        eye.high_min[:6] = 0.45
        eye.high_min[-6:] = 0.45
        calm = analyze_statistical_eye(eye, rj_ps=2.0)
        shaky = analyze_statistical_eye(eye, rj_ps=120.0)
        assert shaky.timing_margin_ps <= calm.timing_margin_ps

    def test_bathtub_shape(self):
        eye = clean_eye()
        eye.high_min[:8] = 0.45  # closed phases → high BER there
        rep = analyze_statistical_eye(eye)
        offs, bers = rep.timing_bathtub
        assert len(offs) == len(bers) == eye.samples_per_ui
        assert bers.max() > bers.min()
        assert (bers <= 0.5).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze_statistical_eye(clean_eye(), rj_ps=0.0)
        with pytest.raises(ValueError):
            analyze_statistical_eye(clean_eye(), noise_mv=-1.0)
