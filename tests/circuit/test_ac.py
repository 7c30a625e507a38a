"""Tests for AC sweeps and driving-point impedance."""

import math

import numpy as np
import pytest

from repro.circuit.ac import driving_point_impedance, log_frequencies
from repro.circuit.elements import Circuit


class TestLogFrequencies:
    def test_endpoints(self):
        f = log_frequencies(1e6, 1e9, 10)
        assert f[0] == pytest.approx(1e6)
        assert f[-1] == pytest.approx(1e9)

    def test_density(self):
        f = log_frequencies(1e6, 1e9, 10)
        assert len(f) == 31

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            log_frequencies(1e9, 1e6)
        with pytest.raises(ValueError):
            log_frequencies(0, 1e9)


class TestDrivingPoint:
    def test_resistor_impedance(self):
        c = Circuit()
        c.add_resistor("R", "a", "0", 75.0)
        z = driving_point_impedance(c, "a", [1e6, 1e9])
        assert np.allclose(z.magnitude(), 75.0)

    def test_capacitor_impedance(self):
        c = Circuit()
        c.add_capacitor("C", "a", "0", 1e-9)
        z = driving_point_impedance(c, "a", [1e6])
        expected = 1 / (2 * math.pi * 1e6 * 1e-9)
        assert z.magnitude()[0] == pytest.approx(expected, rel=1e-6)

    def test_inductor_impedance(self):
        c = Circuit()
        c.add_inductor("L", "a", "0", 1e-6)
        c.add_resistor("Rp", "a", "0", 1e9)  # keep matrix non-singular
        z = driving_point_impedance(c, "a", [1e6])
        expected = 2 * math.pi * 1e6 * 1e-6
        assert z.magnitude()[0] == pytest.approx(expected, rel=1e-3)

    def test_series_rlc_minimum_at_resonance(self):
        c = Circuit()
        c.add_resistor("R", "a", "m", 1.0)
        c.add_inductor("L", "m", "m2", 1e-6)
        c.add_capacitor("C", "m2", "0", 1e-9)
        f0 = 1 / (2 * math.pi * math.sqrt(1e-6 * 1e-9))
        z = driving_point_impedance(c, "a",
                                    log_frequencies(1e6, 1e8, 40))
        mags = z.magnitude()
        f_min, z_min = z.frequencies_hz[np.argmin(mags)], mags.min()
        assert f_min == pytest.approx(f0, rel=0.1)
        assert z_min == pytest.approx(1.0, rel=0.2)

    def test_internal_sources_zeroed(self):
        c = Circuit()
        c.add_vsource("V", "b", "0", 5.0)
        c.add_resistor("R1", "b", "a", 50.0)
        c.add_resistor("R2", "a", "0", 50.0)
        z = driving_point_impedance(c, "a", [1e6])
        # V source is an AC short: 50 || 50 = 25.
        assert z.magnitude()[0] == pytest.approx(25.0, rel=1e-6)

    def test_probe_at_ground_rejected(self):
        c = Circuit()
        c.add_resistor("R", "a", "0", 1.0)
        with pytest.raises(ValueError):
            driving_point_impedance(c, "0", [1e6])

    def test_peak_helpers(self):
        c = Circuit()
        c.add_inductor("L", "a", "m", 1e-9)
        c.add_capacitor("C", "m", "0", 1e-9)
        c.add_resistor("R", "a", "0", 1e6)
        z = driving_point_impedance(c, "a",
                                    log_frequencies(1e6, 1e9, 30))
        f_pk, z_pk = z.peak_magnitude()
        assert z_pk >= z.magnitude().min()

    def test_at_nearest_frequency(self):
        c = Circuit()
        c.add_resistor("R", "a", "0", 10.0)
        z = driving_point_impedance(c, "a", [1e6, 1e7])
        assert abs(z.at(1.1e6)) == pytest.approx(10.0)
