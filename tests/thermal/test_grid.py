"""FD thermal solver tests: analytic slabs and conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.grid import ThermalGrid


def uniform_grid(k=10.0, h_top=100.0, h_bot=100.0, layers=3):
    g = ThermalGrid(8, 8, [100e-6] * layers, 100e-6, 100e-6,
                    ambient_c=25.0)
    for z in range(layers):
        g.set_layer_k(z, k)
    g.h_top = h_top
    g.h_bottom = h_bot
    return g


class TestAnalytic:
    def test_no_power_is_ambient(self):
        g = uniform_grid()
        sol = g.solve()
        assert np.allclose(sol.temperature_c, 25.0)

    def test_uniform_power_symmetric_bc_energy_balance(self):
        """Total convected heat must equal injected power."""
        g = uniform_grid()
        g.add_power(1, 0, 8, 0, 8, 1.0)
        sol = g.solve()
        area = 100e-6 * 100e-6
        q_top = (g.h_top * area
                 * (sol.temperature_c[-1] - 25.0)).sum()
        q_bot = (g.h_bottom * area
                 * (sol.temperature_c[0] - 25.0)).sum()
        assert q_top + q_bot == pytest.approx(1.0, rel=1e-9)

    def test_one_sided_cooling_slab_gradient(self):
        """Heat injected at top, removed at bottom: linear layer drop."""
        g = uniform_grid(k=1.0, h_top=1e-12, h_bot=1e5, layers=4)
        g.add_power(3, 0, 8, 0, 8, 0.5)
        sol = g.solve()
        means = [sol.layer(z).mean() for z in range(4)]
        # Monotone decreasing toward the cooled face.
        assert means[3] > means[2] > means[1] > means[0] > 25.0
        # Drop per interface = q * dz / (k A_total).
        area_total = 64 * (100e-6) ** 2
        expected = 0.5 * 100e-6 / (1.0 * area_total)
        assert means[2] - means[1] == pytest.approx(expected, rel=0.01)

    def test_hot_spot_above_source(self):
        g = uniform_grid(k=2.0)
        g.add_power(1, 3, 5, 3, 5, 0.2)
        sol = g.solve()
        hot = sol.layer(1)
        assert hot[3:5, 3:5].mean() > hot[0, 0]

    def test_better_conductor_spreads_heat(self):
        temps = {}
        for k in (1.0, 100.0):
            g = uniform_grid(k=k)
            g.add_power(1, 3, 5, 3, 5, 0.2)
            temps[k] = g.solve().peak()
        assert temps[100.0] < temps[1.0]

    def test_more_cooling_lower_peak(self):
        peaks = {}
        for h in (50.0, 5000.0):
            g = uniform_grid(h_top=h, h_bot=h)
            g.add_power(1, 0, 8, 0, 8, 0.5)
            peaks[h] = g.solve().peak()
        assert peaks[5000.0] < peaks[50.0]


class TestApi:
    def test_power_pattern_resampling(self):
        g = uniform_grid()
        pattern = np.zeros((4, 4))
        pattern[0, 0] = 1.0
        g.add_power(1, 0, 8, 0, 8, 1.0, pattern=pattern)
        assert g.q.sum() == pytest.approx(1.0)
        # All power lands in the pattern's hot corner.
        assert g.q[1, 0:2, 0:2].sum() == pytest.approx(1.0)

    def test_bad_pattern_rejected(self):
        g = uniform_grid()
        with pytest.raises(ValueError):
            g.add_power(0, 0, 8, 0, 8, 1.0,
                        pattern=np.zeros((2, 2)))

    def test_empty_region_rejected(self):
        g = uniform_grid()
        with pytest.raises(ValueError):
            g.add_power(0, 4, 4, 0, 8, 1.0)

    def test_conductivity_validation(self):
        g = uniform_grid()
        with pytest.raises(ValueError):
            g.set_layer_k(0, -1.0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ThermalGrid(1, 8, [1e-4], 1e-4, 1e-4)
        with pytest.raises(ValueError):
            ThermalGrid(8, 8, [], 1e-4, 1e-4)
        with pytest.raises(ValueError):
            ThermalGrid(8, 8, [0.0], 1e-4, 1e-4)


@settings(max_examples=10, deadline=None)
@given(p=st.floats(min_value=0.01, max_value=2.0))
def test_temperature_linear_in_power(p):
    """Property: steady conduction is linear — T rise scales with P."""
    g1 = uniform_grid()
    g1.add_power(1, 2, 6, 2, 6, 1.0)
    rise1 = g1.solve().peak() - 25.0
    g2 = uniform_grid()
    g2.add_power(1, 2, 6, 2, 6, p)
    rise2 = g2.solve().peak() - 25.0
    assert rise2 == pytest.approx(p * rise1, rel=1e-6)
