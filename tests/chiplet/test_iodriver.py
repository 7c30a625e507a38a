"""AIB I/O driver model tests."""

import pytest

from repro.chiplet.iodriver import AIB_DRIVER, AIB_DRIVER_X64


class TestAibSpec:
    def test_published_output_impedance(self):
        assert AIB_DRIVER.output_impedance_ohm == pytest.approx(47.4)

    def test_strengths(self):
        assert AIB_DRIVER.tx_strength == 128
        assert AIB_DRIVER.rx_strength == 16

    def test_table3_aib_areas(self):
        # Table III: 22,507 um^2 for 299 pins; 17,388 for 231.
        assert AIB_DRIVER.total_area_um2(299) == pytest.approx(22_507,
                                                               rel=0.01)
        assert AIB_DRIVER.total_area_um2(231) == pytest.approx(17_388,
                                                               rel=0.01)

    def test_macro_dimensions(self):
        assert AIB_DRIVER.macro_width_um == pytest.approx(9.9)
        assert AIB_DRIVER.macro_height_um == pytest.approx(9.4)

    def test_driver_delay_near_table5(self):
        # Table V "IO drivers" column: ~39.5 ps.
        assert AIB_DRIVER.driver_delay_ps(0.0) == pytest.approx(38.2)
        assert AIB_DRIVER.driver_delay_ps(30.0) > 38.2

    def test_driver_power_near_table5(self):
        # Table V: ~26.3-26.9 uW at 700 MHz.
        p = AIB_DRIVER.driver_power_uw(700e6)
        assert p == pytest.approx(26.25, rel=0.02)

    def test_power_scales_with_activity(self):
        full = AIB_DRIVER.driver_power_uw(700e6, activity=1.0)
        half = AIB_DRIVER.driver_power_uw(700e6, activity=0.5)
        assert half == pytest.approx(full / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            AIB_DRIVER.total_area_um2(-1)
        with pytest.raises(ValueError):
            AIB_DRIVER.driver_delay_ps(-1.0)
        with pytest.raises(ValueError):
            AIB_DRIVER.driver_power_uw(0.0)
        with pytest.raises(ValueError):
            AIB_DRIVER.driver_power_uw(1e9, activity=2.0)

    def test_weak_variant_slower(self):
        assert AIB_DRIVER_X64.output_impedance_ohm > \
            AIB_DRIVER.output_impedance_ohm
        assert AIB_DRIVER_X64.intrinsic_delay_ps > \
            AIB_DRIVER.intrinsic_delay_ps
