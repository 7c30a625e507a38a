"""Coupled-line model tests."""

import pytest

from repro.circuit import Circuit
from repro.si.crosstalk import add_coupled_bundle, coupled_line_for_spec
from repro.tech.interposer import APX, GLASS_25D, SILICON_25D


class TestCoupledParameters:
    def test_tighter_spacing_more_coupling(self):
        tight = coupled_line_for_spec(GLASS_25D, spacing_um=2.0)
        loose = coupled_line_for_spec(GLASS_25D, spacing_um=8.0)
        assert tight.cm_per_m > loose.cm_per_m
        assert tight.k_l >= loose.k_l

    def test_silicon_worst_return_factor(self):
        rf = {s.name: coupled_line_for_spec(s).return_factor
              for s in (GLASS_25D, SILICON_25D, APX)}
        assert rf["silicon_25d"] == max(rf.values())
        assert rf["silicon_25d"] == pytest.approx(4.0)
        assert rf["glass_25d"] == pytest.approx(1.0)

    def test_apx_wide_spacing_low_coupling_ratio(self):
        lines = {s.name: coupled_line_for_spec(s) for s in (GLASS_25D, APX)}
        ratios = {name: c.cm_per_m / c.line.c_per_m
                  for name, c in lines.items()}
        assert ratios["apx"] < ratios["glass_25d"]

    def test_k_within_physical_range(self):
        for spec in (GLASS_25D, SILICON_25D, APX):
            k = coupled_line_for_spec(spec).k_l
            assert 0.0 < k < 1.0


class TestBundleConstruction:
    def test_three_conductor_bundle_elements(self):
        coupled = coupled_line_for_spec(GLASS_25D)
        ckt = Circuit()
        for n in ("a_in", "v_in", "b_in", "a_out", "v_out", "b_out"):
            ckt.add_resistor(f"anchor_{n}", n, "0", 1e9)
        add_coupled_bundle(ckt, "b", ["a_in", "v_in", "b_in"],
                           ["a_out", "v_out", "b_out"], coupled, 1000.0,
                           segments=4)
        # 3 conductors x 4 segments of R+L+C, plus coupling C and K.
        assert len(ckt.inductors) == 12
        assert len(ckt.mutuals) == 8  # 2 adjacencies x 4 segments
        coupling_caps = [c for c in ckt.capacitors if "_x" in c.name]
        assert len(coupling_caps) == 8

    def test_validation(self):
        coupled = coupled_line_for_spec(GLASS_25D)
        ckt = Circuit()
        with pytest.raises(ValueError):
            add_coupled_bundle(ckt, "b", ["a"], ["b"], coupled, 100.0)
        with pytest.raises(ValueError):
            add_coupled_bundle(ckt, "b", ["a", "b"], ["c"], coupled, 100.0)
        with pytest.raises(ValueError):
            add_coupled_bundle(ckt, "b", ["a", "b"], ["c", "d"], coupled,
                               -5.0)
