"""Unit tests for the 28nm-class standard-cell library."""

import pytest

from repro.tech.stdcell import CellKind, CellLibrary, N28_LIB


class TestLibraryLookup:
    def test_contains(self):
        assert "INV_X1" in N28_LIB
        assert "NAND9_X9" not in N28_LIB

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="N28"):
            N28_LIB.get("NOPE")

    def test_len_matches_names(self):
        assert len(N28_LIB) == len(N28_LIB.names())

    def test_duplicate_cell_rejected(self):
        cell = N28_LIB.get("INV_X1")
        with pytest.raises(ValueError, match="duplicate"):
            CellLibrary("dup", [cell, cell])

    def test_vdd_default(self):
        assert N28_LIB.vdd == pytest.approx(0.9)


class TestDelayModel:
    def test_zero_load_is_intrinsic(self):
        inv = N28_LIB.get("INV_X1")
        assert inv.delay_ps(0.0) == pytest.approx(inv.intrinsic_delay_ps)

    def test_delay_linear_in_load(self):
        inv = N28_LIB.get("INV_X1")
        d5 = inv.delay_ps(5.0) - inv.intrinsic_delay_ps
        d10 = inv.delay_ps(10.0) - inv.intrinsic_delay_ps
        assert d10 == pytest.approx(2 * d5)

    def test_rc_units(self):
        # 5200 ohm * 10 fF = 52 ps.
        inv = N28_LIB.get("INV_X1")
        assert inv.delay_ps(10.0) - inv.intrinsic_delay_ps == \
            pytest.approx(52.0)

    def test_stronger_drive_is_faster(self):
        x1 = N28_LIB.get("INV_X1")
        x4 = N28_LIB.get("INV_X4")
        assert x4.delay_ps(20.0) < x1.delay_ps(20.0)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            N28_LIB.get("INV_X1").delay_ps(-1.0)

    def test_sram_is_slowest_cell(self):
        sram = N28_LIB.get("SRAM_SLICE_64b")
        for cell in N28_LIB.cells():
            assert sram.intrinsic_delay_ps >= cell.intrinsic_delay_ps


class TestEnergyAndArea:
    def test_sram_is_largest_cell(self):
        sram = N28_LIB.get("SRAM_SLICE_64b")
        assert sram.area_um2 == max(c.area_um2 for c in N28_LIB.cells())

    def test_flop_bigger_than_inverter(self):
        assert N28_LIB.get("DFF_X1").area_um2 > \
            N28_LIB.get("INV_X1").area_um2

    def test_all_cells_have_positive_props(self):
        for c in N28_LIB.cells():
            assert c.area_um2 > 0
            assert c.input_cap_ff > 0
            assert c.drive_res_ohm > 0
            assert c.leakage_nw > 0
            assert c.internal_energy_fj > 0

    def test_kinds_present(self):
        for kind in (CellKind.COMBINATIONAL, CellKind.SEQUENTIAL,
                     CellKind.SRAM_MACRO, CellKind.BUFFER):
            assert any(c.kind is kind for c in N28_LIB.cells())
