"""Unit tests for OpenPiton module/bus specifications."""

import pytest

from repro.arch.modules import (CellMix, INTER_TILE_BUSES,
                                INTRA_TILE_BUSES, LOGIC_CHIPLET,
                                MEMORY_CHIPLET, TILE_MODULES,
                                get_module, modules_for_chiplet)


class TestCellMix:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            CellMix(comb=0.5, seq=0.2, buf=0.1, sram=0.1)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError):
            CellMix(comb=1.2, seq=-0.2, buf=0.0, sram=0.0)

    def test_all_module_mixes_valid(self):
        for m in TILE_MODULES:
            total = m.mix.comb + m.mix.seq + m.mix.buf + m.mix.sram
            assert total == pytest.approx(1.0)


class TestModuleCounts:
    def test_logic_chiplet_cell_count_near_paper(self):
        # Table III: 167,495 including SerDes; modules alone a bit less.
        count = sum(m.instance_count
                    for m in modules_for_chiplet(LOGIC_CHIPLET))
        assert 160_000 < count < 168_000

    def test_memory_chiplet_cell_count_near_paper(self):
        count = sum(m.instance_count
                    for m in modules_for_chiplet(MEMORY_CHIPLET))
        assert 35_000 < count < 38_000

    def test_partition_is_exhaustive(self):
        both = (modules_for_chiplet(LOGIC_CHIPLET)
                + modules_for_chiplet(MEMORY_CHIPLET))
        assert len(both) == len(TILE_MODULES)

    def test_l3_is_memory_side(self):
        memory_names = {m.name for m in modules_for_chiplet(MEMORY_CHIPLET)}
        assert memory_names == {"l3_data", "l3_tag", "l3_ctrl"}

    def test_get_module(self):
        assert get_module("core").instance_count > 50_000
        with pytest.raises(KeyError):
            get_module("gpu")

    def test_bad_chiplet_label(self):
        with pytest.raises(ValueError):
            modules_for_chiplet("dram")


class TestBuses:
    def test_inter_tile_raw_count_is_404(self):
        # Six 64-bit buses + 20 control (Section IV-A).
        assert sum(b.width for b in INTER_TILE_BUSES) == 404

    def test_intra_tile_count_is_231(self):
        assert sum(b.width for b in INTRA_TILE_BUSES) == 231

    def test_six_data_buses(self):
        data = [b for b in INTER_TILE_BUSES if not b.is_control]
        assert len(data) == 6
        assert all(b.width == 64 for b in data)

    def test_twenty_control_signals(self):
        ctrl = [b for b in INTER_TILE_BUSES if b.is_control]
        assert sum(b.width for b in ctrl) == 20

    def test_intra_tile_runs_l2_to_l3(self):
        ends = {(b.src, b.dst) for b in INTRA_TILE_BUSES}
        assert ("l2", "l3_ctrl") in ends
