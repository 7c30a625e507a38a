"""Structural Verilog export tests."""

import re

import pytest

from repro.arch.generate import generate_chiplet_netlist
from repro.arch.netlist import Netlist
from repro.io.verilog import verilog_stats, write_verilog
from repro.tech.stdcell import N28_LIB


@pytest.fixture(scope="module")
def small_netlist():
    return generate_chiplet_netlist("memory", scale=0.01, seed=4)


class TestWriteVerilog:
    def test_counts_match(self, small_netlist, tmp_path):
        path = str(tmp_path / "m.v")
        write_verilog(small_netlist, path)
        stats = verilog_stats(path)
        assert stats["instances"] == len(small_netlist)
        assert stats["inputs"] + stats["outputs"] == \
            len(small_netlist.ports)

    def test_module_header(self, small_netlist, tmp_path):
        path = str(tmp_path / "m.v")
        write_verilog(small_netlist, path, module_name="mem_chiplet")
        head = open(path).read(4000)
        assert "module mem_chiplet (" in head
        assert head.rstrip().startswith("//")

    def test_ends_with_endmodule(self, small_netlist, tmp_path):
        path = str(tmp_path / "m.v")
        write_verilog(small_netlist, path)
        assert open(path).read().rstrip().endswith("endmodule")

    def test_escaped_identifiers_for_buses(self, small_netlist, tmp_path):
        path = str(tmp_path / "m.v")
        write_verilog(small_netlist, path)
        content = open(path).read()
        # Bus bit names need Verilog escaped-identifier syntax.
        assert "\\l3_addr[0] " in content

    def test_every_cell_reference_is_library_cell(self, small_netlist,
                                                  tmp_path):
        path = str(tmp_path / "m.v")
        write_verilog(small_netlist, path)
        cell_re = re.compile(r"^  ([A-Z][A-Za-z0-9_]*) \\?")
        for line in open(path):
            m = cell_re.match(line)
            if m and m.group(1) not in ("module",):
                assert m.group(1) in N28_LIB

    def test_flops_get_clock_pins(self, tmp_path):
        nl = Netlist("t", N28_LIB)
        nl.add_instance("ff", "DFF_X1")
        nl.add_instance("inv", "INV_X1")
        nl.add_instance("ck", "CLKBUF_X8")
        nl.add_net("d", "inv", ["ff"])
        nl.add_net("clk", "ck", ["ff"], is_clock=True)
        path = str(tmp_path / "ff.v")
        write_verilog(nl, path)
        content = open(path).read()
        assert ".CK(clk)" in content
        assert ".A(d)" in content  # D input maps to first input pin

    def test_output_pin_convention(self, tmp_path):
        nl = Netlist("t", N28_LIB)
        nl.add_instance("ff", "DFF_X1")
        nl.add_instance("inv", "INV_X1")
        nl.add_net("q", "ff", ["inv"])
        nl.add_net("y", "inv", [])
        path = str(tmp_path / "o.v")
        write_verilog(nl, path)
        content = open(path).read()
        assert ".Q(q)" in content
        assert ".Y(y)" in content

    def test_deterministic(self, small_netlist, tmp_path):
        p1, p2 = str(tmp_path / "a.v"), str(tmp_path / "b.v")
        write_verilog(small_netlist, p1)
        write_verilog(small_netlist, p2)
        assert open(p1).read() == open(p2).read()
