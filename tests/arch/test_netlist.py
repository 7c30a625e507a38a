"""Unit tests for the netlist data structures."""

import pickle

import pytest

from repro.arch.netlist import Netlist, PortDirection
from repro.tech.stdcell import CellKind, N28_LIB


@pytest.fixture
def small():
    nl = Netlist("t", N28_LIB)
    nl.add_instance("a", "INV_X1", "top/m1")
    nl.add_instance("b", "NAND2_X1", "top/m1")
    nl.add_instance("c", "DFF_X1", "top/m2")
    nl.add_net("n1", "a", ["b"])
    nl.add_net("n2", "b", ["c", "c"])
    nl.add_net("clk", None, ["c"], is_clock=True)
    nl.add_port("clk_in", PortDirection.INPUT, "clk", bus="clk")
    return nl


class TestConstruction:
    def test_instance_count(self, small):
        assert len(small) == 3

    def test_duplicate_instance_rejected(self, small):
        with pytest.raises(ValueError, match="duplicate"):
            small.add_instance("a", "INV_X1")

    def test_unknown_cell_rejected(self, small):
        with pytest.raises(KeyError):
            small.add_instance("z", "FAKE_CELL")

    def test_duplicate_net_rejected(self, small):
        with pytest.raises(ValueError, match="duplicate"):
            small.add_net("n1", "a", [])

    def test_net_with_unknown_endpoint_rejected(self, small):
        with pytest.raises(KeyError, match="unknown instance"):
            small.add_net("bad", "a", ["ghost"])

    def test_port_requires_existing_net(self, small):
        with pytest.raises(KeyError, match="unknown net"):
            small.add_port("p", PortDirection.INPUT, "ghost_net")

    def test_duplicate_port_rejected(self, small):
        with pytest.raises(ValueError, match="duplicate"):
            small.add_port("clk_in", PortDirection.INPUT, "clk")


class TestQueries:
    def test_nets_of(self, small):
        assert small.nets_of("b") == {"n1", "n2"}
        assert small.nets_of("c") == {"n2", "clk"}

    def test_cell_lookup(self, small):
        assert small.cell("a").name == "INV_X1"

    def test_fanout_and_degree(self, small):
        assert small.net("n2").fanout() == 2
        assert small.net("n2").degree() == 3
        assert small.net("clk").degree() == 1

    def test_hierarchy_split(self, small):
        assert small.instance("a").hierarchy() == ("top", "m1")

    def test_module_paths(self, small):
        assert small.module_paths() == {"top/m1", "top/m2"}


class TestStatistics:
    def test_total_area(self, small):
        expected = (N28_LIB.get("INV_X1").area_um2
                    + N28_LIB.get("NAND2_X1").area_um2
                    + N28_LIB.get("DFF_X1").area_um2)
        assert small.total_cell_area_um2() == pytest.approx(expected)

    def test_total_leakage(self, small):
        expected_nw = (N28_LIB.get("INV_X1").leakage_nw
                       + N28_LIB.get("NAND2_X1").leakage_nw
                       + N28_LIB.get("DFF_X1").leakage_nw)
        assert small.total_leakage_mw() == pytest.approx(expected_nw * 1e-6)

    def test_validate_clean(self, small):
        small.validate()


class TestSubset:
    def test_subset_keeps_internal_net(self, small):
        sub = small.subset(["a", "b"])
        assert "n1" in sub.nets
        assert sub.net("n1").sinks == ["b"]

    def test_subset_cuts_boundary_net(self, small):
        sub = small.subset(["a", "b"])
        # n2 crossed the boundary: driver kept, sink c dropped, port made.
        assert sub.net("n2").driver == "b"
        assert sub.net("n2").sinks == []
        assert "n2__pin" in sub.ports
        assert sub.ports["n2__pin"].direction is PortDirection.OUTPUT

    def test_subset_input_side(self, small):
        sub = small.subset(["c"])
        assert sub.net("n2").driver is None
        assert sub.net("n2").sinks == ["c", "c"]
        assert sub.ports["n2__pin"].direction is PortDirection.INPUT

    def test_subset_preserves_clock_flag(self, small):
        sub = small.subset(["c"])
        assert sub.net("clk").is_clock

    def test_subset_validates(self, small):
        small.subset(["a", "b"]).validate()

    def test_subset_instance_attrs_survive(self, small):
        sub = small.subset(["a"])
        assert sub.instance("a").module_path == "top/m1"

    def test_subset_preserves_parent_instance_order(self, small):
        # Instance order must come from the parent netlist, not the
        # caller's iterable (or any hash-ordered set of it) — FM
        # bisection results depend on it.
        sub = small.subset(["c", "a", "b"])
        assert list(sub.instances) == ["a", "b", "c"]

    def test_subset_unknown_instance_rejected(self, small):
        with pytest.raises(KeyError):
            small.subset(["a", "nope"])


class TestArrays:
    def test_layout(self, small):
        view = small.arrays()
        assert view.cells == tuple(N28_LIB.get(c) for c in
                                   ("INV_X1", "NAND2_X1", "DFF_X1"))
        assert view.cell.tolist() == [0, 1, 2]
        assert view.modules == ("top/m1", "top/m2")
        assert view.module.tolist() == [0, 0, 1]
        # n1: a -> b; n2: b -> c, c; clk: port -> c.
        assert view.pin_ptr.tolist() == [0, 2, 5, 6]
        assert view.pins.tolist() == [0, 1, 1, 2, 2, 2]
        assert view.driver.tolist() == [0, 1, -1]
        assert view.clock.tolist() == [False, False, True]
        assert view.pin_net.tolist() == [0, 0, 1, 1, 1, 2]
        assert view.sink.tolist() == [False, True, False, True, True, True]
        assert view.cell_attr("area_um2").tolist() == [
            N28_LIB.get(c).area_um2 for c in ("INV_X1", "NAND2_X1",
                                              "DFF_X1")]
        assert view.cell_kind_in(CellKind.SEQUENTIAL).tolist() == [
            False, False, True]

    def test_read_only(self, small):
        with pytest.raises(ValueError):
            small.arrays().pins[0] = 1

    def test_built_once_and_dropped_by_every_add(self, small):
        view = small.arrays()
        assert small.arrays() is view
        small.add_instance("d", "INV_X2", "top/m3")
        assert small.arrays() is not view
        assert small.arrays().modules[-1] == "top/m3"
        view = small.arrays()
        small.add_net("n3", "d", ["a"])
        assert small.arrays() is not view
        assert small.arrays().pins.tolist()[-2:] == [3, 0]
        view = small.arrays()
        small.add_port("p", PortDirection.OUTPUT, "n3")
        assert small.arrays() is not view

    def test_clone_starts_without_one(self, small):
        view = small.arrays()
        twin = small.clone()
        assert twin.arrays() is not view
        assert twin.arrays().pins.tolist() == view.pins.tolist()

    def test_left_out_of_the_pickle(self, small):
        before = pickle.dumps(small)
        small.arrays()
        assert pickle.dumps(small) == before
        back = pickle.loads(before)
        assert back.arrays().pins.tolist() == small.arrays().pins.tolist()
