"""Placement tests: Hilbert curve properties and locality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chiplet.floorplan import floorplan
from repro.chiplet.place import hilbert_d2xy, place


def _in_region(placement, instance):
    """Whether an instance lies inside its module's region."""
    inst = placement.netlist.instance(instance)
    region = placement.floorplan.region_of(inst.module_path)
    x, y = placement.position(instance)
    return region.contains(x, y)


class TestHilbertCurve:
    def test_visits_every_cell_once(self):
        side = 8
        x, y = hilbert_d2xy(side, np.arange(side * side))
        assert len({(a, b) for a, b in zip(x, y)}) == side * side

    def test_consecutive_points_adjacent(self):
        """The defining Hilbert property: unit steps along the curve."""
        side = 16
        x, y = hilbert_d2xy(side, np.arange(side * side))
        steps = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert (steps == 1).all()

    def test_locality_scaling(self):
        """Distance between curve points ~ sqrt(index distance)."""
        side = 32
        d = np.arange(side * side)
        x, y = hilbert_d2xy(side, d)
        for gap in (4, 16, 64):
            dist = np.sqrt((x[gap:] - x[:-gap]) ** 2
                           + (y[gap:] - y[:-gap]) ** 2)
            assert dist.mean() < 3.0 * np.sqrt(gap)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            hilbert_d2xy(6, np.array([0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_d2xy(4, np.array([16]))

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(min_value=1, max_value=6),
           d=st.integers(min_value=0, max_value=4095))
    def test_in_bounds_property(self, k, d):
        side = 2 ** k
        d = d % (side * side)
        x, y = hilbert_d2xy(side, np.array([d]))
        assert 0 <= x[0] < side
        assert 0 <= y[0] < side


class TestPlacement:
    def test_every_instance_in_its_region(self, memory_netlist):
        fp = floorplan(memory_netlist, 800, 800)
        pl = place(memory_netlist, fp)
        assert all(_in_region(pl, name) for name in memory_netlist.instances)

    def test_positions_unique_enough(self, memory_netlist):
        fp = floorplan(memory_netlist, 800, 800)
        pl = place(memory_netlist, fp)
        coords = set(zip(pl.x_um.round(3), pl.y_um.round(3)))
        assert len(coords) > 0.95 * len(memory_netlist)

    def test_index_locality_becomes_spatial(self, memory_netlist):
        """Instances near in generation index are near in space."""
        fp = floorplan(memory_netlist, 800, 800)
        pl = place(memory_netlist, fp)
        names = [n for n in memory_netlist.instances
                 if n.startswith("tile0/l3_data/")]
        idx = [pl.index_of[n] for n in names]
        x, y = pl.x_um[idx], pl.y_um[idx]
        near = np.hypot(x[1:] - x[:-1], y[1:] - y[:-1]).mean()
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(x))
        far = np.hypot(x[perm][1:] - x[perm][:-1],
                       y[perm][1:] - y[perm][:-1]).mean()
        assert near < far / 3

    def test_position_accessor(self, memory_netlist):
        fp = floorplan(memory_netlist, 800, 800)
        pl = place(memory_netlist, fp)
        name = next(iter(memory_netlist.instances))
        x, y = pl.position(name)
        assert 0 <= x <= 800 and 0 <= y <= 800

    def test_deterministic(self, memory_netlist):
        fp = floorplan(memory_netlist, 800, 800)
        a = place(memory_netlist, fp)
        b = place(memory_netlist, fp)
        assert np.array_equal(a.x_um, b.x_um)
        assert np.array_equal(a.y_um, b.y_um)
