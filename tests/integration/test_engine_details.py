"""Focused tests on engine internals: sizing, rip-up/reroute, DRC math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interposer.routing import RoutingGrid
from repro.io.drc import _point_seg, _seg_distance, _segments_intersect
from tests.oracles.routing import commit, pattern_candidates


class TestTimingSizing:
    def test_sizing_caps_heavy_load_delay(self):
        """Above the threshold the emulated upsizing kicks in: delay on
        a heavy net grows with drive/MAX_UPSIZE, not full drive."""
        from repro.arch.netlist import Netlist
        from repro.chiplet.floorplan import floorplan
        from repro.chiplet.place import place
        from repro.chiplet.route import global_route
        from repro.chiplet.timing import analyze_timing
        from repro.tech.stdcell import N28_LIB

        def chain_with_fanout(fanout):
            nl = Netlist("t", N28_LIB)
            nl.add_instance("ff", "DFF_X1", "m")
            nl.add_instance("drv", "INV_X1", "m")
            nl.add_net("q", "ff", ["drv"])
            sinks = []
            for i in range(fanout):
                nl.add_instance(f"s{i}", "DFF_X1", "m")
                sinks.append(f"s{i}")
            nl.add_net("big", "drv", sinks)
            fp = floorplan(nl, 300, 300)
            return analyze_timing(global_route(place(nl, fp)))

        light = chain_with_fanout(2)
        heavy = chain_with_fanout(200)
        # Unsized, 100x the load would add ~100x the RC; sized it must
        # be far less.
        added = heavy.critical_path_ps - light.critical_path_ps
        inv = 5200.0  # INV_X1 drive resistance
        unsized_estimate = inv * 200 * 1.1 * 1e-3  # ~1100 ps
        assert added < unsized_estimate / 3


class TestRipUpReroute:
    def test_overflow_resolved_by_second_layer_pair(self):
        """Four nets through a 1-track corridor must spread to the
        second layer pair instead of stacking."""
        g = RoutingGrid(0.5, 0.5, layers=4, wire_pitch_um=25.0)  # cap 1
        paths = []
        for k in range(4):
            cands = pattern_candidates(g, (5 + k, 2), (5 + k, 20))
            best = min(cands, key=lambda c: g._path_cost_arrays(
                *np.asarray(c, dtype=np.intp).T))
            commit(g, best)
            paths.append(best)
        layers_used = {l for p in paths for (l, y, x) in p}
        assert len(layers_used) >= 2

    def test_maze_detours_around_full_cells(self):
        """With a nearby gap the congestion-aware maze takes the detour;
        overflow penalties are soft, so the gap must cost less than the
        penalty to be chosen."""
        g = RoutingGrid(0.5, 0.5, layers=1, wire_pitch_um=25.0)
        gap_y = 4  # two rows from the net: detour cost 4 < penalty 12
        for y in range(g.ny):
            if y != gap_y:
                g.occupancy[0, y, 10] = g.capacity[0, y, 10]
        path = g.maze_route((2, 2), (2, 20))
        assert path is not None
        crossings = [(y, x) for (l, y, x) in path if x == 10]
        assert crossings and all(y == gap_y for y, x in crossings)

    def test_maze_accepts_overflow_when_detour_too_long(self):
        """The soft penalty lets a net cross a full wall when the only
        gap is far away — overflow is reported, not fatal."""
        g = RoutingGrid(0.5, 0.5, layers=1, wire_pitch_um=25.0)
        for y in range(g.ny):
            g.occupancy[0, y, 10] = g.capacity[0, y, 10]
        path = g.maze_route((2, 2), (2, 20))
        assert path is not None
        commit(g, path)
        assert g.overflow_cells() >= 1


class TestDrcGeometry:
    def test_point_to_segment(self):
        seg = (0.0, 0.0, 10.0, 0.0, 1.0)
        assert _point_seg(5.0, 3.0, seg) == pytest.approx(3.0)
        assert _point_seg(-4.0, 3.0, seg) == pytest.approx(5.0)

    def test_parallel_distance(self):
        a = (0.0, 0.0, 10.0, 0.0, 1.0)
        b = (0.0, 4.0, 10.0, 4.0, 1.0)
        assert _seg_distance(a, b) == pytest.approx(4.0)

    def test_crossing_distance_zero(self):
        a = (0.0, 0.0, 10.0, 10.0, 1.0)
        b = (0.0, 10.0, 10.0, 0.0, 1.0)
        assert _segments_intersect(a, b)
        assert _seg_distance(a, b) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
           st.floats(-50, 50))
    def test_distance_symmetry(self, x0, y0, x1, y1):
        a = (x0, y0, x1, y1, 1.0)
        b = (5.0, 5.0, 20.0, 7.0, 1.0)
        assert _seg_distance(a, b) == pytest.approx(
            _seg_distance(b, a), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-20, 20), st.floats(-20, 20))
    def test_distance_nonnegative(self, x, y):
        a = (x, y, x + 3.0, y + 1.0, 1.0)
        b = (0.0, 0.0, 10.0, 0.0, 1.0)
        assert _seg_distance(a, b) >= 0.0
