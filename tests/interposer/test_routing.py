"""Interposer router tests: grid mechanics and small full routes."""

import numpy as np
import pytest

from repro.chiplet.bumps import plan_for_design
from repro.interposer.placement import place_dies
from repro.interposer.routing import (OVERFLOW_COST, VIA_COST, RoutingGrid,
                                      route_interposer)
from repro.tech.interposer import GLASS_25D, GLASS_3D, SILICON_25D, SILICON_3D
from tests.oracles.routing import commit, pattern_candidates, rip_up


def test_cost_constants_are_integers():
    """The closed-form pattern costs, the packed-int scalar search and
    the distance-field maze engine all assume integer-valued costs."""
    assert VIA_COST == int(VIA_COST)
    assert OVERFLOW_COST == int(OVERFLOW_COST)


class TestRoutingGrid:
    def test_straight_maze_route(self):
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0)
        path = g.maze_route((5, 5), (5, 40))
        assert path is not None
        assert path[0] == (0, 5, 5)
        assert path[-1] == (0, 5, 40)

    def test_pattern_candidates_end_to_end(self):
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0)
        for cand in pattern_candidates(g, (3, 3), (20, 30)):
            assert cand[0] == (0, 3, 3)
            assert cand[-1] == (0, 20, 30)

    def test_pattern_paths_are_connected(self):
        g = RoutingGrid(1.0, 1.0, layers=4, wire_pitch_um=4.0)
        for cand in pattern_candidates(g, (2, 2), (30, 25)):
            for (l0, y0, x0), (l1, y1, x1) in zip(cand, cand[1:]):
                step = abs(l1 - l0) + abs(y1 - y0) + abs(x1 - x0)
                assert step == 1, "path must move one cell/layer at a time"

    def test_diagonal_candidates_move_diagonally(self):
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0,
                        diagonal=True)
        cand = pattern_candidates(g, (0, 0), (20, 20))[0]
        diag_steps = sum(1 for (l0, y0, x0), (l1, y1, x1)
                         in zip(cand, cand[1:])
                         if abs(y1 - y0) == 1 and abs(x1 - x0) == 1)
        assert diag_steps >= 19

    def test_commit_and_ripup_inverse(self):
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        path = pattern_candidates(g, (1, 1), (10, 10))[0]
        commit(g, path)
        assert g.occupancy.sum() > 0
        rip_up(g, path)
        assert g.occupancy.sum() == 0

    def test_congestion_raises_cost(self):
        g = RoutingGrid(0.5, 0.5, layers=1, wire_pitch_um=20.0)
        path = pattern_candidates(g, (2, 2), (2, 15))[0]
        cells = np.asarray(path, dtype=np.intp).T
        base = g._path_cost_arrays(*cells)
        commit(g, path)  # capacity 1 -> now full
        assert g._path_cost_arrays(*cells) > base

    def test_derate_region(self):
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0)
        g.derate_region(0.0, 0.0, 0.5, 0.5, capacity=1)
        assert g.capacity[:, 0, 0].max() == 1
        assert g.capacity[:, -1, -1].max() > 1

    def test_preferred_directions(self):
        g = RoutingGrid(1.0, 1.0, layers=4, wire_pitch_um=4.0)
        assert g.h_layers() == [0, 2]
        assert g.v_layers() == [1, 3]

    def test_single_layer_routes_both_directions(self):
        g = RoutingGrid(0.5, 0.5, layers=1, wire_pitch_um=4.0)
        path = g.maze_route((2, 2), (10, 10))
        assert path is not None

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            RoutingGrid(1.0, 1.0, layers=0, wire_pitch_um=4.0)


class TestFullRoute:
    @pytest.fixture(scope="class")
    def glass3d_route(self):
        lp = plan_for_design(GLASS_3D, "logic")
        mp = plan_for_design(GLASS_3D, "memory")
        pl = place_dies(GLASS_3D, lp, mp)
        return route_interposer(pl, lp.signal_positions(),
                                mp.signal_positions(),
                                l2m_signals=40, l2l_signals=20)

    def test_glass3d_l2m_are_stacked_vias(self, glass3d_route):
        stacked = [n for n in glass3d_route.nets
                   if n.kind == "stacked_via"]
        assert len(stacked) == 2 * 40  # both tiles

    def test_glass3d_single_signal_layer(self, glass3d_route):
        assert glass3d_route.signal_layers_used == 1

    def test_net_accounting(self, glass3d_route):
        assert len(glass3d_route.nets) == 2 * 40 + 20
        assert glass3d_route.total_vias() > 0

    def test_longest_net_lookup(self, glass3d_route):
        longest = glass3d_route.longest_net("l2l")
        assert longest.kind == "l2l"
        with pytest.raises(ValueError):
            glass3d_route.longest_net("bogus")

    def test_tsv_stack_not_routable(self):
        lp = plan_for_design(SILICON_3D, "logic")
        mp = plan_for_design(SILICON_3D, "memory")
        pl = place_dies(SILICON_3D, lp, mp)
        with pytest.raises(ValueError, match="3D"):
            route_interposer(pl, lp.signal_positions(),
                             mp.signal_positions())

    def test_silicon_routes_fewer_layers_than_glass(self):
        results = {}
        for spec in (GLASS_25D, SILICON_25D):
            lp = plan_for_design(spec, "logic")
            mp = plan_for_design(spec, "memory")
            pl = place_dies(spec, lp, mp)
            rt = route_interposer(pl, lp.signal_positions(),
                                  mp.signal_positions(),
                                  l2m_signals=60, l2l_signals=20)
            results[spec.name] = rt
        assert (results["silicon_25d"].signal_layers_used
                <= results["glass_25d"].signal_layers_used)
