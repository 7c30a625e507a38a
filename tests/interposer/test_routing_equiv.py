"""Vectorized-vs-scalar router equivalence.

The vectorized router (segment pattern scoring, batched overflow
detection, distance-field maze oracle) must be *bit-identical* to the
scalar golden references in ``tests/oracles`` — same nets, same paths,
same overflow counts — for every design style.  These tests pin that,
plus property tests on random grids for the lower-level primitives.
"""

import logging
import random

import numpy as np
import pytest

import repro.interposer._mazekernel as mazekernel
import repro.interposer.routing as routing
from repro.chiplet.bumps import plan_for_design
from repro.interposer.placement import place_dies
from repro.interposer.routing import (RoutingGrid, route_interposer,
                                      route_interposer_pins)
from repro.tech.interposer import get_spec
from tests.interposer.test_pins_equiv import _problem as _pin_problem
from tests.oracles import path_cost_scalar, route_interposer_scalar
from tests.oracles.routing import pattern_candidates

#: Reduced per-tile net counts: small enough to keep the suite quick,
#: large enough that the glass/organic designs still overflow and
#: exercise real rip-up-and-reroute (pinned below).
L2M, L2L = 60, 20

ROUTABLE = ["glass_25d", "glass_3d", "silicon_25d", "shinko", "apx"]


def _problem(design):
    spec = get_spec(design)
    lp = plan_for_design(spec, "logic")
    mp = plan_for_design(spec, "memory")
    placement = place_dies(spec, lp, mp)
    return placement, lp.signal_positions(), mp.signal_positions()


def _net_key(net):
    return (net.name, net.kind, net.length_mm, net.vias,
            sorted(net.layers), net.path)


class TestRouteEquivalence:
    @pytest.fixture(scope="class", params=ROUTABLE)
    def pair(self, request):
        placement, lb, mb = _problem(request.param)
        vec = route_interposer(placement, lb, mb,
                               l2m_signals=L2M, l2l_signals=L2L)
        ref = route_interposer_scalar(placement, lb, mb,
                                      l2m_signals=L2M, l2l_signals=L2L)
        return request.param, vec, ref

    def test_nets_bit_identical(self, pair):
        design, vec, ref = pair
        assert len(vec.nets) == len(ref.nets)
        for a, b in zip(vec.nets, ref.nets):
            assert _net_key(a) == _net_key(b), (
                f"{design}: net {a.name} diverged from the scalar "
                f"reference")

    def test_summary_identical(self, pair):
        design, vec, ref = pair
        assert vec.overflow_cells == ref.overflow_cells
        assert vec.signal_layers_used == ref.signal_layers_used

    def test_stats_present_and_consistent(self, pair):
        design, vec, ref = pair
        st = vec.stats
        assert st is not None
        assert st.nets_pattern_routed == sum(
            1 for n in vec.nets if n.kind != "stacked_via")
        assert st.overflow_cells == vec.overflow_cells
        assert st.maze_calls == st.nets_rerouted
        assert ref.stats is None  # the reference stays untouched

    def test_congested_designs_exercise_rrr(self, pair):
        """The reduced net counts must still trigger rip-up on the
        congestion-limited styles, or the equivalence proves nothing."""
        design, vec, _ = pair
        if design in ("glass_25d", "glass_3d", "apx", "shinko"):
            assert vec.stats.nets_rerouted > 0

    @pytest.mark.parametrize("design", ["apx", "shinko"])
    def test_organic_designs_never_run_scalar_maze(self, design,
                                                   monkeypatch):
        """The organic (diagonal) interposers reroute on the compiled
        A*, which also makes their maze work visible in the stats."""
        if mazekernel.load_kernel() is None:
            pytest.skip("no C compiler available")

        def _refuse(*_args, **_kwargs):
            raise AssertionError("scalar A* ran in the production router")

        monkeypatch.setattr(RoutingGrid, "maze_route_scalar", _refuse)
        placement, lb, mb = _problem(design)
        vec = route_interposer(placement, lb, mb,
                               l2m_signals=L2M, l2l_signals=L2L)
        assert vec.stats.maze_calls > 0
        assert vec.stats.maze_nodes > 0

    @pytest.mark.parametrize("design", ["glass_25d", "glass_3d",
                                        "glass_25d-n9-hexagonal"])
    def test_manhattan_designs_never_leave_the_oracle(self, design,
                                                      monkeypatch):
        """Every maze call on a Manhattan grid is answered by the
        distance-field oracle: a failed walk would fall back to the A*
        and still return the same paths, so only this shows it."""
        if mazekernel.load_kernel() is None:
            pytest.skip("no C compiler available")

        def _refuse(*_args, **_kwargs):
            raise AssertionError("a maze call left the oracle")

        monkeypatch.setattr(RoutingGrid, "_maze_astar", _refuse)
        monkeypatch.setattr(RoutingGrid, "maze_route_scalar", _refuse)
        if design.endswith("hexagonal"):
            vec = route_interposer_pins(*_pin_problem("glass_25d", 9,
                                                      "hexagonal"))
        else:
            placement, lb, mb = _problem(design)
            vec = route_interposer(placement, lb, mb,
                                   l2m_signals=L2M, l2l_signals=L2L)
        assert vec.stats.maze_calls == vec.stats.fields_built > 0

    @pytest.mark.parametrize("pair", ["glass_25d", "shinko"],
                             indirect=True)
    def test_no_compiler_routes_on_scalar_maze(self, pair, no_ccompile):
        """Without a C compiler every search, Manhattan or diagonal,
        runs the scalar A* — the router's one portable fallback — and
        the route still equals the oracle's."""
        design, _vec, ref = pair
        placement, lb, mb = _problem(design)
        vec = route_interposer(placement, lb, mb,
                               l2m_signals=L2M, l2l_signals=L2L)
        assert [_net_key(n) for n in vec.nets] \
            == [_net_key(n) for n in ref.nets]
        assert vec.overflow_cells == ref.overflow_cells
        assert vec.stats.maze_calls > 0
        assert vec.stats.maze_nodes == 0
        assert vec.stats.fields_built == 0

    def test_silicon_3d_raises_in_both(self):
        placement, lb, mb = _problem("silicon_3d")
        with pytest.raises(ValueError):
            route_interposer(placement, lb, mb)
        with pytest.raises(ValueError):
            route_interposer_scalar(placement, lb, mb)


def _random_grid(rng, diagonal=False, layers=None):
    layers = layers if layers is not None else rng.choice([1, 2, 3, 5])
    g = RoutingGrid(rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8),
                    layers=layers, wire_pitch_um=4.0, diagonal=diagonal)
    # Random congestion, including saturated and overflowing cells.
    occ = np.random.default_rng(rng.randrange(1 << 30)).integers(
        0, g.capacity.max() + 2, size=g.occupancy.shape)
    g.occupancy[:] = occ.astype(g.occupancy.dtype)
    return g


def _random_pair(rng, g):
    return ((rng.randrange(g.ny), rng.randrange(g.nx)),
            (rng.randrange(g.ny), rng.randrange(g.nx)))


class TestPatternCostProperties:
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_cost_table_matches_scalar_path_cost(self, diagonal):
        rng = random.Random(20260806 + diagonal)
        for _ in range(25):
            g = _random_grid(rng, diagonal=diagonal)
            src, dst = _random_pair(rng, g)
            table = g.pattern_cost_table(src, dst)
            cands = pattern_candidates(g, src, dst)
            assert len(table) == len(cands)
            for cost, cand in zip(table, cands):
                assert cost == path_cost_scalar(g, cand)

    def test_best_pattern_route_matches_scalar_scan(self):
        rng = random.Random(7)
        for _ in range(25):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path, cost = g.best_pattern_route(src, dst)
            cands = pattern_candidates(g, src, dst)
            best = None
            best_cost = float("inf")
            for cand in cands:  # the scalar router's strict-< scan
                c = path_cost_scalar(g, cand)
                if c < best_cost:
                    best, best_cost = cand, c
            assert path == best
            assert cost == best_cost

    def test_path_cost_matches_scalar_on_maze_paths(self):
        rng = random.Random(11)
        for _ in range(25):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path = g.maze_route(src, dst)
            if path is None:
                continue
            cells = np.asarray(path, dtype=np.intp).T
            assert g._path_cost_arrays(*cells) == path_cost_scalar(g, path)


class TestMazeEquivalence:
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_maze_matches_scalar(self, diagonal):
        rng = random.Random(40 + diagonal)
        for _ in range(20):
            g = _random_grid(rng, diagonal=diagonal)
            src, dst = _random_pair(rng, g)
            assert g.maze_route(src, dst) == g.maze_route_scalar(src, dst)

    def test_maze_budget_exhaustion_matches_scalar(self):
        """Tiny node budgets must fail (or succeed) identically."""
        rng = random.Random(42)
        checked = 0
        for _ in range(40):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            for budget in (1, 16, 200):
                a = g.maze_route(src, dst, max_nodes=budget)
                b = g.maze_route_scalar(src, dst, max_nodes=budget)
                assert a == b
                checked += a is None
        assert checked > 0  # some searches actually hit the budget

    def test_occupancy_mutation_is_seen(self):
        """The oracle must re-read congestion mutated between calls."""
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 20)
        before = g.maze_route(src, dst)
        g.occupancy[:, 2, :] = g.capacity[:, 2, :] + 1  # block the row
        after = g.maze_route(src, dst)
        assert before != after
        assert after == g.maze_route_scalar(src, dst)


class TestFallbackAccounting:
    def test_fallbacks_counted_and_warned(self, monkeypatch, caplog):
        """Swallowed maze failures must be counted and logged (the
        pre-PR router dropped them silently)."""
        placement, lb, mb = _problem("glass_25d")
        monkeypatch.setattr(routing, "MAZE_NODE_BUDGET", 8)
        with caplog.at_level(logging.WARNING,
                             logger="repro.interposer.routing"):
            vec = route_interposer(placement, lb, mb,
                                   l2m_signals=L2M, l2l_signals=L2L)
        assert vec.stats.maze_fallbacks > 0
        warnings = [r for r in caplog.records
                    if "maze reroutes failed" in r.getMessage()]
        assert len(warnings) == 1  # one warning per routing run
        # Still identical to the scalar reference under the same budget.
        ref = route_interposer_scalar(placement, lb, mb,
                                      l2m_signals=L2M, l2l_signals=L2L)
        assert [_net_key(n) for n in vec.nets] \
            == [_net_key(n) for n in ref.nets]
        assert vec.overflow_cells == ref.overflow_cells
