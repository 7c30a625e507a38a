"""Maze engines: dial kernel, field cache, compiled A*, compile gate.

Property tests for the PR that retired the maze-routing hot spot:

* the compiled dial-Dijkstra kernel must match ``maze_route_scalar``
  bit-for-bit on random congested grids, including sequences of calls
  with occupancy flips in between (the kernel reuses scratch arrays
  across calls via a touched-list reset protocol — exactly the pattern
  a stale reset would corrupt);
* the per-(src, dst) distance-field result cache must answer repeat
  calls without a fresh sweep (``fields_patched``), and must invalidate
  when overflow flags inside the cached bounding box change;
* the compiled A* must serve every diagonal grid and every grid with
  non-integer cost constants, and match the scalar search exactly —
  path, expansion count and node-budget exhaustion — across calls that
  reuse its scratch arrays;
* with ``REPRO_NO_CCOMPILE=1`` the kernel must refuse to load, silently,
  and the scipy / scalar fallback chain must still be bit-identical; a
  kernel that fails to build must say so once.
"""

import logging
import random

import numpy as np
import pytest

import repro.interposer._mazekernel as mazekernel
import repro.interposer.routing as routing
from repro.interposer.routing import RoutingGrid


def _random_grid(rng, diagonal=False, layers=None):
    layers = layers if layers is not None else rng.choice([1, 2, 3, 5])
    g = RoutingGrid(rng.uniform(0.3, 0.8), rng.uniform(0.3, 0.8),
                    layers=layers, wire_pitch_um=4.0, diagonal=diagonal)
    occ = np.random.default_rng(rng.randrange(1 << 30)).integers(
        0, g.capacity.max() + 2, size=g.occupancy.shape)
    g.occupancy[:] = occ.astype(g.occupancy.dtype)
    return g


def _random_pair(rng, g):
    return ((rng.randrange(g.ny), rng.randrange(g.nx)),
            (rng.randrange(g.ny), rng.randrange(g.nx)))


def _flip_cells(rng, g, count):
    """Flip ``count`` random cells between saturated and free."""
    npr = np.random.default_rng(rng.randrange(1 << 30))
    li = npr.integers(0, g.layers, count)
    yi = npr.integers(0, g.ny, count)
    xi = npr.integers(0, g.nx, count)
    over = g.occupancy[li, yi, xi] >= g.capacity[li, yi, xi]
    g.occupancy[li, yi, xi] = np.where(over, 0, g.capacity[li, yi, xi] + 1)


class TestDialKernel:
    """The compiled kernel vs the scalar golden reference."""

    @pytest.fixture(autouse=True)
    def _need_kernel(self):
        if mazekernel.load_kernel() is None:
            pytest.skip("no C compiler available — kernel path untestable")

    def test_kernel_selected_on_manhattan_grids(self):
        rng = random.Random(1)
        g = _random_grid(rng, diagonal=False)
        src, dst = _random_pair(rng, g)
        g._maze_route_info(src, dst, routing.MAZE_NODE_BUDGET)
        assert g._oracle is not None
        assert g._oracle._kernel is not None

    def test_matches_scalar_on_random_grids(self):
        rng = random.Random(20260808)
        for _ in range(25):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert path == g.maze_route_scalar(src, dst)

    def test_occupancy_flip_sequences(self):
        """Repeated route calls with congestion mutations in between.

        This is the RRR access pattern: every call must see the current
        occupancy even though the kernel's distance/done scratch arrays
        and the oracle's result cache persist across calls.
        """
        rng = random.Random(77)
        for _ in range(6):
            g = _random_grid(rng)
            pairs = [_random_pair(rng, g) for _ in range(4)]
            for step in range(5):
                for src, dst in pairs:
                    assert g.maze_route(src, dst) \
                        == g.maze_route_scalar(src, dst), (
                            f"diverged after {step} flip batches")
                _flip_cells(rng, g, rng.randrange(1, 40))

    def test_budget_and_bound_semantics_preserved(self):
        rng = random.Random(99)
        hits = 0
        for _ in range(30):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            ref_full = g.maze_route_scalar(src, dst)
            if ref_full is not None:
                ub = g.path_cost(ref_full)
                path, _n, _e = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET, ub)
                assert path == ref_full
            for budget in (1, 64):
                a = g.maze_route(src, dst, max_nodes=budget)
                b = g.maze_route_scalar(src, dst, max_nodes=budget)
                assert a == b
                hits += a is None
        assert hits > 0


class TestFieldCache:
    """The per-(src, dst) result cache behind ``fields_patched``."""

    def test_repeat_call_is_served_from_cache(self):
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (3, 3), (20, 20)
        first = g.maze_route(src, dst)
        second = g.maze_route(src, dst)
        assert first == second
        oracle = g._oracle
        assert oracle is not None
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1

    def test_cached_paths_are_independent_copies(self):
        """Callers mutate returned paths (rip-up bookkeeping); the
        cache must hand out fresh lists."""
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (3, 3), (20, 20)
        first = g.maze_route(src, dst)
        first.append((0, 0, 0))  # corrupt the caller's copy
        assert g.maze_route(src, dst) != first

    def test_in_box_flip_invalidates(self):
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 20)
        before = g.maze_route(src, dst)
        g.occupancy[:, 2, :] = g.capacity[:, 2, :] + 1  # block the row
        after = g.maze_route(src, dst)
        oracle = g._oracle
        assert oracle.fields_built == 2
        assert oracle.fields_patched == 0
        assert before != after
        assert after == g.maze_route_scalar(src, dst)

    def test_far_away_flip_keeps_entry(self):
        """An overflow flip outside the cached bounding box cannot
        affect the result, so the entry must survive."""
        g = RoutingGrid(1.0, 1.0, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 8)
        g.maze_route(src, dst)
        oracle = g._oracle
        y1 = oracle._results[(2, 2, 2, 8)][4]
        far_row = g.ny - 1
        assert far_row > y1 + 1  # genuinely outside the box + halo
        g.occupancy[:, far_row, :] = g.capacity[:, far_row, :] + 1
        g.maze_route(src, dst)
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1

    def test_flip_then_flip_back_keeps_entry(self):
        """Snapshot (not event-log) freshness: net zero change between
        calls must count as a cache hit even though flips occurred."""
        g = RoutingGrid(0.5, 0.5, layers=2, wire_pitch_um=4.0)
        src, dst = (2, 2), (2, 20)
        path = g.maze_route(src, dst)
        saved = g.occupancy[:, 2, :].copy()
        g.occupancy[:, 2, :] = g.capacity[:, 2, :] + 1
        g.occupancy[:, 2, :] = saved
        assert g.maze_route(src, dst) == path
        oracle = g._oracle
        assert oracle.fields_built == 1
        assert oracle.fields_patched == 1


class TestAstarKernel:
    """The compiled port of the scalar A* vs the scalar reference."""

    @pytest.fixture(autouse=True)
    def _need_kernel(self):
        if mazekernel.load_kernel() is None:
            pytest.skip("no C compiler available — kernel path untestable")

    def test_astar_selected_on_diagonal_grids(self):
        rng = random.Random(500)
        for _ in range(20):
            g = _random_grid(rng, diagonal=True, layers=rng.choice([1, 2]))
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "astar"
            assert path == g.maze_route_scalar(src, dst)

    def test_oversized_diagonal_grid_uses_kernel(self):
        g = RoutingGrid(2.0, 2.0, layers=4, wire_pitch_um=4.0,
                        diagonal=True)
        path, _nodes, engine = g._maze_route_info(
            (1, 1), (5, 5), routing.MAZE_NODE_BUDGET)
        assert engine == "astar"
        assert path == g.maze_route_scalar((1, 1), (5, 5))

    def test_budgets_match_scalar_on_random_diagonal_grids(self):
        rng = random.Random(501)
        hits = 0
        for _ in range(24):
            g = _random_grid(rng, diagonal=True, layers=rng.randint(1, 6))
            src, dst = _random_pair(rng, g)
            for budget in (1, 64, 500):
                path, _nodes, engine = g._maze_route_info(src, dst, budget)
                assert engine == "astar"
                assert path == g.maze_route_scalar(src, dst,
                                                   max_nodes=budget)
                hits += path is None
        assert hits > 0

    def test_occupancy_flip_sequences(self):
        """The kernel's dist/prev/visited scratch lives on the grid and
        is reset through a touched list; a stale reset would corrupt
        the next call after the congestion changes."""
        rng = random.Random(502)
        for _ in range(4):
            g = _random_grid(rng, diagonal=True)
            pairs = [_random_pair(rng, g) for _ in range(4)]
            for step in range(5):
                for src, dst in pairs:
                    assert g.maze_route(src, dst) \
                        == g.maze_route_scalar(src, dst), (
                            f"diverged after {step} flip batches")
                _flip_cells(rng, g, rng.randrange(1, 40))

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("via, over", [(2.5, 7.25), (3, 0.5)])
    def test_non_integer_costs(self, monkeypatch, diagonal, via, over):
        """Non-integer costs take Manhattan grids off the oracle too."""
        monkeypatch.setattr(routing, "VIA_COST", via)
        monkeypatch.setattr(routing, "OVERFLOW_COST", over)
        rng = random.Random(503)
        for _ in range(10):
            g = _random_grid(rng, diagonal=diagonal)
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "astar"
            assert path == g.maze_route_scalar(src, dst)

    def test_expansion_count_is_exact(self):
        """The reported count is the scalar search's: with exactly that
        budget it succeeds, with one less it gives up — and the kernel
        then reports the budget plus the pop that exceeded it."""
        rng = random.Random(504)
        checked = 0
        for _ in range(20):
            g = _random_grid(rng, diagonal=True)
            src, dst = _random_pair(rng, g)
            path, nodes, _engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            if path is None or nodes < 2:
                continue
            assert g.maze_route_scalar(src, dst, max_nodes=nodes) == path
            assert g.maze_route_scalar(src, dst,
                                       max_nodes=nodes - 1) is None
            assert g._maze_route_info(src, dst, nodes - 1)[:2] \
                == (None, nodes)
            checked += 1
        assert checked > 10

    def test_kernel_failure_falls_back_to_scalar(self, monkeypatch,
                                                 caplog):
        """An error code from the kernel (heap allocation failure) is
        logged once per grid and the search reruns on the scalar A*."""
        kernel = mazekernel.load_kernel()
        failing = kernel._replace(astar=lambda *args: -1)
        monkeypatch.setattr(routing, "_load_maze_kernel", lambda: failing)
        rng = random.Random(505)
        g = _random_grid(rng, diagonal=True)
        with caplog.at_level(logging.WARNING,
                             logger="repro.interposer.routing"):
            for _ in range(3):
                src, dst = _random_pair(rng, g)
                path, nodes, engine = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET)
                assert (engine, nodes) == ("scalar", 0)
                assert path == g.maze_route_scalar(src, dst)
        assert len(caplog.records) == 1


class TestCompileGate:
    """``REPRO_NO_CCOMPILE`` must pin the scipy / scalar fallback chain,
    and an accidental build failure must not pass silently."""

    @pytest.fixture
    def no_ccompile(self, monkeypatch):
        monkeypatch.setenv(mazekernel.ENV_DISABLE, "1")
        mazekernel._reset_for_tests()
        yield
        mazekernel._reset_for_tests()  # let later tests re-load it

    def test_kernel_refuses_to_load(self, no_ccompile, caplog):
        with caplog.at_level(logging.DEBUG, logger=mazekernel.__name__):
            assert mazekernel.load_kernel() is None
        assert not caplog.records  # a deliberate fallback is silent

    def test_failed_compile_warns_once(self, monkeypatch, caplog):
        monkeypatch.delenv(mazekernel.ENV_DISABLE, raising=False)
        monkeypatch.setenv("CC", "/nonexistent")
        mazekernel._reset_for_tests()
        try:
            with caplog.at_level(logging.WARNING,
                                 logger=mazekernel.__name__):
                assert mazekernel.load_kernel() is None
                assert mazekernel.load_kernel() is None  # memoized
        finally:
            mazekernel._reset_for_tests()
        assert len(caplog.records) == 1
        assert "/nonexistent" in caplog.records[0].getMessage()

    def test_object_path_keys_on_compiler_and_flags(self, monkeypatch):
        paths = {mazekernel._object_path("gcc"),
                 mazekernel._object_path("clang")}
        monkeypatch.setattr(mazekernel, "_FLAGS",
                            mazekernel._FLAGS + ("-g",))
        paths.add(mazekernel._object_path("gcc"))
        assert len(paths) == 3

    def test_diagonal_grids_fall_back_to_scalar(self, no_ccompile):
        rng = random.Random(506)
        for _ in range(6):
            g = _random_grid(rng, diagonal=True)
            src, dst = _random_pair(rng, g)
            path, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert (engine, nodes) == ("scalar", 0)
            assert path == g.maze_route_scalar(src, dst)

    def test_scipy_fallback_is_identical(self, no_ccompile):
        rng = random.Random(321)
        for _ in range(10):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            path, _nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert g._oracle._kernel is None
            assert path == g.maze_route_scalar(src, dst)

    def test_kernel_and_scipy_report_same_expansions(self, no_ccompile):
        """Both oracle backends must predict the same A* node counts
        (the budget semantics depend on them)."""
        rng = random.Random(654)
        scipy_counts = []
        grids = []
        for _ in range(8):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            _p, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            scipy_counts.append(nodes)
            grids.append((g, src, dst))
        import os
        os.environ.pop(mazekernel.ENV_DISABLE, None)
        mazekernel._reset_for_tests()
        if mazekernel.load_kernel() is None:
            pytest.skip("no C compiler available")
        for (g, src, dst), ref_nodes in zip(grids, scipy_counts):
            g._oracle = None  # force a fresh oracle with the kernel
            _p, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == "oracle"
            assert g._oracle._kernel is not None
            assert nodes == ref_nodes
