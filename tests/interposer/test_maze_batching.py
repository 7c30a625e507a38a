"""Maze engines: dial kernel, field scratch, compiled A*, compile gate.

Property tests for the maze-routing engines:

* the compiled dial-Dijkstra kernel must match ``maze_route_scalar``
  bit-for-bit on random congested grids, including sequences of calls
  with occupancy flips in between (the kernel reuses scratch arrays
  across calls via a touched-list reset protocol — exactly the pattern
  a stale reset would corrupt);
* the distance field's scratch persists across calls, but no result
  does: every returned path is the caller's own, and an occupancy flip
  is seen by the next call;
* the compiled walk over the field (``maze_walk``) must equal the
  Python walk in ``tests/oracles/routing.py`` on the fields of real
  sweeps and on hand-built fields whose tie-breaks, unreached
  neighbours and failures the sweeps seldom produce; a walk that fails
  is logged once per grid and the search reruns on the compiled A*;
* the compiled A* must serve every diagonal grid and match the scalar
  search exactly — path, expansion count and node-budget exhaustion —
  across calls that reuse its scratch arrays;
* with ``REPRO_NO_CCOMPILE=1`` the kernel must refuse to load, silently,
  and every search — Manhattan or diagonal — must fall back to the
  scalar A*, with the compiled engines' paths and budget thresholds; a
  kernel that fails to build must say so once.
"""

import logging
import random

import numpy as np
import pytest

import repro._kernel as mazekernel
import repro.interposer.routing as routing
from repro.interposer.routing import RoutingGrid
from tests.oracles.routing import walk_field


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


@pytest.fixture
def need_kernel():
    if mazekernel.load_kernel() is None:
        pytest.skip("no C compiler available — kernel path untestable")


def _flip_cells(rng, g, count):
    """Flip ``count`` random cells between saturated and free."""
    npr = np.random.default_rng(rng.randrange(1 << 30))
    li = npr.integers(0, g.layers, count)
    yi = npr.integers(0, g.ny, count)
    xi = npr.integers(0, g.nx, count)
    over = g.occupancy[li, yi, xi] >= g.capacity[li, yi, xi]
    g.occupancy[li, yi, xi] = np.where(over, 0, g.capacity[li, yi, xi] + 1)


@pytest.mark.usefixtures("need_kernel")
class TestDialKernel:
    """The compiled kernel vs the scalar golden reference."""

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
        persist across calls.
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
        """Node budgets bound the oracle's work exactly as they bound
        the scalar search: same path, or the same exhaustion."""
        rng = random.Random(99)
        hits = 0
        for _ in range(30):
            g = _random_grid(rng)
            src, dst = _random_pair(rng, g)
            for budget in (1, 64):
                a = g.maze_route(src, dst, max_nodes=budget)
                b = g.maze_route_scalar(src, dst, max_nodes=budget)
                assert a == b
                hits += a is None
        assert hits > 0


@pytest.mark.usefixtures("need_kernel")
class TestFieldCache:
    """The distance field's scratch buffers persist across calls;
    nothing computed from them may."""

    def test_cached_paths_are_independent_copies(self):
        """Callers mutate returned paths (rip-up bookkeeping); every
        call must hand out a fresh list."""
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
        assert g._oracle.fields_built == 2  # one sweep per call
        assert before != after
        assert after == g.maze_route_scalar(src, dst)


def _field(L, ny, nx, values, over_cells=()):
    """A hand-built (over, Dp) pair in the oracle's (y, l, x) order:
    ``values`` maps (l, y, x) to Dp, every other state is unreached
    (-1), and the ``over_cells`` are over capacity."""
    dp = np.full(L * ny * nx, -1, dtype=np.int32)
    over = np.zeros(L * ny * nx, dtype=bool)
    for (l, y, x), value in values.items():
        dp[(y * L + l) * nx + x] = value
    for l, y, x in over_cells:
        over[(y * L + l) * nx + x] = True
    return over, dp


def _walk(over, dp, L, ny, nx, src, dst, via=3, over_cost=12):
    """The compiled walk: the path as (l, y, x) tuples of Python ints,
    or the kernel's error code."""
    path = np.empty(L * ny * nx, dtype=np.int32)
    length = mazekernel.load_kernel().walk(
        over.ctypes.data, dp.ctypes.data, L, ny, nx, *src, *dst, via,
        over_cost, path.ctypes.data)
    if length < 0:
        return length
    return [(int(i) // (ny * nx), int(i) % (ny * nx) // nx, int(i) % nx)
            for i in path[:length]]


@pytest.mark.usefixtures("need_kernel")
class TestPathWalk:
    """``maze_walk`` against the Python walk it replaced."""

    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    def test_real_fields_match_the_reference(self, layers):
        rng = random.Random(1000 + layers)
        walked = 0
        for _ in range(12):
            g = _random_grid(rng, layers=layers)
            for _ in range(4):
                src, dst = _random_pair(rng, g)
                path, _nodes, engine = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET)
                assert engine == "oracle"
                if path is None:
                    continue
                over = (g.occupancy >= g.capacity).transpose(
                    1, 0, 2).reshape(-1)
                ref = walk_field(over, g._oracle._kdist, g.layers, g.ny,
                                 g.nx, src, dst)
                assert path == ref
                assert all(type(c) is int for cell in path for c in cell)
                walked += 1
                _flip_cells(rng, g, 20)
        assert walked > 30

    def _check(self, over, dp, shape, src, dst, expected, via=3):
        assert _walk(over, dp, *shape, src, dst, via=via) == expected
        assert walk_field(over, dp, *shape, src, dst, via=via) == expected

    def test_three_tied_parents_on_one_layer(self):
        # The goal's three reached neighbours tie on Dp and Dp - h; the
        # least layer-major index, (0, 0, 1), wins.
        over, dp = _field(1, 3, 3, {(0, 1, 1): 2, (0, 0, 1): 2,
                                    (0, 1, 0): 2, (0, 1, 2): 2,
                                    (0, 0, 0): 2})
        self._check(over, dp, (1, 3, 3), (0, 0), (1, 1),
                    [(0, 0, 0), (0, 0, 1), (0, 1, 1)])

    def test_tied_vias_take_the_lower_layer(self):
        # At (1, 1, 0) the via down and the via up tie on Dp and Dp - h.
        over, dp = _field(3, 2, 2, {(0, 0, 0): 7, (1, 0, 0): 4,
                                    (1, 1, 0): 4, (0, 1, 0): 1,
                                    (2, 1, 0): 1})
        self._check(over, dp, (3, 2, 2), (1, 0), (0, 0),
                    [(0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0)])

    def test_dp_minus_h_decides_between_a_via_and_a_lateral_parent(self):
        # With a free via (via = 0), every state below has Dp = 3.  At
        # (1, 1, 1) the via down (0, 1, 1) and the lateral (1, 2, 1) tie
        # on Dp; the lateral has the smaller Dp - h, though the via has
        # the smaller index.  So does (1, 1, 1) against (0, 0, 1) at
        # (1, 0, 1).
        cells = [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1),
                 (0, 2, 1), (0, 1, 1)]
        over, dp = _field(2, 3, 2, {cell: 3 for cell in cells})
        self._check(over, dp, (2, 3, 2), (2, 1), (0, 0),
                    [(0, 2, 1), (1, 2, 1), (1, 1, 1), (1, 0, 1),
                     (0, 0, 1), (0, 0, 0)], via=0)

    def test_unreached_neighbours_are_skipped(self):
        # At the over-capacity (0, 1, 1), the unreached (0, 1, 0) meets
        # the parent equation with its -1 and would win on Dp.
        over, dp = _field(1, 3, 3, {(0, 0, 0): 13, (0, 0, 1): 13,
                                    (0, 1, 1): 13, (0, 1, 2): 1},
                          over_cells=[(0, 1, 1)])
        assert -1 - 1 + 13 == dp[4] - 2  # the trap is live
        self._check(over, dp, (1, 3, 3), (1, 2), (0, 0),
                    [(0, 1, 2), (0, 1, 1), (0, 0, 1), (0, 0, 0)])

    def test_start_is_the_goal(self):
        over, dp = _field(2, 2, 2, {})
        self._check(over, dp, (2, 2, 2), (1, 1), (1, 1), [(0, 1, 1)])

    def test_no_optimal_parent(self):
        over, dp = _field(2, 2, 2, {(0, 0, 0): 5, (0, 1, 1): 0,
                                    (0, 0, 1): 5})
        assert _walk(over, dp, 2, 2, 2, (1, 1), (0, 0)) == -1
        with pytest.raises(RuntimeError, match="no optimal parent"):
            walk_field(over, dp, 2, 2, 2, (1, 1), (0, 0))

    def test_a_cycle_is_cut_at_the_grid_size(self):
        # A free via makes the goal and the state above it each other's
        # parent; the walk gives up after L * ny * nx steps (the Python
        # walk would loop forever).
        over, dp = _field(2, 2, 2, {(0, 0, 0): 0, (1, 0, 0): 0})
        assert _walk(over, dp, 2, 2, 2, (1, 1), (0, 0), via=0) == -2

    def test_walk_failure_falls_back_to_the_compiled_astar(
            self, monkeypatch, caplog):
        """An error code from the walk is logged once per grid and the
        search reruns on the compiled A*, with the scalar A*'s path."""
        failing = mazekernel.load_kernel()._replace(walk=lambda *args: -1)
        monkeypatch.setattr(routing, "_load_maze_kernel", lambda: failing)
        rng = random.Random(506)
        g = _random_grid(rng, layers=2)
        with caplog.at_level(logging.WARNING,
                             logger="repro.interposer.routing"):
            for _ in range(4):
                src, dst = _random_pair(rng, g)
                path, _nodes, engine = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET)
                assert engine == "astar"
                assert path == g.maze_route_scalar(src, dst)
        assert g._oracle.fields_built == 4
        assert len(caplog.records) == 1
        assert "walk failed (code -1)" in caplog.records[0].getMessage()


@pytest.mark.usefixtures("need_kernel")
class TestAstarKernel:
    """The compiled port of the scalar A* vs the scalar reference."""

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

    def test_expansion_count_is_exact(self):
        """The reported count is the scalar search's: with exactly that
        budget it succeeds, with one less it gives up — and the engine
        then reports the budget plus the pop that exceeded it.  Diagonal
        grids pin the compiled A*; Manhattan grids pin the dial
        oracle's predicted count."""
        for diagonal, engine in ((True, "astar"), (False, "oracle")):
            rng = random.Random(504)
            checked = 0
            for _ in range(20):
                g = _random_grid(rng, diagonal=diagonal)
                src, dst = _random_pair(rng, g)
                path, nodes, used = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET)
                assert used == engine
                if path is None or nodes < 2:
                    continue
                assert g.maze_route_scalar(src, dst,
                                           max_nodes=nodes) == path
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


def _set_kernel(monkeypatch, enabled):
    """Switch the ``REPRO_NO_CCOMPILE`` gate mid-test; skips when the
    kernel is asked for and no C compiler is available."""
    if enabled:
        monkeypatch.delenv(mazekernel.ENV_DISABLE, raising=False)
    else:
        monkeypatch.setenv(mazekernel.ENV_DISABLE, "1")
    mazekernel._reset_for_tests()
    if enabled and mazekernel.load_kernel() is None:
        pytest.skip("no C compiler available")


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["kernel", "no-kernel"])
@pytest.mark.parametrize("diagonal", [False, True])
def test_endpoints_outside_the_grid_are_refused(monkeypatch, enabled,
                                                diagonal):
    """Every engine refuses them before an index reaches a search (the
    scalar A* raised IndexError on a negative one)."""
    _set_kernel(monkeypatch, enabled)
    g = RoutingGrid(0.3, 0.3, layers=2, wire_pitch_um=4.0,
                    diagonal=diagonal)
    for src, dst in (((0, 0), (g.ny, 0)), ((-1, 0), (1, 1))):
        with pytest.raises(ValueError, match="outside"):
            g.maze_route(src, dst)
    mazekernel._reset_for_tests()  # let later tests load the kernel


def _grid_cases(rng, per_kind):
    """``per_kind`` random (grid, src, dst) searches of each grid kind."""
    cases = []
    for diagonal in (False, True):
        for _ in range(per_kind):
            g = _random_grid(rng, diagonal=diagonal)
            cases.append((g, *_random_pair(rng, g)))
    return cases


class TestCompileGate:
    """``REPRO_NO_CCOMPILE`` must pin the scalar fallback, and an
    accidental build failure must not pass silently.  Two test names
    keep the word scipy from the fallback the scalar A* replaced; they
    check that the fallback and the compiled engines agree."""

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
        """Without the kernel every grid runs the scalar A*: diagonal
        grids and, with no distance-field oracle, Manhattan ones too."""
        for diagonal in (True, False):
            rng = random.Random(506)
            for _ in range(6):
                g = _random_grid(rng, diagonal=diagonal)
                src, dst = _random_pair(rng, g)
                path, nodes, engine = g._maze_route_info(
                    src, dst, routing.MAZE_NODE_BUDGET)
                assert (engine, nodes) == ("scalar", 0)
                assert g._oracle is None
                assert path == g.maze_route_scalar(src, dst)

    def test_scipy_fallback_is_identical(self, no_ccompile, monkeypatch):
        """Searched once with the kernel refused and once with it
        loaded, the same grids give the same paths, at the default
        budget and at budgets that run out."""
        cases = _grid_cases(random.Random(321), 5)
        budgets = (routing.MAZE_NODE_BUDGET, 64, 1)
        fallback = []
        for g, src, dst in cases:
            for budget in budgets:
                path, nodes, engine = g._maze_route_info(src, dst, budget)
                assert (engine, nodes) == ("scalar", 0)
                fallback.append(path)
        _set_kernel(monkeypatch, True)
        compiled = []
        for g, src, dst in cases:
            for budget in budgets:
                path, _nodes, engine = g._maze_route_info(src, dst, budget)
                assert engine == ("astar" if g.diagonal else "oracle")
                compiled.append(path)
        assert compiled == fallback
        assert any(p is None for p in fallback)
        assert any(p is not None for p in fallback)

    def test_kernel_and_scipy_report_same_expansions(self, no_ccompile,
                                                     monkeypatch):
        """The node count a compiled engine reports is the fallback's
        exact budget threshold (the budget semantics depend on it): with
        that budget the fallback finds the same path, with one less it
        gives up."""
        cases = _grid_cases(random.Random(654), 8)
        _set_kernel(monkeypatch, True)
        counted = []
        for g, src, dst in cases:
            path, nodes, engine = g._maze_route_info(
                src, dst, routing.MAZE_NODE_BUDGET)
            assert engine == ("astar" if g.diagonal else "oracle")
            if path is not None and nodes >= 2:
                counted.append((g, src, dst, path, nodes))
        assert len(counted) > 8
        _set_kernel(monkeypatch, False)
        for g, src, dst, path, nodes in counted:
            assert g._maze_route_info(src, dst, nodes) \
                == (path, 0, "scalar")
            assert g._maze_route_info(src, dst, nodes - 1) \
                == (None, 0, "scalar")
