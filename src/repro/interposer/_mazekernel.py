"""Runtime-compiled C kernels for the maze router's searches.

One C source holds two entry points, compiled together into one shared
object and loaded through :mod:`ctypes`:

``maze_dial``
    The distance-field oracle in :mod:`repro.interposer.routing`
    reduces each congestion-aware A* maze call on a Manhattan grid to
    one single-source shortest-path sweep over the A*-reweighted grid.
    All reweighted edge costs are small integers (lateral 0/2, via 3,
    overflow +12, max 15), which makes a *dial* (bucket-queue) Dijkstra
    the right engine: a circular array of ``max_weight + 1``
    doubly-linked buckets gives O(1) push, pop and decrease-key.
    Because the kernel drains bucket levels in order, it stops as soon
    as the goal's distance level is fully drained: exactly the states
    with ``dist <= dist(goal)`` are finalized, which is precisely the
    set the oracle's expansion-count and path-reconstruction formulas
    need.

``maze_astar``
    A binary-heap A*, ported line for line from
    :meth:`~repro.interposer.routing.RoutingGrid.maze_route_scalar`,
    for every search the oracle does not take: diagonal (organic) grids,
    whose sqrt(2) step costs rule out a bucket queue, and Manhattan
    grids whose cost constants are not integers.  Heap keys
    ``(f, g, state)`` are unique (a re-push needs a strictly smaller
    ``g``), so any exact priority queue pops the same sequence as
    :mod:`heapq`; with the scalar search's state encoding, move order,
    float expressions and relaxation of already-visited states kept,
    the path, the expansion count and node-budget exhaustion are
    bit-identical to the Python reference.

The source is compiled once per toolchain with the system C compiler
(``$CC``, default ``cc``) into ``<repo>/.build_cache/``; the object's
name hashes the source, the compiler and the flags, so an object built
differently is never reused.  ``-ffp-contract=off`` keeps the compiler
from fusing the A* heuristic's multiply-add, which would change its
rounding on targets with FMA.  When the kernel cannot be built or
loaded, :func:`load_kernel` logs one warning and returns ``None``; every
maze search then runs the scalar A*
(:meth:`~repro.interposer.routing.RoutingGrid.maze_route_scalar`),
several times slower.  Set ``REPRO_NO_CCOMPILE=1`` to disable the
kernel on purpose (no warning; tests use this to pin the fallback).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple, Optional

_LOG = logging.getLogger(__name__)

#: Environment switch that disables compilation and loading entirely.
ENV_DISABLE = "REPRO_NO_CCOMPILE"

#: Compiler flags; part of the object's cache key.
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define NB 16  /* circular buckets; > max edge weight (15) */

/* Dial Dijkstra over the maze grid, A*-reweighted toward (ty, tx).
 *
 * State encoding matches the oracle: index = (y * L + l) * nx + x.
 * Even layers route in x, odd layers in y, single-layer grids in both;
 * vias step between adjacent layers.  Edge weight into state u:
 *     lateral: 1 + (coordinate moves toward target ? -1 : +1)
 *              + over_cost * over[u]
 *     via:     via + over_cost * over[u]
 * (the +-1 term is the Manhattan-heuristic reweighting, telescoped).
 *
 * dist/done/nxt/prv/touched are caller-owned scratch arrays of length
 * n; dist must be -1 and done 0 on the first call, and the kernel
 * resets the states it touched at the START of the next call (the
 * caller reads the dist field between calls), passing the previous
 * touched count back in via n_touched_prev.
 *
 * Outputs: out[0] = goal distance (-1 if unreachable),
 *          out[1] = number of finalized states (all with dist <= s),
 *          out[2] = touched count to hand back next call.
 * Returns 0 on success.
 */
int64_t maze_dial(const uint8_t *over,
                  int32_t *dist, uint8_t *done,
                  int32_t *nxt, int32_t *prv, int32_t *touched,
                  int64_t n_touched_prev,
                  int64_t n, int32_t L, int32_t ny, int32_t nx,
                  int32_t start, int32_t ty, int32_t tx,
                  int32_t via, int32_t over_cost,
                  int64_t *out)
{
    int32_t head[NB];
    int64_t nt = 0, pending = 0, finalized = 0, goal_s = -1;
    int64_t level = 0;
    const int32_t nxL = nx * L;
    const int32_t goal = (ty * L) * nx + tx;
    int64_t i;

    for (i = 0; i < n_touched_prev; i++) {
        const int32_t v = touched[i];
        dist[v] = -1;
        done[v] = 0;
    }
    for (i = 0; i < NB; i++)
        head[i] = -1;

#define PUSH(u, d) do { \
        const int32_t b_ = (int32_t)((d) & (NB - 1)); \
        nxt[u] = head[b_]; \
        prv[u] = -1; \
        if (head[b_] >= 0) prv[head[b_]] = (u); \
        head[b_] = (u); \
    } while (0)

#define UNLINK(u, d) do { \
        const int32_t b_ = (int32_t)((d) & (NB - 1)); \
        if (prv[u] >= 0) nxt[prv[u]] = nxt[u]; \
        else head[b_] = nxt[u]; \
        if (nxt[u] >= 0) prv[nxt[u]] = prv[u]; \
    } while (0)

#define RELAX(u, nd) do { \
        const int32_t u_ = (u); \
        if (!done[u_]) { \
            const int32_t d_ = dist[u_]; \
            const int32_t nd_ = (int32_t)(nd); \
            if (d_ < 0) { \
                dist[u_] = nd_; \
                touched[nt++] = u_; \
                PUSH(u_, nd_); \
                pending++; \
            } else if (nd_ < d_) { \
                UNLINK(u_, d_); \
                dist[u_] = nd_; \
                PUSH(u_, nd_); \
            } \
        } \
    } while (0)

    dist[start] = 0;
    touched[nt++] = start;
    PUSH(start, 0);
    pending = 1;

    while (pending > 0) {
        const int32_t b = (int32_t)(level & (NB - 1));
        while (head[b] >= 0) {
            const int32_t v = head[b];
            head[b] = nxt[v];
            if (nxt[v] >= 0) prv[nxt[v]] = -1;
            done[v] = 1;
            pending--;
            finalized++;
            if (v == goal)
                goal_s = level;
            {
                const int32_t x = v % nx;
                const int32_t r = v / nx;
                const int32_t l = r % L;
                const int32_t y = r / L;
                const int lat_x = (L == 1) || (l % 2 == 0);
                const int lat_y = (L == 1) || (l % 2 == 1);
                if (lat_x) {
                    if (x + 1 < nx) {
                        const int32_t u = v + 1;
                        const int64_t w = (x >= tx ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                    if (x > 0) {
                        const int32_t u = v - 1;
                        const int64_t w = (x <= tx ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                }
                if (lat_y) {
                    if (y + 1 < ny) {
                        const int32_t u = v + nxL;
                        const int64_t w = (y >= ty ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                    if (y > 0) {
                        const int32_t u = v - nxL;
                        const int64_t w = (y <= ty ? 2 : 0)
                            + (over[u] ? over_cost : 0);
                        RELAX(u, level + w);
                    }
                }
                if (l + 1 < L) {
                    const int32_t u = v + nx;
                    const int64_t w = via + (over[u] ? over_cost : 0);
                    RELAX(u, level + w);
                }
                if (l > 0) {
                    const int32_t u = v - nx;
                    const int64_t w = via + (over[u] ? over_cost : 0);
                    RELAX(u, level + w);
                }
            }
        }
        if (goal_s >= 0)
            break;
        level++;
    }

    out[0] = goal_s;
    out[1] = finalized;
    out[2] = nt;
    return 0;
}

/* Binary-heap A*, a line-for-line port of RoutingGrid.maze_route_scalar.
 *
 * States are flat indices (l * ny + y) * nx + x; over[] is the
 * over-capacity snapshot in that order.  Lateral moves per layer follow
 * _layer_dirs: all 8 on diagonal grids, 4 on single-layer Manhattan
 * grids, else x on even layers and y on odd ones; vias step between
 * adjacent layers.  Edge cost into u is step (1 or sq2) or via, plus
 * over_cost when over[u], summed exactly as the scalar search does.
 *
 * dist (+inf), prev (-1), visited (0) and touched are caller-owned
 * scratch arrays of n = L * ny * nx entries; every state whose dist is
 * set is listed in touched, and the three arrays are reset through it
 * before returning, so they are ready for the next call.  The heap is
 * allocated per call.
 *
 * Returns 1 with the path (start .. goal) in path[0 .. out[1]),
 * 0 when the node budget ran out or the goal is unreachable, -1 when
 * the heap cannot be allocated and -2 when the prev chain is longer
 * than n.  out[0] = expansions (pops of unvisited states, including
 * the one that exceeded max_nodes).
 */
typedef struct { double f; double g; int32_t s; } astar_ent;

static int astar_less(const astar_ent *a, const astar_ent *b)
{
    if (a->f != b->f)
        return a->f < b->f;
    if (a->g != b->g)
        return a->g < b->g;
    return a->s < b->s;
}

static double astar_h(int32_t y, int32_t x, int32_t ty, int32_t tx,
                      int32_t diagonal)
{
    const int32_t ay = y >= ty ? y - ty : ty - y;
    const int32_t ax = x >= tx ? x - tx : tx - x;
    if (diagonal)
        return (double)(ay > ax ? ay : ax)
            + 0.41421 * (double)(ay < ax ? ay : ax);
    return (double)(ay + ax);
}

int64_t maze_astar(const uint8_t *over,
                   double *dist, int32_t *prev, uint8_t *visited,
                   int32_t *touched,
                   int32_t L, int32_t ny, int32_t nx, int32_t diagonal,
                   int32_t sy, int32_t sx, int32_t ty, int32_t tx,
                   int64_t max_nodes,
                   double via_cost, double over_cost, double sq2,
                   int32_t *path, int64_t *out)
{
    static const int32_t DY[8] = {0, 0, 1, -1, 1, 1, -1, -1};
    static const int32_t DX[8] = {1, -1, 0, 0, 1, -1, 1, -1};
    const int32_t plane = ny * nx;
    const int64_t n = (int64_t)L * plane;
    const int32_t top = L - 1;
    const int32_t start = sy * nx + sx;  /* layer 0 */
    const int32_t goal = ty * nx + tx;
    const double via_over = via_cost + over_cost;
    int64_t hn = 0, hcap = 1024, nt = 0, expansions = 0, i;
    int64_t result = 0;
    astar_ent *heap = (astar_ent *)malloc((size_t)hcap * sizeof *heap);

    if (heap == NULL)
        return -1;

#define ASTAR_PUSH(f_, g_, s_) do { \
        astar_ent e_; \
        int64_t c_ = hn++; \
        if (hn > hcap) { \
            astar_ent *grown_ = (astar_ent *)realloc( \
                heap, (size_t)(2 * hcap) * sizeof *heap); \
            if (grown_ == NULL) { result = -1; goto finish; } \
            heap = grown_; \
            hcap *= 2; \
        } \
        e_.f = (f_); e_.g = (g_); e_.s = (s_); \
        while (c_ > 0) { \
            const int64_t p_ = (c_ - 1) / 2; \
            if (!astar_less(&e_, &heap[p_])) break; \
            heap[c_] = heap[p_]; \
            c_ = p_; \
        } \
        heap[c_] = e_; \
    } while (0)

#define ASTAR_RELAX(u, ng_, hh_) do { \
        const int32_t u_ = (u); \
        const double ngv_ = (ng_); \
        if (ngv_ < dist[u_]) { \
            if (dist[u_] == INFINITY) touched[nt++] = u_; \
            dist[u_] = ngv_; \
            prev[u_] = state; \
            ASTAR_PUSH(ngv_ + (hh_), ngv_, u_); \
        } \
    } while (0)

    dist[start] = 0.0;
    touched[nt++] = start;
    ASTAR_PUSH(astar_h(sy, sx, ty, tx, diagonal), 0.0, start);
    while (hn > 0) {
        const astar_ent top_e = heap[0];
        const int32_t state = top_e.s;
        const double g = top_e.g;
        int32_t l, y, x, k, k0, k1;
        hn--;
        if (hn > 0) {  /* sift the last entry down from the root */
            const astar_ent last = heap[hn];
            int64_t c = 0;
            for (;;) {
                int64_t m = 2 * c + 1;
                if (m >= hn) break;
                if (m + 1 < hn && astar_less(&heap[m + 1], &heap[m]))
                    m++;
                if (!astar_less(&heap[m], &last)) break;
                heap[c] = heap[m];
                c = m;
            }
            heap[c] = last;
        }
        if (visited[state])
            continue;
        visited[state] = 1;
        expansions++;
        if (expansions > max_nodes)
            goto finish;
        if (state == goal) {
            int64_t len = 0, a, b;
            int32_t s = goal;
            path[len++] = s;
            while (prev[s] >= 0) {
                if (len >= n) { result = -2; goto finish; }
                s = prev[s];
                path[len++] = s;
            }
            for (a = 0, b = len - 1; a < b; a++, b--) {
                const int32_t t = path[a];
                path[a] = path[b];
                path[b] = t;
            }
            out[1] = len;
            result = 1;
            goto finish;
        }
        l = state / plane;
        y = (state % plane) / nx;
        x = state % nx;
        if (diagonal) { k0 = 0; k1 = 8; }
        else if (L == 1) { k0 = 0; k1 = 4; }
        else if (l % 2 == 0) { k0 = 0; k1 = 2; }
        else { k0 = 2; k1 = 4; }
        for (k = k0; k < k1; k++) {
            const int32_t yy = y + DY[k];
            const int32_t xx = x + DX[k];
            if (0 <= yy && yy < ny && 0 <= xx && xx < nx) {
                const int32_t nstate = state + DY[k] * nx + DX[k];
                const double step = (DY[k] && DX[k]) ? sq2 : 1.0;
                ASTAR_RELAX(nstate,
                            g + (over[nstate] ? step + over_cost : step),
                            astar_h(yy, xx, ty, tx, diagonal));
            }
        }
        if (l > 0 || l < top) {
            const double hh = astar_h(y, x, ty, tx, diagonal);
            if (l > 0) {
                const int32_t nstate = state - plane;
                ASTAR_RELAX(nstate,
                            g + (over[nstate] ? via_over : via_cost), hh);
            }
            if (l < top) {
                const int32_t nstate = state + plane;
                ASTAR_RELAX(nstate,
                            g + (over[nstate] ? via_over : via_cost), hh);
            }
        }
    }

finish:
    out[0] = expansions;
    for (i = 0; i < nt; i++) {
        const int32_t v = touched[i];
        dist[v] = INFINITY;
        prev[v] = -1;
        visited[v] = 0;
    }
    free(heap);
    return result;
}
"""


class MazeKernel(NamedTuple):
    """The two loaded entry points of the compiled source."""

    dial: Callable[..., int]
    astar: Callable[..., int]


_kernel: Optional[MazeKernel] = None
_kernel_tried = False


def _build_cache_dir() -> Path:
    """Compiled-object cache directory (inside the repository)."""
    return Path(__file__).resolve().parents[3] / ".build_cache"


def _object_path(compiler: str) -> Path:
    """Cached object for this source built by ``compiler`` with
    :data:`_FLAGS`; all three are hashed into the name."""
    key = "\0".join((_SOURCE, compiler) + _FLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _build_cache_dir() / f"mazekernel_{digest}.so"


def _compile(compiler: str, so_path: Path) -> Optional[str]:
    """Compile the source into ``so_path``; the failure reason, or
    ``None`` on success."""
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=so_path.parent)
        with os.fdopen(fd, "w") as fh:
            fh.write(_SOURCE)
        tmp_so = tmp_c[:-2] + ".so"
        try:
            proc = subprocess.run(
                [compiler, *_FLAGS, "-o", tmp_so, tmp_c],
                capture_output=True, timeout=120)
            if proc.returncode != 0:
                return proc.stderr.decode(errors="replace").strip()
            os.replace(tmp_so, so_path)  # atomic vs concurrent builders
            return None
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)


def _bind(lib: ctypes.CDLL) -> MazeKernel:
    """Declare the entry points' C signatures."""
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    dial = lib.maze_dial
    dial.restype = i64
    dial.argtypes = [
        ptr,                      # over
        ptr, ptr,                 # dist, done
        ptr, ptr, ptr,            # nxt, prv, touched
        i64,                      # n_touched_prev
        i64, i32, i32, i32,       # n, L, ny, nx
        i32, i32, i32,            # start, ty, tx
        i32, i32,                 # via, over_cost
        ptr,                      # out
    ]
    astar = lib.maze_astar
    astar.restype = i64
    astar.argtypes = [
        ptr,                      # over
        ptr, ptr, ptr, ptr,       # dist, prev, visited, touched
        i32, i32, i32, i32,       # L, ny, nx, diagonal
        i32, i32, i32, i32,       # sy, sx, ty, tx
        i64,                      # max_nodes
        ctypes.c_double, ctypes.c_double,  # via_cost, over_cost
        ctypes.c_double,          # sq2
        ptr, ptr,                 # path, out
    ]
    return MazeKernel(dial, astar)


def load_kernel() -> Optional[MazeKernel]:
    """The compiled entry points (``maze_dial``, ``maze_astar``), or
    ``None``.

    Compiles on first use (cached under ``<repo>/.build_cache/``),
    memoizes the result for the process, and returns ``None`` — never
    raises — when the kernel is unavailable.  Unless
    ``REPRO_NO_CCOMPILE`` disabled it, an unavailable kernel logs one
    warning per process, since the fallback is much slower.
    """
    global _kernel, _kernel_tried
    if _kernel_tried:
        return _kernel
    _kernel_tried = True
    if os.environ.get(ENV_DISABLE, "") not in ("", "0"):
        return None
    compiler = os.environ.get("CC", "cc")
    so_path = _object_path(compiler)
    reason = None
    if not so_path.exists():
        reason = _compile(compiler, so_path)
    if reason is None:
        try:
            _kernel = _bind(ctypes.CDLL(str(so_path)))
        except (OSError, AttributeError) as exc:
            reason = str(exc)
    if reason is not None:
        _LOG.warning("maze kernel unavailable (%s with %s): %s; the "
                     "router falls back to its much slower scalar A*",
                     compiler, " ".join(_FLAGS), reason)
    return _kernel


def _reset_for_tests() -> None:
    """Forget the memoized kernel (so env-var gates can be re-tested)."""
    global _kernel, _kernel_tried
    _kernel = None
    _kernel_tried = False
