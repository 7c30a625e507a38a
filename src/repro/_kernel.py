"""Runtime-compiled C kernels: the maze router's searches, the FM passes
and the transient stepping loop.

One C source holds four entry points, compiled together into one shared
object and loaded through :mod:`ctypes`.  This module imports nothing
from :mod:`repro`, so every package can use the kernel without an
import cycle.

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
    whose sqrt(2) step costs rule out a bucket queue.  Heap keys
    ``(f, g, state)`` are unique (a re-push needs a strictly smaller
    ``g``), so any exact priority queue pops the same sequence as
    :mod:`heapq`; with the scalar search's state encoding, move order,
    float expressions and relaxation of already-visited states kept,
    the path, the expansion count and node-budget exhaustion are
    bit-identical to the Python reference.

``fm_run``
    Every pass of one Fiduccia–Mattheyses start for
    :mod:`repro.partition.fm`, over the CSR arrays of a
    :class:`~repro.partition.fm.Hypergraph`, ported line for line from
    the dict-based pass loop that ``tests/oracles/fm.py`` keeps as the
    reference.  Its output is exact because nothing in it depends on
    an order or a rounding the reference does not fix: gain slots are
    doubly linked lists with tail append, unlink and LIFO pop from the
    tail, the order of the insertion-ordered dict buckets; a gain tie
    between the two sides' candidates breaks on the instance name's
    rank, as sorting ``(gain, name, side)`` tuples does; the part areas
    are summed in instance order with the same additions and
    subtractions; and the balance bounds and the random start arrive
    from Python, never re-summed here.  The assignment, the cut, the
    pass count and the cut history equal the reference's.

``transient_run``
    Every step of :func:`repro.circuit.transient.simulate` after t = 0
    in one call, ported from its numpy loop: the RHS assembly, the
    finiteness check that ``scipy.linalg.lu_solve`` makes on each RHS
    (``check_finite=True``), the back-substitution, the companion-state
    update and the recording.  Its output equals the numpy loop's bit
    for bit because it keeps that loop's arithmetic:

    * each sparse product starts every row's sum from 0.0 and adds the
      row's entries in CSR order, as scipy's ``csr_matvec`` does, and
      is added to the RHS as its own term, as ``z += A @ v`` adds it;
    * elementwise expressions keep numpy's operand order:
      ``cap_g*cap_v + cap_i``, ``(-ind_g)*ind_i - ind_v`` and
      ``cap_g*(v_new - cap_v) - cap_i``, and ``-ffp-contract=off``
      keeps each product and sum rounded on its own;
    * the solve is scipy's own LAPACK ``dgetrs`` with trans ``'N'``, on
      the factor's column-major LU and 1-based ``int32`` pivots, called
      through the pointer :func:`lapack_dgetrs` reads from
      ``scipy.linalg.cython_lapack``: the very routine ``lu_solve``
      reaches through f2py.  A triangular solve written here could not
      match it, because OpenBLAS's ``dgetrs`` runs blocked triangular
      solves whose summation order follows its own kernels and block
      sizes, an order C code has no way to copy.

    The solver counters move as on the numpy loop: ``steps - 1``
    transient solves per run, and the factorization count untouched
    (the LU comes from ``TransientBlockFactor``).  The numpy
    loop runs instead when the kernel or ``dgetrs`` is unavailable, and
    for circuits with mutual inductors, whose ``mut_g @ ind_i`` goes
    through numpy's BLAS.

The source is compiled once per toolchain with the system C compiler
(``$CC``, default ``cc``) into ``<repo>/.build_cache/``; the object's
name hashes the source, the compiler and the flags, so an object built
differently is never reused.  ``-ffp-contract=off`` keeps the compiler
from fusing a multiply and an add (the A* heuristic, the transient
loop's products and sums), which would change their rounding on
targets with FMA; FM's float work is additions and comparisons, in the
reference's order.  When the kernel cannot be built or loaded,
:func:`load_kernel` logs one warning and returns ``None``; every maze
search then runs the scalar A*
(:meth:`~repro.interposer.routing.RoutingGrid.maze_route_scalar`),
several times slower, FM runs its portable pass
(``repro.partition.fm._passes_portable``), the same loop in Python,
and transients step in numpy.  Set ``REPRO_NO_CCOMPILE=1`` to disable
the kernel on purpose (no warning; tests use this to pin the
fallbacks).
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

/* FM bipartitioning: the pass loop of repro.partition.fm, ported line
 * for line (the portable pass there runs the same loop in Python).
 *
 * The hypergraph is CSR.  Instance i's unique nets, sorted by net
 * name, are inst_nets[inst_ptr[i] .. inst_ptr[i + 1]); net e's pins
 * (driver first, then sinks, duplicates kept) are pins[pin_ptr[e] ..
 * pin_ptr[e + 1]).  area[i] is instance i's cell area and rank[i] the
 * rank of its name, which breaks a gain tie between the two sides'
 * candidates.  Gains are clamped to [-max_deg, max_deg]; each gain
 * slot of each side is a doubly linked list with tail append, unlink
 * and pop from the tail.
 *
 * side[] (0/1) is the start on entry and the rolled-forward assignment
 * on return.  best_side[] holds the assignment with the fewest cut
 * nets seen and out[1] its cut; out[1] = -1 on entry means "none yet":
 * the cut of side[] is counted and side[] copied.  Runs up to
 * max_passes passes, writing each pass's cut to history[]; out[0] =
 * passes run, out[2] = 1 when a pass applied no move (converged).
 * Returns 0, or -1 when scratch memory cannot be allocated.
 */
typedef struct {
    int32_t *head, *tail;   /* [2 * nslot]: side-major gain slots */
    int32_t *nxt, *prv;     /* [n] list links */
    int32_t *gain;          /* [n] clamped gain */
    int64_t nslot;
    int32_t max_deg;
    int64_t best[2];        /* highest possibly non-empty slot */
} fm_buckets;

static void fm_append(fm_buckets *b, int32_t u, int p, int64_t slot)
{
    const int64_t k = p * b->nslot + slot;
    b->prv[u] = b->tail[k];
    b->nxt[u] = -1;
    if (b->tail[k] >= 0)
        b->nxt[b->tail[k]] = u;
    else
        b->head[k] = u;
    b->tail[k] = u;
    if (slot > b->best[p])
        b->best[p] = slot;
}

static void fm_unlink(fm_buckets *b, int32_t u, int p, int64_t slot)
{
    const int64_t k = p * b->nslot + slot;
    if (b->prv[u] >= 0)
        b->nxt[b->prv[u]] = b->nxt[u];
    else
        b->head[k] = b->nxt[u];
    if (b->nxt[u] >= 0)
        b->prv[b->nxt[u]] = b->prv[u];
    else
        b->tail[k] = b->prv[u];
}

static int32_t fm_clamp(int64_t g, int32_t m)
{
    return g > m ? m : (g < -m ? -m : (int32_t)g);
}

static void fm_insert(fm_buckets *b, int32_t u, int p, int64_t g)
{
    b->gain[u] = fm_clamp(g, b->max_deg);
    fm_append(b, u, p, b->gain[u] + b->max_deg);
}

static void fm_update(fm_buckets *b, int32_t u, int p, int32_t delta)
{
    const int32_t old = b->gain[u];
    const int32_t g = fm_clamp((int64_t)old + delta, b->max_deg);
    if (g == old)
        return;
    fm_unlink(b, u, p, old + b->max_deg);
    b->gain[u] = g;
    fm_append(b, u, p, g + b->max_deg);
}

static int32_t fm_pop_best(fm_buckets *b, int p)
{
    int32_t u;
    while (b->best[p] >= 0 && b->tail[p * b->nslot + b->best[p]] < 0)
        b->best[p]--;
    if (b->best[p] < 0)
        return -1;
    u = b->tail[p * b->nslot + b->best[p]];
    fm_unlink(b, u, p, b->best[p]);
    return u;
}

/* Pins of every net per side into cnt[2 e + s]; returns the cut. */
static int64_t fm_count(int64_t m, const int64_t *pin_ptr,
                        const int32_t *pins, const int8_t *side,
                        int32_t *cnt)
{
    int64_t e, t, cut = 0;
    for (e = 0; e < m; e++) {
        int32_t c[2] = {0, 0};
        for (t = pin_ptr[e]; t < pin_ptr[e + 1]; t++)
            c[side[pins[t]]]++;
        cnt[2 * e] = c[0];
        cnt[2 * e + 1] = c[1];
        if (c[0] > 0 && c[1] > 0)
            cut++;
    }
    return cut;
}

int64_t fm_run(int64_t n, int64_t m,
               const double *area, const int32_t *rank,
               const int64_t *inst_ptr, const int32_t *inst_nets,
               const int64_t *pin_ptr, const int32_t *pins,
               int32_t max_deg, double lo, double hi, int64_t max_passes,
               int8_t *side, int8_t *best_side, int64_t *history,
               int64_t *out)
{
    fm_buckets b;
    const int64_t nslot = 2 * (int64_t)max_deg + 1;
    int32_t *cnt = (int32_t *)malloc((size_t)(2 * m + 1) * sizeof *cnt);
    int32_t *moves = (int32_t *)malloc((size_t)(n + 1) * sizeof *moves);
    int8_t *cur = (int8_t *)malloc((size_t)(n + 1));
    uint8_t *locked = (uint8_t *)malloc((size_t)(n + 1));
    int64_t best_cut = out[1], passes = 0, pass, result = 0, i, j, k;

    b.head = (int32_t *)malloc((size_t)(2 * nslot) * sizeof(int32_t));
    b.tail = (int32_t *)malloc((size_t)(2 * nslot) * sizeof(int32_t));
    b.nxt = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    b.prv = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    b.gain = (int32_t *)malloc((size_t)(n + 1) * sizeof(int32_t));
    b.nslot = nslot;
    b.max_deg = max_deg;
    out[2] = 0;
    if (cnt == NULL || moves == NULL || cur == NULL || locked == NULL
            || b.head == NULL || b.tail == NULL || b.nxt == NULL
            || b.prv == NULL || b.gain == NULL) {
        result = -1;
        goto finish;
    }
    if (best_cut < 0) {
        best_cut = fm_count(m, pin_ptr, pins, side, cnt);
        for (i = 0; i < n; i++)
            best_side[i] = side[i];
    }

    for (pass = 0; pass < max_passes; pass++) {
        double part_area[2] = {0.0, 0.0};
        int64_t nlocked = 0, nmoves = 0, best_len = 0, cur_cut, best_in_pass,
                pass_cut;
        passes++;
        cur_cut = fm_count(m, pin_ptr, pins, side, cnt);
        for (i = 0; i < n; i++)
            part_area[side[i]] += area[i];
        for (k = 0; k < 2 * nslot; k++)
            b.head[k] = b.tail[k] = -1;
        b.best[0] = b.best[1] = -1;
        for (i = 0; i < n; i++) {
            const int s = side[i];
            int64_t g = 0;
            for (j = inst_ptr[i]; j < inst_ptr[i + 1]; j++) {
                const int32_t *c = cnt + 2 * (int64_t)inst_nets[j];
                if (c[1 - s] == 0)
                    g--;
                if (c[s] == 1)
                    g++;
            }
            fm_insert(&b, (int32_t)i, s, g);
            locked[i] = 0;
            cur[i] = side[i];
        }
        best_in_pass = cur_cut;

        while (nlocked < n) {
            int32_t cv[2], cg[2], v, g;
            int cp[2], nc = 0, q, src, dst;
            for (q = 0; q < 2; q++) {
                const int32_t u = fm_pop_best(&b, q);
                double dst_area, src_area;
                if (u < 0)
                    continue;
                dst_area = part_area[1 - q] + area[u];
                src_area = part_area[q] - area[u];
                if (dst_area <= hi && src_area >= lo) {
                    cv[nc] = u;
                    cg[nc] = b.gain[u];
                    cp[nc] = q;
                    nc++;
                } else {
                    fm_insert(&b, u, q, b.gain[u]);
                }
            }
            if (nc == 0)
                break;
            /* candidates.sort(reverse=True) on (gain, name, side) */
            k = nc == 2 && (cg[1] > cg[0]
                            || (cg[1] == cg[0] && rank[cv[1]] > rank[cv[0]]));
            if (nc == 2)
                fm_insert(&b, cv[1 - k], cp[1 - k], cg[1 - k]);
            v = cv[k];
            g = cg[k];
            src = cp[k];
            dst = 1 - src;
            locked[v] = 1;
            nlocked++;
            moves[nmoves++] = v;
            part_area[src] -= area[v];
            part_area[dst] += area[v];
            cur_cut -= g;
            for (j = inst_ptr[v]; j < inst_ptr[v + 1]; j++) {
                const int64_t e = inst_nets[j];
                int32_t *c = cnt + 2 * e;
                const int64_t t0 = pin_ptr[e], t1 = pin_ptr[e + 1];
                int64_t t;
                if (c[dst] == 0) {
                    for (t = t0; t < t1; t++) {
                        const int32_t u = pins[t];
                        if (!locked[u])
                            fm_update(&b, u, cur[u], +1);
                    }
                } else if (c[dst] == 1) {
                    for (t = t0; t < t1; t++) {
                        const int32_t u = pins[t];
                        if (!locked[u] && cur[u] == dst)
                            fm_update(&b, u, dst, -1);
                    }
                }
                c[src]--;
                c[dst]++;
                if (c[src] == 0) {
                    for (t = t0; t < t1; t++) {
                        const int32_t u = pins[t];
                        if (!locked[u])
                            fm_update(&b, u, cur[u], -1);
                    }
                } else if (c[src] == 1) {
                    for (t = t0; t < t1; t++) {
                        const int32_t u = pins[t];
                        if (!locked[u] && cur[u] == src)
                            fm_update(&b, u, src, +1);
                    }
                }
            }
            cur[v] = (int8_t)dst;
            if (cur_cut < best_in_pass) {
                best_in_pass = cur_cut;
                best_len = nmoves;
            }
        }

        /* Roll forward the prefix of moves that reached the best cut. */
        for (k = 0; k < best_len; k++)
            side[moves[k]] ^= 1;
        pass_cut = fm_count(m, pin_ptr, pins, side, cnt);
        history[pass] = pass_cut;
        if (pass_cut < best_cut) {
            best_cut = pass_cut;
            for (i = 0; i < n; i++)
                best_side[i] = side[i];
        }
        if (best_len == 0) {
            out[2] = 1;
            break;
        }
    }

finish:
    out[0] = passes;
    out[1] = best_cut;
    free(cnt);
    free(moves);
    free(cur);
    free(locked);
    free(b.head);
    free(b.tail);
    free(b.nxt);
    free(b.prv);
    free(b.gain);
    return result;
}

/* Trapezoidal transient stepping: steps 1 .. steps - 1 of the numpy
 * loop in repro.circuit.transient.simulate, with the same floating-point
 * operations in the same order (the module docstring lists the rules).
 *
 * x has size + 1 entries: x[0 .. size) holds each step's RHS and then,
 * solved in place, its solution; x[size] stays 0.0, the slot ground
 * reads.  Each CSR matrix comes as (ptr, idx, val): isrc_inc and
 * cap_inc have size rows, cap_diff n_cap and ind_diff n_ind.  The
 * source samples are row-major (n_src, steps).  cap_v, cap_i, ind_i
 * and ind_v hold the t = 0 state on entry and are advanced in place;
 * hist is n_cap scratch.  Row `step` of v_out (n_rec wide) and i_out
 * (n_cur wide) records x at rec_idx and cur_idx.
 *
 * Returns 0 when every step was solved; s > 0 when the RHS of step s
 * holds an inf or NaN (it is not solved); dgetrs's info when < 0.
 */
typedef void (*dgetrs_fn)(char *trans, int *n, int *nrhs, double *a,
                          int *lda, int *ipiv, double *b, int *ldb,
                          int *info);

static double csr_row(const int32_t *ptr, const int32_t *idx,
                      const double *val, const double *v, int64_t stride,
                      int64_t row)
{
    double s = 0.0;
    int32_t jj;
    for (jj = ptr[row]; jj < ptr[row + 1]; jj++)
        s += val[jj] * v[idx[jj] * stride];
    return s;
}

int64_t transient_run(void *dgetrs, double *lu, int32_t *piv,
                      int64_t size, int64_t steps,
                      int64_t n_vsrc, int64_t vsrc_offset,
                      const double *vsrc_samples,
                      int64_t n_isrc, const double *isrc_samples,
                      const int32_t *ii_ptr, const int32_t *ii_idx,
                      const double *ii_val,
                      int64_t n_cap, const double *cap_g,
                      double *cap_v, double *cap_i,
                      const int32_t *ci_ptr, const int32_t *ci_idx,
                      const double *ci_val,
                      const int32_t *cd_ptr, const int32_t *cd_idx,
                      const double *cd_val,
                      int64_t n_ind, int64_t ind_offset,
                      const double *ind_g, double *ind_i, double *ind_v,
                      const int32_t *ld_ptr, const int32_t *ld_idx,
                      const double *ld_val,
                      int64_t n_rec, const int64_t *rec_idx,
                      double *v_out,
                      int64_t n_cur, const int64_t *cur_idx,
                      double *i_out,
                      double *x, double *hist)
{
    char trans = 'N';
    int n = (int)size, nrhs = 1, info = 0;
    int64_t step, i, k;

    for (step = 1; step < steps; step++) {
        for (i = 0; i < size; i++)
            x[i] = 0.0;
        for (k = 0; k < n_vsrc; k++)
            x[vsrc_offset + k] = vsrc_samples[k * steps + step];
        if (n_isrc)
            for (i = 0; i < size; i++)
                x[i] += csr_row(ii_ptr, ii_idx, ii_val,
                                isrc_samples + step, steps, i);
        if (n_cap) {
            for (k = 0; k < n_cap; k++)
                hist[k] = cap_g[k] * cap_v[k] + cap_i[k];
            for (i = 0; i < size; i++)
                x[i] += csr_row(ci_ptr, ci_idx, ci_val, hist, 1, i);
        }
        for (k = 0; k < n_ind; k++)
            x[ind_offset + k] = (-ind_g[k]) * ind_i[k] - ind_v[k];
        for (i = 0; i < size; i++)
            if (!isfinite(x[i]))
                return step;
        ((dgetrs_fn)dgetrs)(&trans, &n, &nrhs, lu, &n, piv, x, &n, &info);
        if (info != 0)
            return info;
        for (k = 0; k < n_cap; k++) {
            const double v_new = csr_row(cd_ptr, cd_idx, cd_val, x, 1, k);
            cap_i[k] = cap_g[k] * (v_new - cap_v[k]) - cap_i[k];
            cap_v[k] = v_new;
        }
        for (k = 0; k < n_ind; k++) {
            ind_v[k] = csr_row(ld_ptr, ld_idx, ld_val, x, 1, k);
            ind_i[k] = x[ind_offset + k];
        }
        for (k = 0; k < n_rec; k++)
            v_out[step * n_rec + k] = x[rec_idx[k]];
        for (k = 0; k < n_cur; k++)
            i_out[step * n_cur + k] = x[cur_idx[k]];
    }
    return 0;
}
"""


class Kernel(NamedTuple):
    """The four loaded entry points of the compiled source."""

    dial: Callable[..., int]
    astar: Callable[..., int]
    fm: Callable[..., int]
    transient: Callable[..., int]


_kernel: Optional[Kernel] = None
_kernel_tried = False


def _build_cache_dir() -> Path:
    """Compiled-object cache directory (inside the repository)."""
    return Path(__file__).resolve().parents[2] / ".build_cache"


def _object_path(compiler: str) -> Path:
    """Cached object for this source built by ``compiler`` with
    :data:`_FLAGS`; all three are hashed into the name."""
    key = "\0".join((_SOURCE, compiler) + _FLAGS)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return _build_cache_dir() / f"kernel_{digest}.so"


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


def _bind(lib: ctypes.CDLL) -> Kernel:
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
    fm = lib.fm_run
    fm.restype = i64
    fm.argtypes = [
        i64, i64,                 # n, m
        ptr, ptr,                 # area, rank
        ptr, ptr, ptr, ptr,       # inst_ptr, inst_nets, pin_ptr, pins
        i32,                      # max_deg
        ctypes.c_double, ctypes.c_double,  # lo, hi
        i64,                      # max_passes
        ptr, ptr, ptr, ptr,       # side, best_side, history, out
    ]
    transient = lib.transient_run
    transient.restype = i64
    transient.argtypes = [
        ptr, ptr, ptr,            # dgetrs, lu, piv
        i64, i64,                 # size, steps
        i64, i64, ptr,            # n_vsrc, vsrc_offset, vsrc_samples
        i64, ptr,                 # n_isrc, isrc_samples
        ptr, ptr, ptr,            # isrc_inc
        i64, ptr, ptr, ptr,       # n_cap, cap_g, cap_v, cap_i
        ptr, ptr, ptr,            # cap_inc
        ptr, ptr, ptr,            # cap_diff
        i64, i64,                 # n_ind, ind_offset
        ptr, ptr, ptr,            # ind_g, ind_i, ind_v
        ptr, ptr, ptr,            # ind_diff
        i64, ptr, ptr,            # n_rec, rec_idx, v_out
        i64, ptr, ptr,            # n_cur, cur_idx, i_out
        ptr, ptr,                 # x, hist
    ]
    return Kernel(dial, astar, fm, transient)


def load_kernel() -> Optional[Kernel]:
    """The compiled entry points (``maze_dial``, ``maze_astar``,
    ``fm_run``, ``transient_run``), or ``None``.

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
        _LOG.warning("compiled kernel unavailable (%s with %s): %s; the "
                     "router falls back to its much slower scalar A*, "
                     "FM to its portable pass and transients to numpy",
                     compiler, " ".join(_FLAGS), reason)
    return _kernel


#: ``PyCapsule_GetName`` and ``PyCapsule_GetPointer`` as private
#: prototypes (setting ``argtypes`` on ``ctypes.pythonapi``'s shared
#: function objects would change them for every other user).
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))

_dgetrs: Optional[int] = None
_dgetrs_tried = False


def lapack_dgetrs() -> Optional[int]:
    """Address of the LAPACK ``dgetrs`` that ``scipy.linalg.lu_solve``
    calls, for ``transient_run``, or ``None``.

    Read once per process from the capsule scipy exports in
    ``scipy.linalg.cython_lapack.__pyx_capi__``.  A capsule that cannot
    be read logs one warning, and transients then step in numpy.
    """
    global _dgetrs, _dgetrs_tried
    if _dgetrs_tried:
        return _dgetrs
    _dgetrs_tried = True
    try:
        from scipy.linalg import cython_lapack
        capsule = cython_lapack.__pyx_capi__["dgetrs"]
        _dgetrs = _capsule_pointer(capsule, _capsule_name(capsule))
        reason = None if _dgetrs else "null pointer"
    except (ImportError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
    if reason is not None:
        _dgetrs = None
        _LOG.warning("scipy's LAPACK dgetrs is unreadable (%s); "
                     "transients step in numpy", reason)
    return _dgetrs


def _reset_for_tests() -> None:
    """Forget the memoized kernel and ``dgetrs`` (so the gates can be
    re-tested)."""
    global _kernel, _kernel_tried, _dgetrs, _dgetrs_tried
    _kernel = None
    _kernel_tried = False
    _dgetrs = None
    _dgetrs_tried = False
