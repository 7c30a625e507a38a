"""Quick performance smoke checks (``pytest -m perf_smoke benchmarks/perf``).

Three jobs:

* Run one small-scale design point end to end and dump its per-stage
  wall times (plus the router's phase stats and the circuit-solver
  counters) to ``results/BENCH_flow.json`` so stage-level regressions
  show up in review diffs.
* Gate the interposer routing stage (``flow_routing_s``), its maze
  phase (``flow_maze_s``), and the eye stage (``flow_eyes_s``) against
  the recorded baselines (fail past ``REGRESSION_FACTOR``).
* Gate the flow's LU factorization count (``flow_mna_factorizations``)
  and DC/AC solve count (``flow_mna_solves``) — *counts*, not times, so
  any change that silently drops the AC engine off its block-factorized
  path or the eye engine off its superposition path fails
  deterministically on every machine.
* Time the transient engine on a fixed PDN-style circuit and fail if it
  runs more than ``REGRESSION_FACTOR`` slower than the recorded baseline
  in ``baseline.json``.  Re-record with ``REPRO_PERF_REBASE=1`` after an
  intentional change (or on a machine much slower than the one that
  recorded it).
"""

import json
import os
import time

import pytest

from repro.circuit.ac import driving_point_impedance, log_frequencies
from repro.circuit.elements import Circuit
from repro.circuit.mna import reset_solver_counters, solver_counters
from repro.circuit.transient import simulate
from repro.circuit.waveforms import dc, pulse
from repro.core.flow import run_design

pytestmark = pytest.mark.perf_smoke

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baseline.json")
RESULTS_DIR = os.path.join(HERE, os.pardir, os.pardir, "results")

#: Fail when simulate() is more than this factor slower than baseline.
REGRESSION_FACTOR = 2.0

#: Timing repetitions; the minimum is reported (least-noise estimator).
REPS = 3


def _pdn_ladder(sections: int = 40) -> Circuit:
    """A PDN-style RLC ladder with a switching load — the shape of
    circuit the flow's PI and SI stages feed to ``simulate``."""
    ckt = Circuit()
    ckt.add_vsource("VRM", "n0", "0", dc(0.9))
    for i in range(sections):
        a, b = f"n{i}", f"n{i + 1}"
        ckt.add_resistor(f"R{i}", a, b, 0.01)
        ckt.add_inductor(f"L{i}", a, b + "_x", 1e-11)
        ckt.add_resistor(f"Rl{i}", b + "_x", b, 0.001)
        ckt.add_capacitor(f"C{i}", b, "0", 1e-9)
    ckt.add_isource("Iload", f"n{sections}", "0",
                    pulse(0.0, 1.0, 1e-9, 2e-10, 2e-10, 5e-9, 2e-8))
    return ckt


def _time_simulate() -> float:
    ckt = _pdn_ladder()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        simulate(ckt, 1e-7, 5e-11, record=["n40"])
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def flow_run():
    """One small design end to end, shared by the flow-level checks."""
    from repro.si.channel import _CHANNEL_SIM_CACHE, _PADS_REF_CACHE
    # Cold channel memos so the solver counts are deterministic
    # regardless of what ran earlier in this process.
    _CHANNEL_SIM_CACHE.clear()
    _PADS_REF_CACHE.clear()
    t0 = time.perf_counter()
    result = run_design("glass_25d", scale=0.02, seed=7, use_cache=False)
    wall = time.perf_counter() - t0
    return result, wall


def _read_rebase_baseline():
    baseline = {}
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
    return baseline


def test_flow_stage_times_recorded(flow_run):
    """Per-stage times (and router stats) go to results/."""
    result, wall = flow_run
    assert result.stage_times is not None
    os.makedirs(RESULTS_DIR, exist_ok=True)
    updates = {
        "design": "glass_25d",
        "scale": 0.02,
        "seed": 7,
        "wall_s": round(wall, 3),
        "stage_times_s": {k: round(v, 3)
                          for k, v in result.stage_times.items()},
    }
    if result.route is not None and result.route.stats is not None:
        updates["router_stats"] = result.route.stats.as_dict()
    if result.solver_stats is not None:
        updates["solver_stats"] = result.solver_stats
    bench_path = os.path.join(RESULTS_DIR, "BENCH_flow.json")
    payload = {}
    if os.path.exists(bench_path):
        with open(bench_path) as fh:
            payload = json.load(fh)
    payload.update(updates)
    with open(bench_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    # Sanity: the whole-stage breakdown accounts for most of the wall
    # time.  "stage/phase" sub-keys are drill-downs inside a stage, not
    # extra stages, so they stay out of the sum.
    accounted = sum(v for k, v in result.stage_times.items()
                    if k != "total" and "/" not in k)
    assert accounted <= result.stage_times["total"] * 1.05


def test_routing_not_regressed(flow_run):
    """Interposer routing must stay within 2x of the recorded baseline."""
    result, _ = flow_run
    elapsed = result.stage_times["routing"]
    if os.environ.get("REPRO_PERF_REBASE") == "1" \
            or "flow_routing_s" not in _read_rebase_baseline():
        baseline = _read_rebase_baseline()
        baseline["flow_routing_s"] = round(elapsed, 4)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        pytest.skip(f"baseline recorded: {elapsed:.4f}s")
    baseline = _read_rebase_baseline()["flow_routing_s"]
    assert elapsed <= baseline * REGRESSION_FACTOR, (
        f"routing stage took {elapsed:.4f}s vs baseline {baseline:.4f}s "
        f"(>{REGRESSION_FACTOR}x regression)")


def _gate_or_rebase(key, value, digits=4):
    """Record ``value`` under ``key`` (rebase mode or first run), else
    return the recorded baseline.  Merge-not-overwrite: only ``key`` is
    updated, every other baseline survives."""
    baseline = _read_rebase_baseline()
    if os.environ.get("REPRO_PERF_REBASE") == "1" or key not in baseline:
        baseline[key] = round(value, digits)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        pytest.skip(f"baseline recorded: {key}={baseline[key]}")
    return baseline[key]


def test_maze_phase_not_regressed(flow_run):
    """The maze phase — this PR's headline speedup — gets its own gate
    so a regression inside RRR cannot hide behind pattern routing."""
    result, _ = flow_run
    elapsed = result.stage_times["routing/maze"]
    baseline = _gate_or_rebase("flow_maze_s", elapsed)
    assert elapsed <= baseline * REGRESSION_FACTOR, (
        f"maze phase took {elapsed:.4f}s vs baseline {baseline:.4f}s "
        f"(>{REGRESSION_FACTOR}x regression)")


def test_eye_stage_not_regressed(flow_run):
    """The eye stage — this PR's headline speedup — gets its own time
    gate so a regression there cannot hide inside total wall time."""
    result, _ = flow_run
    elapsed = result.stage_times["eyes"]
    baseline = _gate_or_rebase("flow_eyes_s", elapsed)
    assert elapsed <= baseline * REGRESSION_FACTOR, (
        f"eye stage took {elapsed:.4f}s vs baseline {baseline:.4f}s "
        f"(>{REGRESSION_FACTOR}x regression)")


def test_mna_solve_count_gated(flow_run):
    """DC/AC back-substitutions are a deterministic *count*: any change
    that knocks the eye engine off its superposition path (or the AC
    engine off its multi-RHS path) shows up as a solve-count explosion
    on every machine, independent of clock speed."""
    result, _ = flow_run
    assert result.solver_stats is not None
    count = result.solver_stats["mna_solves"]
    baseline = _gate_or_rebase("flow_mna_solves", count, digits=0)
    assert count <= baseline, (
        f"flow performed {count} DC/AC solves vs the recorded "
        f"{baseline} — a vectorized solve path lost coverage")


def test_mna_factorization_count_gated(flow_run):
    """LU factorizations are a deterministic *count*: any change that
    knocks the AC engine off its one-LU-per-sweep block path fails here
    on every machine, independent of clock speed."""
    result, _ = flow_run
    assert result.solver_stats is not None
    count = result.solver_stats["mna_factorizations"]
    baseline = _gate_or_rebase("flow_mna_factorizations", count, digits=0)
    assert count <= baseline, (
        f"flow performed {count} LU factorizations vs the recorded "
        f"{baseline} — the block-solve path lost coverage")
    assert result.solver_stats["robust_fallbacks"] == 0, (
        "the smoke flow hit singular MNA systems — a modelling "
        "regression, not a perf one")


def test_ac_sweep_is_block_factored():
    """A 48-point impedance sweep must cost <= 2 LU factorizations for
    its single topology (1 block LU; 2 leaves headroom for a DC
    companion), never one per point."""
    ckt = Circuit("ac48")
    ckt.add_vsource("V1", "in", "0", dc(1.0))
    ckt.add_resistor("R1", "in", "mid", 1.0)
    ckt.add_inductor("L1", "mid", "out", 1e-10)
    ckt.add_capacitor("C1", "out", "0", 1e-9)
    ckt.add_resistor("R2", "out", "0", 50.0)
    freqs = log_frequencies(1e6, 1e9, 16)[:48]
    assert len(freqs) == 48
    reset_solver_counters()
    driving_point_impedance(ckt, "out", freqs)
    counters = solver_counters()
    assert counters["mna_factorizations"] <= 2
    assert counters["mna_solves"] >= 48


def test_simulate_not_regressed():
    """Transient engine must stay within 2x of the recorded baseline."""
    elapsed = _time_simulate()
    if os.environ.get("REPRO_PERF_REBASE") == "1" \
            or not os.path.exists(BASELINE_PATH):
        baseline = {}
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH) as fh:
                baseline = json.load(fh)
        baseline["simulate_pdn_ladder_s"] = round(elapsed, 4)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        pytest.skip(f"baseline recorded: {elapsed:.4f}s")
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)["simulate_pdn_ladder_s"]
    assert elapsed <= baseline * REGRESSION_FACTOR, (
        f"simulate() took {elapsed:.4f}s vs baseline {baseline:.4f}s "
        f"(>{REGRESSION_FACTOR}x regression)")


def test_nchiplet_flow_not_regressed():
    """The 9-chiplet hexagonal flow point — the N-chiplet path's
    end-to-end cost (partition, 9 chiplet builds, hex placement, pin
    routing, PDN/SI/thermal) — gated at 2x like the other stages and
    recorded in results/BENCH_flow.json next to the 2-chiplet point."""
    t0 = time.perf_counter()
    result = run_design("glass_25d", scale=0.02, seed=7,
                        num_chiplets=9, arrangement="hexagonal",
                        use_cache=False)
    elapsed = time.perf_counter() - t0
    assert result.chiplets is not None and len(result.chiplets) == 9

    os.makedirs(RESULTS_DIR, exist_ok=True)
    bench_path = os.path.join(RESULTS_DIR, "BENCH_flow.json")
    payload = {}
    if os.path.exists(bench_path):
        with open(bench_path) as fh:
            payload = json.load(fh)
    payload["nchiplet"] = {
        "design": "glass_25d",
        "scale": 0.02,
        "seed": 7,
        "num_chiplets": 9,
        "arrangement": "hexagonal",
        "wall_s": round(elapsed, 3),
        "stage_times_s": {k: round(v, 3)
                          for k, v in (result.stage_times or {}).items()},
    }
    with open(bench_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    baseline = _gate_or_rebase("flow_nchiplet_s", elapsed)
    assert elapsed <= baseline * REGRESSION_FACTOR, (
        f"9-chiplet hex flow took {elapsed:.4f}s vs baseline "
        f"{baseline:.4f}s (>{REGRESSION_FACTOR}x regression)")
