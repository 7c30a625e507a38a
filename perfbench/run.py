"""Benchmark of the glass-interposer reproduction, end to end and per layer.

Runs one named workload at one seed, checks its outputs, appends one row
to ``perfbench/history.jsonl`` and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the run installs span wrappers
at every layer boundary and reports the per-layer metrics instead.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``paper_flow`` -- ``run_designs`` over the six paper designs, eyes and
  thermal on, ``jobs=1``, every round cold in a fresh process.
* ``nchiplet_flow`` -- the 9-die hexagonal ``glass_25d`` flow at scale
  0.02, cold, in a fresh process.
* ``serve_mix`` -- committed DSE sweep spaces sent through
  ``SweepRunner(server_url=...)`` to ``python -m repro serve --workers
  1`` on a fresh store, once cold and once warm.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_flow --seed 2023 \
        --seconds 10 --trace 0

``--seconds`` is the least time a run measures: a flow round or a
``serve_mix`` cycle is never cut short.

Times are taken at the host's nominal speed (see ``speed.py``): the run
pins itself and every process it starts to one CPU, a probe on that CPU
times a fixed reference loop beside the work, and each time is divided
by how much slower than nominal the probe ran over that time's window.
``ref_cpu_s`` is the CPU time of the timed work, summed over the
processes that do it, so divided; ``setup_s`` is the set-up wall time,
so divided.  The raw figures (``cpu_s``, ``wall_s``, ``setup_wall_s``,
``host_slowdown``) are kept in each history row.  Every process of a run
computes on one thread (``*_NUM_THREADS=1``): the flows run with
``jobs=1``, and the CPU time then counts the program's work rather than
numerical-library threads waiting for it.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY = HERE / "history.jsonl"
OUT = HERE / "out"

WORKLOADS = ("paper_flow", "nchiplet_flow", "serve_mix")
DEFAULT_SEEDS = {"paper_flow": 2023, "nchiplet_flow": 7, "serve_mix": 7}

#: Netlist scale of ``paper_flow``.  Scale 1.0 is the paper's size; a
#: cold round there takes 80-95 s on a 2-core host, too long for the
#: number of runs one benchmark pass makes, so the default is 0.2
#: (40-60 s).  The interposer router, the largest share of the work,
#: does not depend on the scale.
PAPER_SCALE = 0.2
NCHIP_SCALE = 0.02
#: Set-ups measured per flow run (the round's own plus workers that only
#: import and load the maze kernel); ``setup_s`` is their median.
SETUP_SAMPLES = 2
#: Hard limit on one flow worker at the default scale, so that a run
#: which hangs still ends within three minutes.  It grows in proportion
#: to ``--scale`` above the default: a round's time grows more slowly
#: than the scale, so a traced paper-size round keeps about 4x headroom.
WORKER_TIMEOUT_S = 170.0
#: Thread-count settings of the numerical libraries, applied to this
#: process and every process it starts.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["REPRO_FLOW_CACHE"] = "0"
    return env


def _flow_worker(args, run_dir: Path, tag: str,
                 setup_only: bool = False,
                 trace_dir: Optional[Path] = None,
                 run_id: str = "") -> Dict[str, object]:
    """Run one ``flowwork.py`` process; returns its record plus
    ``setup``: the seconds from spawn until ready to run, and that
    window."""
    out = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "flowwork.py"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--scale", repr(args.scale), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir), "--run-id", run_id]
    default = PAPER_SCALE if args.workload == "paper_flow" else NCHIP_SCALE
    timeout = WORKER_TIMEOUT_S * max(1.0, args.scale / default)
    spawned = time.monotonic()
    # Child output goes to stderr: the result line must end stdout.
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=2,
                          timeout=timeout)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"flow worker exited with {proc.returncode}")
    record = json.loads(out.read_text())
    record["setup"] = (record["ready"] - spawned, [spawned, record["ready"]])
    return record


def run_flow(args, run_dir: Path, trace_dir: Optional[Path],
             run_id: str) -> Dict[str, object]:
    """Cold rounds of a flow workload until ``--seconds`` have passed
    (at least one; a traced run makes exactly one)."""
    rounds = []
    start = time.monotonic()
    while not rounds or (trace_dir is None
                         and time.monotonic() - start < args.seconds):
        rounds.append(_flow_worker(args, run_dir,
                                   f"round{len(rounds)}",
                                   trace_dir=trace_dir, run_id=run_id))
    setups = [r["setup"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_flow_worker(args, run_dir, f"setup{len(setups)}",
                                   setup_only=True)["setup"])
    points = [p for r in rounds for p in r["points"]]
    problems = [p for r in rounds for p in r["problems"]]
    if not all(r["kernel"] for r in rounds):
        print("warning: the compiled maze kernel is unavailable; routing "
              "ran on a fallback engine", file=sys.stderr)
    latencies = [1000.0 * p["wall_s"] for p in points]
    e2e = {
        "wall_s": checks.median([r["wall_s"] for r in rounds]),
        "peak_rss_mb": checks.median([r["peak_rss_mb"] for r in rounds]),
        # Every design point of a cold flow misses every cache.
        "miss_latency_p50_ms": checks.percentile(latencies, 50),
    }
    layer = {"latency_p50_ms": checks.percentile(latencies, 50),
             "latency_p95_ms": checks.percentile(latencies, 95),
             "miss_latency_p50_ms": e2e["miss_latency_p50_ms"]}
    for record in rounds:
        for key, value in record["counters"].items():
            layer[key] = layer.get(key, 0) + value
    extra = {"rounds": len(rounds)}
    if args.workload == "paper_flow":
        extra["paper_err_pct"] = layer["paper_err_pct"] = (
            rounds[0]["paper_err_pct"])
    return {"e2e": e2e, "layer": layer, "attempted": len(points),
            "failed": len(points) if problems else 0,
            "problems": problems, "rounds": rounds, "extra": extra,
            "setups": setups,
            "works": [(r["cpu_s"], r["window"]) for r in rounds]}


def normalized_times(outcome: Dict[str, object],
                     samples: List[Tuple[float, float]]) -> Dict[str, float]:
    """The run's times, raw and at the host's nominal speed.

    ``outcome["setups"]`` holds ``(set-up wall seconds, window)`` per
    set-up and ``outcome["works"]`` ``(CPU seconds, window)`` per timed
    unit (a flow round, a ``serve_mix`` cycle); each is divided by the
    host's slowdown over its own window.
    """
    setup_slow = [speed.slowdown(samples, *w) for _s, w in outcome["setups"]]
    work_slow = [speed.slowdown(samples, *w) for _c, w in outcome["works"]]
    setups = [s for s, _w in outcome["setups"]]
    cpus = [c for c, _w in outcome["works"]]
    return {
        "setup_s": checks.median([s / f for s, f in zip(setups, setup_slow)]),
        "ref_cpu_s": checks.median([c / f for c, f in zip(cpus, work_slow)]),
        "setup_wall_s": checks.median(setups),
        "cpu_s": checks.median(cpus),
        "host_slowdown": checks.median(work_slow),
    }


def _code_hash() -> str:
    """Content hash of the package source and of this benchmark (the
    checkout may not be a git repository)."""
    digest = hashlib.sha1()
    for top in (ROOT / "src" / "repro", HERE):
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _untraced_median(workload: str, metric: str, code: str,
                     settings: Dict[str, object]) -> Optional[float]:
    """Median of ``metric`` over the untraced history rows of this code
    and these settings, or ``None`` when there are none."""
    if not HISTORY.exists():
        return None
    values = []
    for line in HISTORY.read_text().splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if (row.get("workload") == workload and row.get("trace") == 0
                and row.get("code") == code and row.get("correct")
                and row.get("settings") == settings
                and metric in row.get("metrics", {})):
            values.append(row["metrics"][metric])
    return checks.median(values) if values else None


def _durations_ms(records, **match) -> List[float]:
    """Durations (ms) of the span records whose attributes match."""
    return [1000.0 * (r["end"] - r["start"]) for r in records
            if all(r.get(k) == v for k, v in match.items())]


def layer_metrics(args, outcome: Dict[str, object], trace_dir: Path,
                  code: str, settings: Dict[str, object],
                  names: List[str]) -> Dict[str, float]:
    """Every per-layer metric of the traced run (0 where the workload
    does not exercise the layer)."""
    import spans

    values: Dict[str, float] = {name: 0 for name in names}
    records = spans.load_spans(sorted(trace_dir.glob("spans-*.jsonl")))
    for name, entry in spans.summarize(records).items():
        for key in ("calls", "self_s", "busy_s"):
            if f"{name}.{key}" in values:
                values[f"{name}.{key}"] = entry[key]
    values.update(outcome["layer"])
    # Solver and router work of served evaluations, recorded per
    # pool-worker call.
    for r in records:
        if r["name"] == "serve.execute":
            for key, value in r["counters"].items():
                values[key] = values.get(key, 0) + value
    values["interposer.maze_scalar_share"] = (
        values["interposer.maze_scalar.calls"]
        / values["interposer.maze_calls"]
        if values["interposer.maze_calls"] else 0.0)
    parts = [r for r in records if r["name"] == "partition.nway"]
    if parts:
        values["cut_nets"] = checks.median([r["cut_nets"] for r in parts])
        values["part_imbalance"] = checks.median(
            [r["imbalance"] for r in parts])
    gets = [r for r in records if r["name"] == "store.get" and r["hit"]]
    values["store.get_flow_p50_ms"] = checks.median(
        _durations_ms(gets, kind="flow"))
    values["store.get_small_p50_ms"] = checks.median(
        [1000.0 * (r["end"] - r["start"]) for r in gets
         if r["kind"] != "flow"])
    values["store.put_bytes"] = sum(r["bytes"] for r in records
                                    if r["name"] == "store.put")
    results = [r for r in records if r["name"] == "serve.result"]
    if results:
        submits = [r for r in records if r["name"] == "serve.submit"]
        values["serve.submit_hit_p50_ms"] = checks.median(
            _durations_ms(submits, cached=True))
        values["serve.submit_miss_p50_ms"] = checks.median(
            _durations_ms(submits, cached=False))
        values["serve.result_flow_hit_p50_ms"] = checks.median(
            _durations_ms(results, kind="flow", cached=True))
        # One HTTP round trip per submit and job poll, plus the GET of
        # each result.
        polls = sum(1 for r in records if r["name"] == "serve.job")
        values["serve.http_per_request"] = (
            (len(submits) + polls + len(results)) / len(results))
        evals = [r for r in results
                 if r["kind"] == "link_pdn" and not r["cached"]]
        values["serve.eval_link_pdn_p50_ms"] = checks.median(
            [1000.0 * r["eval_s"] for r in evals])
        values["serve.overhead_p50_ms"] = checks.median(
            [1000.0 * (r["end"] - r["start"] - r["eval_s"])
             for r in evals])
    values["failed_ratio"] = outcome["failed"] / max(1, outcome["attempted"])
    values["trace.wall_s"] = outcome["e2e"]["wall_s"]
    values["trace.cpu_s"] = outcome["e2e"]["cpu_s"]
    values["host.slowdown"] = outcome["e2e"]["host_slowdown"]
    base = _untraced_median(args.workload, "ref_cpu_s", code, settings)
    if base:
        values["trace.overhead_pct"] = (
            100.0 * (outcome["e2e"]["ref_cpu_s"] - base) / base)
    else:
        print(f"note: no untraced {args.workload} run of this code in "
              f"{HISTORY.name}; trace.overhead_pct reads 0",
              file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (netlist seed for the flows, "
                             "trace seed for serve_mix)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="least time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help=f"flow netlist scale (default {PAPER_SCALE} "
                             f"for paper_flow, {NCHIP_SCALE} for "
                             f"nchiplet_flow; 1.0 is paper size)")
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.scale is None:
        args.scale = (PAPER_SCALE if args.workload == "paper_flow"
                      else NCHIP_SCALE)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Before anything loads numpy (serve_mix evaluates its sample here).
    os.environ.update(ONE_THREAD)
    speed.pin()

    run_id = (f"{args.workload}-s{args.seed}-t{args.trace}-"
              f"{os.getpid()}-{int(time.time())}")
    run_dir = OUT / run_id
    run_dir.mkdir(parents=True)
    trace_dir = None
    if args.trace:
        trace_dir = run_dir / "spans"
        trace_dir.mkdir()
    speed_probe = speed.Probe(run_dir / "speed.txt")
    try:
        try:
            if args.workload == "serve_mix":
                import serveload
                outcome = serveload.run_serve(args, run_dir, trace_dir,
                                              run_id, _env())
            else:
                outcome = run_flow(args, run_dir, trace_dir, run_id)
        finally:
            samples = speed_probe.stop()
        outcome["e2e"].update(normalized_times(outcome, samples))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    code = _code_hash()
    settings = {"seconds": args.seconds, "scale": args.scale}
    units = _units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = layer_metrics(args, outcome, trace_dir, code, settings,
                                list(units))
    else:
        metrics = dict(outcome["e2e"])
    correct = not outcome["problems"]
    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    row = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": _commit(), "code": code, "run_id": run_id,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "settings": settings, "correct": correct,
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics, "extra": outcome["extra"],
    }
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def _units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


if __name__ == "__main__":
    raise SystemExit(main())
