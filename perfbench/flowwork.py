"""One cold round of a flow workload, run in a fresh process.

``run.py`` starts this script once per round so every round begins with
empty in-process memos, no result cache and no disk cache.  The script
imports the flow and loads the maze kernel (set-up), optionally installs
the tracing wrappers, runs the round, checks its outputs and writes one
JSON record to ``--out``.  With ``--setup-only`` it stops after set-up.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/flowwork.py --workload paper_flow --seed 2023 \
        --scale 0.2 --out round.json [--trace-dir DIR --run-id ID]
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parents[1]


def _solver_counters(results) -> dict:
    """Sum of each result's ``solver_stats`` (the flow resets the
    counters at the start of every design point)."""
    out = {}
    for r in results:
        for key, value in (r.solver_stats or {}).items():
            out[f"circuit.{key}"] = out.get(f"circuit.{key}", 0) + value
    return out


def _cpu_s() -> float:
    """CPU seconds (user + system, every thread) this process and its
    waited-for children have used so far."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _flush(tracer, trace_dir) -> None:
    """Write the timed work's spans (checks that follow are not timed)."""
    if tracer is not None:
        tracer.flush(str(Path(trace_dir) / "spans-flow.jsonl"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_flow", "nchiplet_flow"))
    parser.add_argument("--seed", type=int, required=True,
                        help="netlist seed")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    from repro.core import flow
    from repro.interposer import _mazekernel
    # Load (or on a fresh checkout compile) the maze kernel here, in
    # set-up, rather than lazily inside the first timed route.
    kernel = _mazekernel.load_kernel() is not None
    tracer = None
    if args.trace_dir:
        import spans
        tracer = spans.Tracer(args.run_id)
        spans.install(tracer, layers.FLOW_BOUNDARIES)
    ready = time.monotonic()
    record = {"ready": ready, "kernel": kernel}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(record))
        return 0

    import checks
    start = time.perf_counter()
    window = [time.monotonic()]
    cpu_start = _cpu_s()
    if args.workload == "paper_flow":
        results = flow.run_designs(checks.DESIGNS, scale=args.scale,
                                   seed=args.seed, with_eyes=True,
                                   with_thermal=True, jobs=1,
                                   use_cache=False)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu_start
        window.append(time.monotonic())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _flush(tracer, args.trace_dir)
        rows = checks.paper_rows(results)
        problems = checks.check_paper(rows, results, args.scale, args.seed)
        ordered = [results[n] for n in checks.DESIGNS]
        points = [{"design": n, "wall_s": results[n].stage_times["total"]}
                  for n in checks.DESIGNS]
        record["paper_err_pct"] = checks.paper_err_pct(rows, ROOT)
        record["rows"] = rows
    else:
        from repro.arch.generate import generate_monolithic_netlist
        result = flow.run_design(
            "glass_25d", scale=args.scale, seed=args.seed, num_chiplets=9,
            arrangement="hexagonal", with_eyes=True, with_thermal=True,
            use_cache=False)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu_start
        window.append(time.monotonic())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _flush(tracer, args.trace_dir)
        ordered = [result]
        points = [{"design": "glass_25d-n9-hexagonal", "wall_s": wall}]
        system = generate_monolithic_netlist(scale=args.scale,
                                             seed=args.seed)
        problems = checks.check_nchiplet(result, system, 9)
    record.update({
        "wall_s": wall,
        "cpu_s": cpu,
        "window": window,
        "points": points,
        "problems": problems,
        "peak_rss_mb": rss_mb,
        "counters": {**layers.router_counters(ordered),
                     **_solver_counters(ordered)},
    })
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
