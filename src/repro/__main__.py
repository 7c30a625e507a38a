"""Command-line entry point.

Five modes::

    python -m repro [design] [--scale S] [--seed N] [...]   # run the flow
    python -m repro sweep --space FILE [--jobs N] [--resume] [--server URL]
    python -m repro report --sweep DIR [--out DIR] [--png]
    python -m repro serve [--host H] [--port P] [--workers N]
    python -m repro cache [--gc --max-bytes N]

The first runs the co-design flow for one design point (or all of them)
and prints the paper-style summary tables; the second executes a
declarative design-space sweep (see ``repro.dse`` and
``examples/spaces/``) — a space file carrying a ``fidelity:`` block is
run through the multi-fidelity ladder runner automatically, and
``--server`` targets a running evaluation service instead of local
workers; the third renders a completed sweep's result store into a
Markdown report with SVG figures (``repro.dse.report``); the fourth
runs the asyncio evaluation service (``repro.serve``); the fifth
inspects or garbage-collects the shared result-cache tier.  Design
names accept forgiving aliases (``glass-2.5d``, ``Glass_25D``, ...)
via :func:`repro.tech.get_spec`.

Operational errors — unknown subcommands or designs, malformed serve
and cache arguments — exit with status 2 and a single-line ``error:``
message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time

from .arch.topology import (ARRANGEMENTS, is_default_topology,
                            validate_topology)
from .core.flow import run_designs, run_monolithic
from .core.report import format_table
from .tech.interposer import IntegrationStyle, get_spec, spec_names

#: Subcommand names (everything else is a design name for ``run_main``).
SUBCOMMANDS = ("sweep", "report", "serve", "cache")


def _cli_error(message: str) -> int:
    """Print the one-line operational-error message; returns exit 2."""
    print(f"error: { ' '.join(str(message).split()) }", file=sys.stderr)
    return 2


class _CliParser(argparse.ArgumentParser):
    """Parser whose errors are one-line ``error:`` messages (exit 2),
    matching the sweep/report operational-error convention."""

    def error(self, message):
        print(f"error: {' '.join(str(message).split())}",
              file=sys.stderr)
        raise SystemExit(2)


def _summarize(name: str, result) -> list:
    return [
        name,
        f"{result.placement.width_mm:.2f}x{result.placement.height_mm:.2f}",
        round(result.logic.fmax_mhz, 0),
        round(result.fullchip.total_power_mw, 1),
        round(result.l2m_channel.total_delay_ps, 1),
        (round(result.pdn_impedance.z_at_1ghz_ohm, 2)
         if result.pdn_impedance else "-"),
        (round(result.thermal.peak_c, 1) if result.thermal else "-"),
    ]


def run_main(argv) -> int:
    """The flow-running mode (``python -m repro [design] ...``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Chiplet/interposer co-design flow (glass interposer "
                    "paper reproduction)")
    parser.add_argument("design", nargs="?", default="all",
                        help="design point to run — a name or alias "
                             f"({', '.join(spec_names())}), 'all', or "
                             "'monolithic' (default: all)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="netlist scale; 1.0 = paper size "
                             "(default 0.1)")
    parser.add_argument("--seed", type=int, default=2023,
                        help="determinism seed (default 2023)")
    parser.add_argument("--no-eyes", action="store_true",
                        help="skip eye-diagram simulation")
    parser.add_argument("--no-thermal", action="store_true",
                        help="skip thermal analysis")
    parser.add_argument("--num-chiplets", type=int, default=2,
                        metavar="N",
                        help="parts to split the system netlist into "
                             "(default 2 = the paper's logic/memory "
                             "split)")
    parser.add_argument("--arrangement", default="grid",
                        help="chiplet arrangement: "
                             f"{', '.join(ARRANGEMENTS)} "
                             "(default grid)")
    parser.add_argument("--signoff", action="store_true",
                        help="run the tape-out checklist per design")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for multi-design runs "
                             "(default 1 = serial)")
    parser.add_argument("--profile", action="store_true",
                        help="profile each design's flow with cProfile; "
                             "writes results/profile_<design>.pstats and "
                             "a top-25 cumulative summary (forces serial, "
                             "uncached runs)")
    args = parser.parse_args(argv)

    try:
        num_chiplets, arrangement = validate_topology(
            args.num_chiplets, args.arrangement)
    except ValueError as exc:
        return _cli_error(str(exc))
    default_topology = is_default_topology(num_chiplets, arrangement)

    if args.design == "monolithic":
        if not default_topology:
            return _cli_error("the monolithic baseline has no chiplets; "
                              "--num-chiplets/--arrangement do not apply")
        mono = run_monolithic(scale=args.scale, seed=args.seed)
        print(format_table(
            ["metric", "value"],
            [["footprint (mm)", mono.footprint_mm],
             ["area (mm^2)", mono.area_mm2],
             ["power (mW)", round(mono.total_power_mw, 1)],
             ["Fmax (MHz)", round(mono.fmax_mhz, 0)],
             ["cells", mono.cell_count],
             ["wirelength (m)", round(mono.wirelength_m, 2)]],
            title="2D monolithic baseline"))
        return 0

    if args.design == "all":
        names = spec_names()
    else:
        try:
            names = [get_spec(args.design).name]
        except KeyError:
            return _cli_error(
                f"unknown design or subcommand {args.design!r}; "
                f"designs: "
                f"{', '.join(spec_names() + ['all', 'monolithic'])}; "
                f"subcommands: {', '.join(SUBCOMMANDS)}")
    if not default_topology and arrangement == "stacked":
        # TSV-stack designs collapse any arrangement to their native
        # vertical stack; everything else needs a cavity interposer.
        bad = [n for n in names
               if get_spec(n).style is not IntegrationStyle.TSV_STACK
               and not get_spec(n).supports_embedding]
        if bad:
            return _cli_error(
                f"{', '.join(bad)} cannot embed dies; the stacked "
                f"arrangement needs a cavity interposer")
    print(f"running {', '.join(names)} (scale={args.scale}, "
          f"seed={args.seed}, jobs={args.jobs}"
          f"{', profiled' if args.profile else ''})...", file=sys.stderr)
    if args.profile:
        results = _run_profiled(names, args)
    else:
        results = run_designs(names, scale=args.scale, seed=args.seed,
                              with_eyes=not args.no_eyes,
                              with_thermal=not args.no_thermal,
                              jobs=args.jobs,
                              num_chiplets=num_chiplets,
                              arrangement=arrangement)
    rows = []
    signoffs = {}
    for name in names:
        result = results[name]
        rows.append(_summarize(name, result))
        if args.signoff:
            from .core.signoff import run_signoff
            signoffs[name] = run_signoff(result)
    print(format_table(
        ["design", "interposer (mm)", "logic Fmax", "power (mW)",
         "L2M delay (ps)", "PDN Z (ohm)", "peak T (C)"],
        rows, title="Co-design flow summary"))
    for name, rep in signoffs.items():
        print(f"\n{name} sign-off "
              f"({'READY' if rep.tapeout_ready else 'blocked'}):")
        for check, verdict, detail in rep.summary_rows():
            print(f"  {check:18s} {verdict:4s}  {detail}")
    return 0


def _run_profiled(names, args):
    """Run each design serially and uncached under cProfile.

    Writes ``results/profile_<design>.pstats`` (loadable with
    ``pstats``/snakeviz) and ``results/profile_<design>.txt`` (the
    top-25 functions by cumulative time) per design, so hot-path hunts
    don't need ad-hoc harnesses.
    """
    import cProfile
    import io
    import os
    import pstats

    from .core.flow import run_design

    os.makedirs("results", exist_ok=True)
    results = {}
    for name in names:
        profiler = cProfile.Profile()
        profiler.enable()
        results[name] = run_design(name, scale=args.scale,
                                   seed=args.seed,
                                   with_eyes=not args.no_eyes,
                                   with_thermal=not args.no_thermal,
                                   use_cache=False,
                                   num_chiplets=args.num_chiplets,
                                   arrangement=args.arrangement)
        profiler.disable()
        pstats_path = os.path.join("results", f"profile_{name}.pstats")
        profiler.dump_stats(pstats_path)
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(25)
        txt_path = os.path.join("results", f"profile_{name}.txt")
        with open(txt_path, "w") as fh:
            fh.write(buf.getvalue())
        print(f"profile: {pstats_path} (+ top-25 summary {txt_path})",
              file=sys.stderr)
        _print_solver_table(name, results[name])
    return results


def _print_solver_table(name, result) -> None:
    """Print the per-stage solver-counter breakdown of a profiled run."""
    stats = result.stage_solver_stats
    if not stats:
        return
    counters = ["mna_factorizations", "mna_solves",
                "transient_factorizations", "transient_solves",
                "robust_fallbacks"]
    rows = [[stage] + [per_stage.get(c, 0) for c in counters]
            for stage, per_stage in stats.items()]
    if result.solver_stats:
        rows.append(["total"] + [result.solver_stats.get(c, 0)
                                 for c in counters])
    print(format_table(
        ["stage", "mna fact", "mna solve", "tran fact", "tran solve",
         "fallbacks"],
        rows, title=f"{name}: solver counters per stage"))


def sweep_main(argv) -> int:
    """The design-space sweep mode (``python -m repro sweep ...``).

    A space file carrying a ``fidelity:`` block runs through
    :class:`repro.dse.fidelity.MultiFidelityRunner` (evaluator ladder
    with promotion); otherwise a plain :class:`repro.dse.SweepRunner`
    sweep.  A missing or malformed space file exits with a one-line
    ``error:`` message and status 2 — never a traceback.
    """
    from .dse.analyze import (failures, flat_records, pareto_front,
                              sensitivity_summary)
    from .dse.fidelity import MultiFidelityRunner, load_space
    from .dse.runner import SweepRunner

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a declarative design-space sweep "
                    "(see examples/spaces/ for space files)")
    parser.add_argument("--space", required=True,
                        help="sweep space definition (.yaml/.json); a "
                             "'fidelity:' block enables the "
                             "multi-fidelity ladder runner")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1 = serial)")
    parser.add_argument("--resume", action="store_true",
                        help="keep completed points in the result store "
                             "and compute only the remaining ones")
    parser.add_argument("--out", default=None,
                        help="result-store directory (default: "
                             "results/sweeps/<sweep name>)")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after the store holds N points "
                             "(multi-fidelity: N new evaluations)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the sweep with cProfile; writes "
                             "results/profile_sweep_<name>.pstats and a "
                             "top-25 cumulative summary (best with "
                             "--jobs 1: worker-process time is invisible "
                             "to the parent's profiler)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="evaluate points on a running "
                             "'python -m repro serve' instance at URL "
                             "instead of local workers (plain sweeps "
                             "only)")
    args = parser.parse_args(argv)

    try:
        spec, mf = load_space(args.space)
        if mf is not None:
            mf.validate()
        else:
            spec.validate()
    except Exception as exc:  # noqa: BLE001 — one-line error by design
        # YAML parse errors span lines; collapse to the promised one line.
        reason = " ".join(str(exc).split())
        print(f"error: bad space file {args.space!r}: {reason}",
              file=sys.stderr)
        return 2

    progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    total = len(spec.points())
    profiler = None
    if args.profile:
        import cProfile
        if args.jobs != 1:
            print("note: --profile sees only the parent process; run "
                  "with --jobs 1 for a complete picture", file=sys.stderr)
        profiler = cProfile.Profile()
        profiler.enable()
    if mf is not None and args.server is not None:
        return _cli_error("--server supports plain sweeps only; "
                          f"{args.space!r} carries a fidelity: block")
    if mf is not None:
        ladder = " -> ".join([r.evaluator for r in mf.rungs]
                             + [spec.evaluator])
        print(f"multi-fidelity sweep {spec.name}: {total} points, "
              f"ladder {ladder}, jobs={args.jobs}"
              f"{', resume' if args.resume else ''}", file=sys.stderr)
        runner = MultiFidelityRunner(mf, out_dir=args.out,
                                     jobs=args.jobs, progress=progress)
        t0 = time.perf_counter()
        result = runner.run(resume=args.resume, limit=args.limit)
        elapsed = time.perf_counter() - t0
        records = result.records
        print(f"ladder {'completed' if result.complete else 'STOPPED'} "
              f"in {elapsed:.1f}s", file=sys.stderr)
        for line in result.funnel_lines():
            print(f"  {line}", file=sys.stderr)
        print(f"result store: {runner.out_dir}", file=sys.stderr)
        if not result.complete:
            _dump_sweep_profile(profiler, spec.name)
            return 1
    else:
        runner = SweepRunner(spec, out_dir=args.out, jobs=args.jobs,
                             progress=progress, server_url=args.server)
        where = (f"server={args.server}" if args.server
                 else f"jobs={args.jobs}")
        print(f"sweep {spec.name}: {total} points "
              f"({spec.sampler} over "
              f"{', '.join(a.name for a in spec.axes)}), "
              f"evaluator={spec.evaluator}, {where}"
              f"{', resume' if args.resume else ''}", file=sys.stderr)
        t0 = time.perf_counter()
        try:
            records = runner.run(resume=args.resume, limit=args.limit)
        except (ConnectionError, OSError) as exc:
            if args.server is None:
                raise
            return _cli_error(
                f"cannot reach server {args.server!r}: {exc}")
        elapsed = time.perf_counter() - t0
        print(f"completed {len(records)}/{total} points "
              f"({len(failures(records))} failed) in {elapsed:.1f}s",
              file=sys.stderr)
        print(f"result store: {runner.out_dir}", file=sys.stderr)
    _dump_sweep_profile(profiler, spec.name)

    failed = failures(records)
    for record in failed:
        err = record["error"]
        print(f"  {record['id']} FAILED {err['type']}: {err['message']}",
              file=sys.stderr)

    flat = flat_records(records)
    if not flat:
        print("no successful points", file=sys.stderr)
        return 1

    axis_names = [a.name for a in spec.axes]
    metric_names = [k for k in flat[0]
                    if k not in axis_names and k != "id"
                    and isinstance(flat[0][k], (int, float))]
    if spec.objectives:
        objectives = dict(spec.objectives)
        front = pareto_front(flat, objectives)
        label = ", ".join(f"{m} ({s})" for m, s in spec.objectives)
        cols = axis_names + list(objectives)
        rows = [[_fmt(r.get(c)) for c in cols] for r in front]
        print(format_table(cols, rows,
                           title=f"Pareto front: {label} — "
                                 f"{len(front)}/{len(flat)} points"))

    sens = sensitivity_summary(flat, axis_names, metric_names)
    rows = []
    for axis, per_metric in sens.items():
        for metric, value in per_metric.items():
            if value is not None:
                rows.append([axis, metric, round(value, 3)])
    if rows:
        print(format_table(["axis", "metric", "elasticity"], rows,
                           title="Per-axis sensitivity (endpoint "
                                 "elasticity)"))
    return 0


def _dump_sweep_profile(profiler, sweep_name: str) -> None:
    """Write a finished sweep profile to ``results/`` (no-op when the
    sweep ran unprofiled) — the same artifact pair ``--profile``
    produces for single-design runs."""
    if profiler is None:
        return
    import io
    import os
    import pstats

    profiler.disable()
    os.makedirs("results", exist_ok=True)
    pstats_path = os.path.join("results",
                               f"profile_sweep_{sweep_name}.pstats")
    profiler.dump_stats(pstats_path)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative") \
        .print_stats(25)
    txt_path = os.path.join("results", f"profile_sweep_{sweep_name}.txt")
    with open(txt_path, "w") as fh:
        fh.write(buf.getvalue())
    print(f"profile: {pstats_path} (+ top-25 summary {txt_path})",
          file=sys.stderr)


def _fmt(value):
    if isinstance(value, float):
        return round(value, 3)
    return value


def report_main(argv) -> int:
    """The sweep-report mode (``python -m repro report ...``).

    Renders a completed sweep result store — plain or multi-fidelity —
    into ``report.md`` + deterministic SVG figures + ``report.json``
    (see :mod:`repro.dse.report`).
    """
    from .dse.report import generate_report

    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Render a completed sweep directory into a "
                    "Markdown report with figures")
    parser.add_argument("--sweep", required=True,
                        help="sweep result-store directory "
                             "(e.g. results/sweeps/<name>)")
    parser.add_argument("--out", default=None,
                        help="report output directory "
                             "(default: <sweep>/report)")
    parser.add_argument("--png", action="store_true",
                        help="also write PNG figure companions "
                             "(requires matplotlib; skipped with a "
                             "notice when it is not installed)")
    args = parser.parse_args(argv)

    try:
        result = generate_report(args.sweep, out_dir=args.out,
                                 png=args.png)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot report on {args.sweep!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"report: {result.report_path}", file=sys.stderr)
    for path in result.figures:
        print(f"  figure: {path}", file=sys.stderr)
    print(f"  summary: {result.summary_path}", file=sys.stderr)
    for notice in result.notices:
        print(f"  note: {notice}", file=sys.stderr)
    return 0


def serve_main(argv) -> int:
    """The evaluation-service mode (``python -m repro serve ...``).

    Runs the asyncio HTTP/JSON server (:mod:`repro.serve`) until a
    SIGTERM/SIGINT drains it gracefully.  The bound URL is announced
    on stderr (``--port 0`` binds an ephemeral port).  Malformed
    arguments and bind failures exit 2 with a one-line ``error:``.
    """
    import asyncio

    from .serve.server import ServerConfig, run_server

    parser = _CliParser(
        prog="python -m repro serve",
        description="Run the flow-evaluation service: an asyncio "
                    "HTTP/JSON server scheduling flow tasks onto the "
                    "persistent warm process pool, with cross-client "
                    "request dedupe and a content-addressed shared "
                    "result cache")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port; 0 picks an ephemeral port "
                             "(default 8321)")
    parser.add_argument("--workers", type=int, default=2,
                        help="scheduler/pool worker count (default 2)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-store directory (default: "
                             "REPRO_FLOW_CACHE, else results/.flow_cache)")
    args = parser.parse_args(argv)
    if not 0 <= args.port <= 65535:
        parser.error(f"port must be in [0, 65535], got {args.port}")
    if args.workers < 1:
        parser.error(f"workers must be >= 1, got {args.workers}")

    from pathlib import Path
    config = ServerConfig(
        host=args.host, port=args.port, workers=args.workers,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None)
    announce = lambda line: print(line, file=sys.stderr)  # noqa: E731
    try:
        asyncio.run(run_server(config, announce=announce))
    except OSError as exc:
        return _cli_error(f"cannot bind {args.host}:{args.port}: {exc}")
    except KeyboardInterrupt:
        pass  # platforms without add_signal_handler support
    return 0


def cache_main(argv) -> int:
    """The cache-maintenance mode (``python -m repro cache ...``).

    Prints the result store's statistics (entries, bytes, lifetime
    hit/miss counters); ``--gc --max-bytes N`` LRU-evicts entries down
    to the byte budget first.  Malformed arguments exit 2 with a
    one-line ``error:``.
    """
    from pathlib import Path

    from .core.store import ContentStore, flow_cache_dir

    parser = _CliParser(
        prog="python -m repro cache",
        description="Inspect or garbage-collect the content-addressed "
                    "result store")
    parser.add_argument("--dir", default=None,
                        help="store directory (default: REPRO_FLOW_CACHE, "
                             "else results/.flow_cache)")
    parser.add_argument("--gc", action="store_true",
                        help="LRU-evict entries until the store fits "
                             "--max-bytes")
    parser.add_argument("--max-bytes", type=int, default=None,
                        metavar="N", help="byte budget for --gc")
    args = parser.parse_args(argv)
    if args.gc and args.max_bytes is None:
        parser.error("--gc requires --max-bytes N")
    if args.max_bytes is not None and not args.gc:
        parser.error("--max-bytes only applies with --gc")
    if args.max_bytes is not None and args.max_bytes < 0:
        parser.error(f"--max-bytes must be >= 0, got {args.max_bytes}")

    root = Path(args.dir) if args.dir else flow_cache_dir()
    if root is None:
        return _cli_error("flow cache is disabled "
                          "(REPRO_FLOW_CACHE=0); nothing to inspect")
    store = ContentStore(root)
    if args.gc:
        removed, freed = store.gc(args.max_bytes)
        print(f"gc: removed {removed} entries, freed {freed} bytes",
              file=sys.stderr)
    stats = store.stats()
    rate = stats.hit_rate
    print(format_table(
        ["field", "value"],
        [["directory", str(stats.root)],
         ["entries", stats.entries],
         ["bytes", stats.total_bytes],
         ["hits", stats.hits],
         ["misses", stats.misses],
         ["hit rate", "-" if rate is None else round(rate, 3)]],
        title="Shared result cache"))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "cache":
        return cache_main(argv[1:])
    return run_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
