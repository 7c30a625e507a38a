"""``serve_mix``: committed sweep spaces replayed through the server.

This is the traffic the repository's own serve client sends:
``SweepRunner(server_url=...)`` (``python -m repro sweep --server``)
submits every point of a sweep up front, then collects the results in
point order.  One cycle spawns ``python -m repro serve --workers 1`` on
a fresh store and runs two committed sweep spaces through it, first
cold (every point evaluates on the pool and is written to the store),
then warm (every point is a stored hit):

* ``examples/spaces/glass_stackup_lhs.yaml``: 16 LHS ``link_pdn``
  points (small records; their misses are ``circuit``/``si``/``pi``
  work);
* the DSE smoke sweep of ``benchmarks/perf/test_dse_smoke.py``: six
  scale-0.02 ``glass_3d`` flow points (stored flow results of a few MB).

The workload seed replaces both spaces' ``seed`` (the LHS sampling seed
and the flow's netlist seed), so the default seed 7 replays the
committed spaces as they are.  Cycles repeat until ``--seconds`` have
passed, at least :data:`MIN_CYCLES` times.  A cycle's CPU time is that
of both passes in every process that does their work: this one (the
sweep runner's client), the server and its pool worker.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import pickle
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Server set-ups per run; ``setup_s`` is their median.
MIN_CYCLES = 2
SERVER_START_TIMEOUT_S = 60.0
LHS_SPACE = ROOT / "examples" / "spaces" / "glass_stackup_lhs.yaml"
SMOKE_MODULE = ROOT / "benchmarks" / "perf" / "test_dse_smoke.py"


def sweep_specs(seed: int):
    """The two committed sweep spaces, with ``seed`` as their seed."""
    from repro.dse.space import SweepSpec
    loader = importlib.util.spec_from_file_location("test_dse_smoke",
                                                    SMOKE_MODULE)
    smoke = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(smoke)
    return [dataclasses.replace(spec, seed=seed)
            for spec in (SweepSpec.from_file(LHS_SPACE), smoke.SMOKE)]


def _start_server(store: Path, env: Dict[str, str],
                  trace_dir: Optional[Path], run_id: str):
    """Spawn the server; returns (process, url, stderr pump thread)."""
    serve_args = ["serve", "--port", "0", "--workers", "1",
                  "--cache-dir", str(store)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro"] + serve_args
    else:
        cmd = [sys.executable, str(HERE / "servelaunch.py"),
               "--trace-dir", str(trace_dir), "--run-id", run_id,
               "--"] + serve_args
    # Child output goes to stderr: the result line must end stdout.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(env,
                            REPRO_FLOW_CACHE=str(store)),
                            stdout=2, stderr=subprocess.PIPE,
                            text=True)
    found: List[str] = []

    def pump():
        for line in proc.stderr:
            if not found and line.startswith("http://"):
                found.append(line.strip())
            else:
                sys.stderr.write(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while not found:
        if proc.poll() is not None or time.monotonic() > deadline:
            _stop_server(proc, thread)
            raise RuntimeError("the server did not announce its URL")
        time.sleep(0.005)
    return proc, found[0], thread


def _stop_server(proc, thread) -> None:
    """SIGTERM (graceful drain), then kill if it hangs; always waits."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    thread.join(timeout=5)


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (field 3
    onwards), or ``None`` if the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _tree_pids(pid: int) -> List[int]:
    """A process and its live children."""
    pids = [pid]
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None and int(fields[1]) == pid:
                pids.append(int(entry.name))
    return pids


def _cpu_s(server_pid: int) -> float:
    """CPU seconds (user + system) used so far by this process, every
    thread, and by the server, its live children and the children it
    has reaped."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    ticks = 0
    for pid in _tree_pids(server_pid):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime (stat fields 14-17).
            ticks += sum(int(v) for v in fields[11:15])
    return total + ticks / os.sysconf("SC_CLK_TCK")


def _tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over a process and its children."""
    total_kb = 0
    for p in _tree_pids(pid):
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _sweep_pass(specs, url: str, out: Path) -> Dict[str, object]:
    """Run every space through the server once; returns the records,
    the runner's per-point timings and the pass wall time."""
    from repro.dse.runner import SweepRunner
    records, timings = [], []
    start = time.perf_counter()
    for spec in specs:
        runner = SweepRunner(spec, out_dir=out / spec.name,
                             server_url=url)
        records += runner.run()
        timings += [json.loads(line) for line in
                    runner.timings_path.read_text().splitlines()]
    return {"wall_s": time.perf_counter() - start, "records": records,
            "timings": timings}


def _cycle(specs, cycle_dir: Path, env: Dict[str, str],
           trace_dir: Optional[Path], run_id: str) -> Dict[str, object]:
    """One server: spawn on a fresh store, cold pass, warm pass."""
    from repro.serve.client import ServeClient
    store = cycle_dir / "store"
    spawned = time.monotonic()
    proc, url, thread = _start_server(store, env, trace_dir, run_id)
    try:
        client = ServeClient(url, timeout=120.0)
        client.health()
        ready = time.monotonic()
        cpu_start = _cpu_s(proc.pid)
        cold = _sweep_pass(specs, url, cycle_dir / "cold")
        warm = _sweep_pass(specs, url, cycle_dir / "warm")
        work = (_cpu_s(proc.pid) - cpu_start, [ready, time.monotonic()])
        stats = client.stats()
        client.close()
        rss_mb = _tree_peak_rss_mb(proc.pid)
    finally:
        _stop_server(proc, thread)
    return {"setup": (ready - spawned, [spawned, ready]), "work": work,
            "cold": cold, "warm": warm, "stats": stats,
            "peak_rss_mb": rss_mb, "store": store,
            "returncode": proc.returncode}


def _check_cycle(cycle, problems: List[str]) -> None:
    """Every point ok; the warm pass all hits, equal to the cold pass."""
    if cycle["returncode"] != 0:
        problems.append(f"server exited with {cycle['returncode']}")
    for name in ("cold", "warm"):
        bad = [r["id"] for r in cycle[name]["records"] if r["error"]]
        if bad:
            problems.append(f"{name} pass: {len(bad)} points failed, "
                            f"first {bad[0]}")
    missed = sum(1 for t in cycle["warm"]["timings"] if not t["cached"])
    if missed:
        problems.append(f"warm pass: {missed} points were not served "
                        "from the store")
    if cycle["warm"]["records"] != cycle["cold"]["records"]:
        problems.append("warm pass records differ from the cold pass")


def _check_sample(specs, store: Path, problems: List[str]) -> int:
    """Stored replies of a fixed sample against direct evaluation.

    The sample is the first two points of every space.  Each stored
    entry must be byte-equal to ``canonical_dumps`` of a direct
    ``execute_request``.  Flow entries never are: the stored
    ``DesignResult`` carries ``stage_times``, ``solver_stats``,
    ``stage_solver_stats`` and the ``RouterStats`` phase timers, which
    record how one run went.  That is a defect of the stored payload
    (it is not a pure function of the request); it is counted and
    returned, and reported by every run.  A flow entry then fails the
    check only if it still differs once those fields are cleared.
    """
    from repro.serve.protocol import (canonical_dumps, execute_request,
                                      request_for_point)
    from repro.serve.store import ContentStore
    entries = ContentStore(store)
    raw_mismatch = 0
    for spec in specs:
        for params in spec.points()[:2]:
            request = request_for_point(spec, params)
            path = entries.path_for(request.cache_token())
            stored = path.read_bytes() if path.exists() else None
            direct = canonical_dumps(execute_request(request).canonical())
            if stored == direct:
                continue
            if stored is not None and request.kind == "flow":
                raw_mismatch += 1
                stored, direct = (
                    canonical_dumps(_without_observability(
                        pickle.loads(raw))) for raw in (stored, direct))
                if stored == direct:
                    continue
            problems.append(f"stored {request.kind} entry of {spec.name} "
                            f"differs from direct execute_request")
    return raw_mismatch


def _without_observability(outcome):
    """A flow outcome with its observability-only fields cleared."""
    result = outcome.result
    route = result.route
    if route is not None and route.stats is not None:
        route = dataclasses.replace(route, stats=dataclasses.replace(
            route.stats, pattern_time_s=0.0, rrr_time_s=0.0,
            maze_time_s=0.0))
    result = dataclasses.replace(result, route=route, stage_times=None,
                                 solver_stats=None, stage_solver_stats=None)
    return dataclasses.replace(outcome, result=result)


def run_serve(args, run_dir: Path, trace_dir: Optional[Path],
              run_id: str, env: Dict[str, str]) -> Dict[str, object]:
    """One ``serve_mix`` run; see the module docstring.  A traced run
    makes one cycle."""
    # Direct evaluations for the byte-equality sample must not read the
    # server's store or any other result cache.
    os.environ["REPRO_FLOW_CACHE"] = "0"
    specs = sweep_specs(args.seed)
    tracer = None
    if trace_dir is not None:
        import layers
        import spans
        tracer = spans.Tracer(run_id)
        spans.install(tracer, layers.CLIENT_BOUNDARIES)
    cycles = []
    start = time.monotonic()
    while len(cycles) < (1 if tracer is not None else MIN_CYCLES) or (
            tracer is None and time.monotonic() - start < args.seconds):
        cycles.append(_cycle(specs, run_dir / f"cycle{len(cycles)}", env,
                             trace_dir, run_id))
    if tracer is not None:
        tracer.flush(str(trace_dir / "spans-client.jsonl"))

    problems: List[str] = []
    for cycle in cycles:
        _check_cycle(cycle, problems)
    if any(c["cold"]["records"] != cycles[0]["cold"]["records"]
           for c in cycles):
        problems.append("cycles of one seed gave different records")
    raw_mismatch = _check_sample(specs, cycles[0]["store"], problems)
    if raw_mismatch:
        print(f"known defect: {raw_mismatch} sampled stored flow "
              "entries differ from direct execute_request in their "
              "observability-only fields (stage_times, solver_stats, "
              "RouterStats timers)", file=sys.stderr)

    cold = [t for c in cycles for t in c["cold"]["timings"]]
    warm = [t for c in cycles for t in c["warm"]["timings"]]
    attempted = sum(len(c[p]["records"]) for c in cycles
                    for p in ("cold", "warm"))
    failed = sum(1 for c in cycles for p in ("cold", "warm")
                 for r in c[p]["records"] if r["error"])
    e2e = {
        "wall_s": checks.median([c["cold"]["wall_s"] + c["warm"]["wall_s"]
                                 for c in cycles]),
        "peak_rss_mb": checks.median([c["peak_rss_mb"] for c in cycles]),
        "miss_latency_p50_ms": checks.percentile(
            [1000.0 * t["wall_s"] for t in cold], 50),
    }
    stats = [c["stats"] for c in cycles]
    hits = sum(s["cache"]["hits"] for s in stats)
    misses = sum(s["cache"]["misses"] for s in stats)
    store_bytes = [p.stat().st_size for p in cycles[0]["store"].glob(
        "cas-*.pkl")]
    layer = {
        "miss_latency_p50_ms": e2e["miss_latency_p50_ms"],
        "latency_p50_ms": checks.percentile(
            [1000.0 * t["wall_s"] for t in warm], 50),
        "latency_p95_ms": checks.percentile(
            [1000.0 * t["wall_s"] for t in warm], 95),
        "serve.cold_wall_s": checks.median(
            [c["cold"]["wall_s"] for c in cycles]),
        "serve.warm_wall_s": checks.median(
            [c["warm"]["wall_s"] for c in cycles]),
        "serve.result_bytes_p50": checks.percentile(store_bytes, 50),
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.evaluations_run": sum(s["evaluations_run"] for s in stats),
        "serve.dedupe_joins": sum(s["dedupe_joins"] for s in stats),
        "serve.flow_reply_mismatch": raw_mismatch,
    }
    for cycle in cycles:
        shutil.rmtree(cycle["store"], ignore_errors=True)
    return {"e2e": e2e, "layer": layer, "attempted": attempted,
            "failed": failed, "problems": problems,
            "setups": [c["setup"] for c in cycles],
            "works": [c["work"] for c in cycles],
            "extra": {"cycles": len(cycles), "points": attempted,
                      "flow_reply_mismatch": raw_mismatch}}
