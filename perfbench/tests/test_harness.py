"""Self-test of the benchmark harness at toy size (a few minutes).

Runs every workload once untraced and once traced at toy size (flows at
scale 0.01; ``serve_mix`` replays its two small sweep spaces) and checks
that each run emits every metric ``BENCHMARK.json`` names, with its
unit; that traced self times sum to no more than the traced wall time;
and that a tampered reference makes the ``paper_flow`` output check
fail.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_SCALE = 0.01
WORKLOADS = ("paper_flow", "nchiplet_flow", "serve_mix")


def _expected(trace: int):
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(workload: str, trace: int):
    """One run at toy size; returns (result line, history row)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEEDS[workload]), "--seconds", "1",
           "--trace", str(trace)]
    if workload != "serve_mix":
        cmd += ["--scale", str(TOY_SCALE)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    row = json.loads(run.HISTORY.read_text().splitlines()[-1])
    assert (row["workload"], row["trace"]) == (workload, trace)
    return json.loads(proc.stdout.strip().splitlines()[-1]), row


@pytest.fixture(scope="module")
def results():
    """Toy runs of every workload, untraced and traced."""
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_complete(results, workload, trace):
    result, _row = results[(workload, trace)]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = _expected(trace)
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_within_wall(results, workload):
    """Within each traced process, self times sum to no more than the
    traced wall time (``serve_mix`` spans three processes that run side
    by side, so the check is per process)."""
    result, row = results[(workload, 1)]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    wall = values["trace.wall_s"]
    records = spans.load_spans(sorted(
        (run.OUT / row["run_id"] / "spans").glob("spans-*.jsonl")))
    pids = {r["pid"] for r in records}
    assert pids
    for pid in pids:
        summary = spans.summarize([r for r in records if r["pid"] == pid])
        assert sum(e["self_s"] for e in summary.values()) <= wall, pid
    if workload != "serve_mix":
        reported = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert 0 < reported <= wall


def test_layer_map_matches_benchmark_json():
    assert ({m["name"] for m in SPEC["per_layer"]}
            == set(layers.LAYER_MAP))


def test_tampered_reference_fails(results, tmp_path, monkeypatch):
    """Rows of the toy seed-2023 paper_flow run pass against a reference
    equal to them and fail once one value of the reference changes."""
    _result, row = results[("paper_flow", 0)]
    assert row["seed"] == checks.REFERENCE_SEED
    rows = json.loads((run.OUT / row["run_id"] / "round0.json")
                      .read_text())["rows"]
    monkeypatch.setattr(checks, "REFERENCE_DIR", tmp_path)
    path = checks.reference_path(TOY_SCALE, checks.REFERENCE_SEED)
    path.write_text(json.dumps(rows))
    assert checks.check_paper_rows(rows, TOY_SCALE,
                                   checks.REFERENCE_SEED) == []
    tampered = copy.deepcopy(rows)
    tampered["table4"]["glass_3d"]["area_mm2"] += 0.01
    path.write_text(json.dumps(tampered))
    problems = checks.check_paper_rows(rows, TOY_SCALE,
                                       checks.REFERENCE_SEED)
    assert problems and "area_mm2" in problems[0]


def test_slowdown_windows():
    """The slowdown is the mean burst over its window against the
    nominal, and over the whole run when the window is too short."""
    nominal = speed.NOMINAL_BURST_S
    samples = [(float(t), nominal * (2.0 if t < 20 else 1.0))
               for t in range(40)]
    assert speed.slowdown(samples, 0.0, 19.0) == pytest.approx(2.0)
    assert speed.slowdown(samples, 20.0, 39.0) == pytest.approx(1.0)
    assert speed.slowdown(samples, 5.0, 6.0) == pytest.approx(1.5)


def test_probe_stops_and_reports(tmp_path):
    """The probe records bursts until stopped, and stop() waits for it."""
    probe = speed.Probe(tmp_path / "speed.txt")
    time.sleep(1.0)
    samples = probe.stop()
    assert probe.proc.returncode == 0
    assert len(samples) >= speed.MIN_SAMPLES
    assert all(cpu > 0 for _when, cpu in samples)
