"""Tiny sweep through the DSE runner (``pytest -m dse_smoke benchmarks/perf``).

Runs a six-point flow sweep cold (the result store off) so the number
is an honest end-to-end cost of one sweep point times six, records it
under ``dse_smoke_sweep_s`` in ``results/BENCH_flow.json``, and fails
when it drifts more than ``REGRESSION_FACTOR`` past the baseline in
``baseline.json``.  Re-record with ``REPRO_PERF_REBASE=1`` after an
intentional change.
"""

import json
import os
import time

import pytest

from repro.dse.analyze import pareto_front, flat_records, successes
from repro.dse.runner import run_sweep
from repro.dse.space import Axis, SweepSpec

pytestmark = pytest.mark.dse_smoke

HERE = os.path.dirname(__file__)
BASELINE_PATH = os.path.join(HERE, "baseline.json")
RESULTS_DIR = os.path.join(HERE, os.pardir, os.pardir, "results")

#: Fail when the sweep runs more than this factor slower than baseline.
REGRESSION_FACTOR = 2.5

#: Six flow points on the cheapest full-flow design (glass 3D has no
#: long interposer links, so its routing stage has no fixed floor).
SMOKE = SweepSpec(
    name="dse-smoke", design="glass_3d", evaluator="flow",
    sampler="grid", scale=0.02, seed=7,
    with_eyes=False, with_thermal=False,
    axes=(Axis("dielectric_thickness_um", values=(10.0, 15.0, 20.0)),
          Axis("microbump_pitch_um", values=(30.0, 40.0))),
    objectives={"power_mw": "min", "l2m_delay_ps": "min"})


def _merge_json(path, updates):
    payload = {}
    if os.path.exists(path):
        with open(path) as fh:
            payload = json.load(fh)
    payload.update(updates)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_dse_smoke_sweep(monkeypatch):
    """Six cold flow points through the sweep runner, within budget."""
    monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
    t0 = time.perf_counter()
    records = run_sweep(SMOKE)
    elapsed = time.perf_counter() - t0

    assert len(records) == 6
    assert len(successes(records)) == 6
    front = pareto_front(flat_records(records), dict(SMOKE.objectives))
    assert front  # the smoke sweep must yield a usable frontier

    os.makedirs(RESULTS_DIR, exist_ok=True)
    _merge_json(os.path.join(RESULTS_DIR, "BENCH_flow.json"),
                {"dse_smoke_sweep_s": round(elapsed, 3),
                 "dse_smoke_points": len(records)})

    if os.environ.get("REPRO_PERF_REBASE") == "1" \
            or "dse_smoke_sweep_s" not in _baseline():
        _merge_json(BASELINE_PATH,
                    {"dse_smoke_sweep_s": round(elapsed, 3)})
        pytest.skip(f"baseline recorded: {elapsed:.3f}s")
    budget = _baseline()["dse_smoke_sweep_s"] * REGRESSION_FACTOR
    assert elapsed <= budget, (
        f"dse smoke sweep took {elapsed:.3f}s vs budget {budget:.3f}s "
        f"(baseline x{REGRESSION_FACTOR})")


def _baseline():
    if not os.path.exists(BASELINE_PATH):
        return {}
    with open(BASELINE_PATH) as fh:
        return json.load(fh)
