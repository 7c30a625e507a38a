"""Flow caching semantics and the multi-design fan-out.

Regression coverage for the cache-key bugs around partial runs
(``with_eyes=False`` / ``with_thermal=False``): a partial run once
poisoned later full runs, and later a partial request was answered from
a full run's entry, so what it returned depended on what its process
had run before.  Memory and the store are both keyed on the exact
request now, so a partial request is always its own design point.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.flow import (clear_cache, run_design, run_designs,
                             run_flow_task)
from repro.core.request import (EvalRequest, canonical_dumps,
                                code_version)
from repro.core.store import flow_cache_dir
from repro.serve.protocol import execute_request

SCALE = 0.015
SEED = 9


#: Child-process script: the sha256 of a request's canonical outcome,
#: evaluated in a process that has run nothing else.
_FRESH = """
import hashlib, json, sys
from repro.core.request import EvalRequest, canonical_dumps
from repro.serve.protocol import execute_request
out = execute_request(EvalRequest.from_dict(json.loads(sys.argv[1])))
assert out.ok, out.error_message
print(hashlib.sha256(canonical_dumps(out.canonical())).hexdigest())
"""


def _fresh_process_digest(request):
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, REPRO_FLOW_CACHE="0",
               PYTHONPATH=os.pathsep.join(
                   [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _FRESH,
                            json.dumps(request.to_dict())],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    """Fresh in-process cache + throwaway disk cache per test."""
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "fcache"))
    clear_cache()
    yield
    clear_cache()


class TestFlagAwareCache:
    def test_partial_run_does_not_poison_full_run(self):
        partial = run_design("glass_25d", scale=SCALE, seed=SEED,
                             with_eyes=False, with_thermal=False)
        assert partial.l2m_eye is None
        assert partial.thermal is None
        full = run_design("glass_25d", scale=SCALE, seed=SEED)
        assert full is not partial
        assert full.l2m_eye is not None
        assert full.thermal is not None

    def test_partial_run_cached_under_own_key(self):
        a = run_design("glass_25d", scale=SCALE, seed=SEED,
                       with_eyes=False, with_thermal=False)
        b = run_design("glass_25d", scale=SCALE, seed=SEED,
                       with_eyes=False, with_thermal=False)
        assert a is b

    def test_partial_request_after_full_is_its_own_point(self):
        full = EvalRequest(design="glass_3d", scale=0.012, seed=7)
        partial = dataclasses.replace(full, with_eyes=False,
                                      with_thermal=False)
        assert run_flow_task(full).result.l2m_eye is not None
        fresh = _fresh_process_digest(partial)
        for out in (run_flow_task(partial), execute_request(partial)):
            assert out.ok and not out.cached
            assert out.result.l2m_eye is None
            assert out.result.thermal is None
            assert out.metrics["l2m_eye_height_v"] is None
            payload = canonical_dumps(out.canonical())
            assert hashlib.sha256(payload).hexdigest() == fresh

    def test_stage_times_recorded(self):
        r = run_design("glass_25d", scale=SCALE, seed=SEED)
        assert r.stage_times is not None
        assert {"chiplets", "channels", "total"} <= set(r.stage_times)
        assert r.stage_times["total"] > 0.0


class TestRunDesigns:
    NAMES = ["glass_3d", "silicon_3d"]  # TSV stacks: no routing, fast

    def _run(self, **kw):
        return run_designs(self.NAMES, scale=SCALE, seed=SEED,
                           with_eyes=False, with_thermal=False, **kw)

    def test_serial_matches_run_design(self):
        got = self._run(jobs=1)
        assert list(got) == self.NAMES
        for name in self.NAMES:
            solo = run_design(name, scale=SCALE, seed=SEED,
                              with_eyes=False, with_thermal=False,
                              use_cache=False)
            assert (got[name].fullchip.total_power_mw
                    == pytest.approx(solo.fullchip.total_power_mw,
                                     rel=1e-12))
            assert (got[name].l2m_channel.total_delay_ps
                    == solo.l2m_channel.total_delay_ps)

    def test_parallel_matches_serial(self):
        serial = self._run(jobs=1, use_cache=False)
        clear_cache()
        parallel = self._run(jobs=2)
        for name in self.NAMES:
            a, b = serial[name], parallel[name]
            assert (a.fullchip.total_power_mw
                    == pytest.approx(b.fullchip.total_power_mw,
                                     rel=1e-12))
            assert a.logic.fmax_mhz == pytest.approx(b.logic.fmax_mhz,
                                                     rel=1e-12)

    def test_disk_cache_round_trip(self):
        first = self._run(jobs=1)
        clear_cache()  # drop the in-process cache, keep the disk one
        second = self._run(jobs=1)
        for name in self.NAMES:
            assert (first[name].fullchip.total_power_mw
                    == second[name].fullchip.total_power_mw)
        # Results actually came off disk (new objects, not cache hits).
        assert second[self.NAMES[0]] is not first[self.NAMES[0]]

    def test_disk_cache_disabled_by_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        monkeypatch.chdir(tmp_path)  # catch writes to a relative "0"
        assert flow_cache_dir() is None
        self._run(jobs=1)
        assert list(tmp_path.rglob("*.pkl")) == []

    def test_duplicates_deduplicated(self):
        got = run_designs(["glass_3d", "glass_3d"], scale=SCALE,
                          seed=SEED, with_eyes=False, with_thermal=False)
        assert list(got) == ["glass_3d"]


class TestCodeVersion:
    def test_stable_and_hexlike(self):
        v = code_version()
        assert v == code_version()
        assert len(v) == 16
        int(v, 16)  # parses as hex
