"""One result store, one key: every flow path writes and reads the same
``cas-<token>.pkl`` entry.

``run_design``, ``run_designs`` (serial and on the pool), a local
``SweepRunner`` and the evaluation service each compute one flow point
into an empty store root.  Each leaves exactly that point's entry, after
exactly one ``canonical_dumps`` call, holding the bytes of a direct
``execute_request``; and a point any of them computed is a store hit for
all the others, the CLI included.
"""

import json
import sys

import pytest

from repro.__main__ import main
from repro.core import flow
from repro.core.flow import run_design, run_designs
from repro.core.pool import shutdown_pool
from repro.core.request import EvalRequest, canonical_dumps
from repro.dse.runner import SweepRunner
from repro.dse.space import Axis, SweepSpec
from repro.serve import ServeClient, ServerConfig, start_in_thread
from repro.serve.protocol import execute_request

POINT = dict(scale=0.012, seed=7, with_eyes=False, with_thermal=False)
REQUEST = EvalRequest(kind="flow", design="glass_3d", **POINT)

#: The same point as a flow sweep names it, with a link length the flow
#: never reads (the token ignores it).
SWEEP = SweepSpec(name="one-store", design="glass_3d", evaluator="flow",
                  scale=0.012, seed=7, length_um=3000.0,
                  axes=(Axis("design", values=("glass_3d",)),))

#: The CLI run of the point.
CLI = ["glass_3d", "--scale", "0.012", "--seed", "7", "--no-eyes",
       "--no-thermal"]


def _entry(request):
    return f"cas-{request.cache_token()}.pkl"


@pytest.fixture(scope="module")
def reference():
    out = execute_request(REQUEST)
    assert out.ok, out.error_message
    return canonical_dumps(out.canonical())


@pytest.fixture()
def root(tmp_path, monkeypatch):
    store = tmp_path / "store"
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(store))
    shutdown_pool()
    yield store
    shutdown_pool()


@pytest.fixture()
def dumps(monkeypatch):
    """Records every ``canonical_dumps`` call made through a ``repro``
    module."""
    calls = []

    def counting(obj):
        calls.append(type(obj).__name__)
        return canonical_dumps(obj)

    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
                module, "canonical_dumps", None) is canonical_dumps:
            monkeypatch.setattr(module, "canonical_dumps", counting)
    return calls


def _sweep(out_dir):
    runner = SweepRunner(SWEEP, out_dir=out_dir)
    records = runner.run()
    timings = [json.loads(line)
               for line in runner.timings_path.read_text().splitlines()]
    return records, timings


def _by_server(url):
    with ServeClient(url) as client:
        return client.evaluate(REQUEST)


def _evaluations_run(url):
    with ServeClient(url) as client:
        return client.stats()["evaluations_run"]


#: Producer name -> (compute the point, the requests it stores).
PRODUCERS = {
    "run_design": (lambda tmp, url: run_design("glass_3d", **POINT),
                   [REQUEST]),
    "run_designs_jobs1": (
        lambda tmp, url: run_designs(["glass_3d"], jobs=1, **POINT),
        [REQUEST]),
    "run_designs_jobs2": (
        lambda tmp, url: run_designs(["glass_3d", "silicon_3d"], jobs=2,
                                     **POINT),
        [REQUEST, EvalRequest(kind="flow", design="silicon_3d", **POINT)]),
    "local_sweep": (lambda tmp, url: _sweep(tmp / "sweep"), [REQUEST]),
    "server": (lambda tmp, url: _by_server(url), [REQUEST]),
}


def _no_compute(*_args, **_kwargs):
    raise AssertionError("computed a point the store holds")


@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_each_path_writes_the_one_entry_every_path_reads(
        producer, root, dumps, reference, tmp_path, monkeypatch, capsys):
    produce, stored = PRODUCERS[producer]
    with start_in_thread(ServerConfig(port=0, workers=1,
                                      cache_dir=root)) as served:
        produce(tmp_path, served.url)
        assert sorted(p.name for p in root.glob("*.pkl")) == sorted(
            _entry(r) for r in stored)
        assert {p.name for p in root.iterdir()} <= {
            _entry(r) for r in stored}
        assert dumps == ["ServeResult"] * len(stored)
        assert (root / _entry(REQUEST)).read_bytes() == reference

        # Every path now answers from the store without computing.
        monkeypatch.setattr(flow, "_topology", _no_compute)
        evaluations = _evaluations_run(served.url)
        assert run_design("glass_3d", **POINT).stage_times is None
        got = run_designs(["glass_3d"], jobs=2, **POINT)
        assert got["glass_3d"].stage_times is None
        assert main(CLI) == 0
        assert "Co-design flow summary" in capsys.readouterr().out
        records, timings = _sweep(tmp_path / "warm")
        assert records[0]["error"] is None
        assert [t["cached"] for t in timings] == [True]
        served_out = _by_server(served.url)
        assert served_out.cached and served_out.ok
        assert served_out.metrics == records[0]["metrics"]
        assert _evaluations_run(served.url) == evaluations
    assert (root / _entry(REQUEST)).read_bytes() == reference


def test_served_point_stays_in_the_server_root(tmp_path, monkeypatch):
    # The pool evaluates without the store, so nothing lands under
    # REPRO_FLOW_CACHE when the server has a root of its own.
    env_dir, store_dir = tmp_path / "env", tmp_path / "store"
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(env_dir))
    shutdown_pool()
    try:
        with start_in_thread(ServerConfig(port=0, workers=1,
                                          cache_dir=store_dir)) as served:
            out = _by_server(served.url)
    finally:
        shutdown_pool()
    assert out.ok and not out.cached
    assert not env_dir.exists() or not any(env_dir.iterdir())
    assert sorted(p.name for p in store_dir.glob("*.pkl")) == [
        _entry(REQUEST)]
