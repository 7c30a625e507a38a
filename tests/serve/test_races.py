"""Cross-client dedupe and drain-race tests.

The ``held`` fixture (``conftest.py``) holds the scheduler with a test
fake, making the races deterministic: submissions stay in flight until
the test releases them, and the release lets exactly the state under
test run.  Each test gets its own single-worker server and cache
directory.
"""

import asyncio
import threading
import time

import pytest

from repro.serve import (EvalRequest, ServeClient, ServerConfig,
                         start_in_thread)


@pytest.fixture()
def served(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
    with start_in_thread(ServerConfig(port=0, workers=1)) as handle:
        yield handle


@pytest.fixture()
def client_a(served):
    with ServeClient(served.url) as c:
        yield c


@pytest.fixture()
def client_b(served):
    with ServeClient(served.url) as c:
        yield c


REQ = EvalRequest(kind="geometry", scale=1.4)


def _in_flight(stats):
    return stats["in_flight"]["queued"] + stats["in_flight"]["running"]


class TestCrossClientDedupe:
    def test_identical_requests_share_one_evaluation(
            self, held, client_a, client_b):
        job_a = client_a.submit(REQ)
        job_b = client_b.submit(REQ)
        assert job_a.job_id != job_b.job_id
        assert job_a.etag == job_b.etag
        assert {job_a.state, job_b.state} <= {"queued", "running"}
        stats = client_a.stats()
        assert stats["dedupe_joins"] == 1
        assert _in_flight(stats) == 1  # one shared eval
        held()
        out_a = client_a.result(job_a.job_id)
        out_b = client_b.result(job_b.job_id)
        assert out_a.ok and out_b.ok
        assert out_a.metrics == out_b.metrics
        # One actual evaluation served both clients.
        assert client_a.stats()["evaluations_run"] == 1

    def test_distinct_requests_do_not_dedupe(self, held, client_a,
                                             client_b):
        client_a.submit(REQ)
        client_b.submit(EvalRequest(kind="geometry", scale=1.8))
        stats = client_a.stats()
        assert stats["dedupe_joins"] == 0
        assert _in_flight(stats) == 2
        held()


class TestDrainRace:
    def test_submit_straddling_the_drain_start_gets_503(
            self, served, held, client_a, client_b, monkeypatch):
        """A submission whose store read is off the event loop when a
        drain begins is refused like any later one: had the drain found
        nothing in flight, it would already have stopped the workers,
        and a new evaluation would never run."""
        server = served.server
        client_a.submit(REQ)  # held in flight, so the drain waits
        reading, resume = threading.Event(), threading.Event()
        real_get = server.store.get

        def slow_get(request):
            reading.set()
            resume.wait(10)
            return real_get(request)
        monkeypatch.setattr(server.store, "get", slow_get)
        other = EvalRequest(kind="geometry", scale=1.8)
        statuses = []
        submitter = threading.Thread(target=lambda: statuses.append(
            client_b._request("POST", "/v1/tasks",
                              body=other.to_dict())[0]))
        submitter.start()
        assert reading.wait(10)
        drain = asyncio.run_coroutine_threadsafe(server.drain(),
                                                 served._loop)
        deadline = time.monotonic() + 10
        while not server._draining and time.monotonic() < deadline:
            time.sleep(0.01)
        resume.set()
        submitter.join(10)
        assert not submitter.is_alive()
        assert statuses == [503]
        held()
        drain.result(10)
        assert server.evaluations_run == 1
        assert server.store.get_bytes(other.cache_token()) is None
