"""Cross-client dedupe and cancellation-race tests.

The admin pause endpoint holds the scheduler, making the races
deterministic: submissions queue while paused, cancellations land
before any evaluation starts, and resume releases exactly the state
under test.  Each test gets its own single-worker server and cache
directory.
"""

import pytest

from repro.serve import (EvalRequest, JobCancelled, ServeClient,
                         ServerConfig, start_in_thread)


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


class TestCrossClientDedupe:
    def test_identical_requests_share_one_evaluation(
            self, served, client_a, client_b):
        client_a.pause()
        job_a = client_a.submit(REQ)
        job_b = client_b.submit(REQ)
        assert job_a.job_id != job_b.job_id
        assert job_a.etag == job_b.etag
        assert {job_a.state, job_b.state} == {"queued"}
        stats = client_a.stats()
        assert stats["dedupe_joins"] == 1
        assert stats["in_flight"]["queued"] == 1  # one shared eval
        client_a.resume()
        out_a = client_a.result(job_a.job_id)
        out_b = client_b.result(job_b.job_id)
        assert out_a.ok and out_b.ok
        assert out_a.metrics == out_b.metrics
        # One actual evaluation served both clients.
        assert client_a.stats()["evaluations_run"] == 1

    def test_distinct_requests_do_not_dedupe(self, served, client_a,
                                             client_b):
        client_a.pause()
        client_a.submit(REQ)
        client_b.submit(EvalRequest(kind="geometry", scale=1.8))
        stats = client_a.stats()
        assert stats["dedupe_joins"] == 0
        assert stats["in_flight"]["queued"] == 2
        client_a.resume()


class TestCancellationRaces:
    def test_cancelling_one_does_not_cancel_the_sibling(
            self, served, client_a, client_b):
        client_a.pause()
        job_a = client_a.submit(REQ)
        job_b = client_b.submit(REQ)  # joins job_a's evaluation
        cancelled = client_a.cancel(job_a.job_id)
        assert cancelled.state == "cancelled"
        # The shared evaluation survives for the sibling.
        assert client_b.job(job_b.job_id).state == "queued"
        client_a.resume()
        out_b = client_b.result(job_b.job_id)
        assert out_b.ok
        with pytest.raises(JobCancelled):
            client_a.result(job_a.job_id)
        assert client_a.stats()["evaluations_run"] == 1

    def test_cancelling_every_job_drops_the_evaluation(
            self, served, client_a, client_b):
        client_a.pause()
        job_a = client_a.submit(REQ)
        job_b = client_b.submit(REQ)
        client_a.cancel(job_a.job_id)
        client_b.cancel(job_b.job_id)
        stats = client_a.stats()
        assert stats["in_flight"]["queued"] == 0
        client_a.resume()
        # Nothing ran; the server is idle and still serves new work.
        assert client_a.stats()["evaluations_run"] == 0
        assert client_a.evaluate(REQ).ok

    def test_cancel_is_idempotent_and_final(self, served, client_a):
        client_a.pause()
        job = client_a.submit(REQ)
        client_a.cancel(job.job_id)
        again = client_a.cancel(job.job_id)
        assert again.state == "cancelled"
        client_a.resume()
        assert client_a.job(job.job_id).state == "cancelled"

