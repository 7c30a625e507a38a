"""Evaluation-server tests: lifecycle smoke, byte-identity with direct
evaluation, ETag/304 semantics, structured errors, and HTTP edges.

A module-scoped server (2 workers, private cache dir) serves most
tests; the lifecycle smoke and drain tests start their own short-lived
instances so shutdown behaviour is exercised end to end.
"""

import os
import threading
import time

import pytest

from repro.core.flow import clear_cache
from repro.core.pool import shutdown_pool
from repro.serve import (EvalRequest, ServeClient, ServeError,
                         ServerConfig, execute_request,
                         start_in_thread)
from repro.serve import server as server_module
from repro.serve.protocol import canonical_dumps


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache = tmp_path_factory.mktemp("serve-cache")
    old = os.environ.get("REPRO_FLOW_CACHE")
    os.environ["REPRO_FLOW_CACHE"] = str(cache)
    clear_cache()
    shutdown_pool()  # fork pool workers with this cache dir
    handle = start_in_thread(ServerConfig(port=0, workers=2))
    try:
        yield handle
    finally:
        handle.stop()
        shutdown_pool()
        if old is None:
            os.environ.pop("REPRO_FLOW_CACHE", None)
        else:
            os.environ["REPRO_FLOW_CACHE"] = old
        clear_cache()


@pytest.fixture()
def client(served):
    with ServeClient(served.url) as c:
        yield c


class TestServeSmoke:
    def test_round_trip_cached_and_clean_shutdown_under_5s(
            self, tmp_path, monkeypatch):
        """The tier-1 service smoke: ephemeral port, one geometry
        request served twice (second from the shared tier), clean
        shutdown — all in under five seconds."""
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
        t0 = time.perf_counter()
        with start_in_thread(ServerConfig(port=0, workers=1)) as handle:
            assert handle.port != 0
            with ServeClient(handle.url) as c:
                assert c.health()["status"] == "ok"
                req = EvalRequest(kind="geometry")
                first = c.evaluate(req)
                second = c.evaluate(req)
        elapsed = time.perf_counter() - t0
        assert first.ok and second.ok
        assert not first.cached and second.cached
        assert first.metrics == second.metrics
        assert elapsed < 5.0, f"serve smoke took {elapsed:.1f}s"

    def test_admin_drain_stops_server(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
        handle = start_in_thread(ServerConfig(port=0, workers=1))
        with ServeClient(handle.url) as c:
            c.drain()
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        handle.stop()  # idempotent


class TestServedByteIdentity:
    REQ = EvalRequest(scale=0.02, with_eyes=False, with_thermal=False)

    def test_served_flow_result_is_byte_identical(self, client):
        served = client.evaluate(self.REQ)
        assert served.ok
        direct = execute_request(self.REQ)
        assert direct.ok
        assert served.metrics == direct.metrics
        # Pinned: the canonical pickled payloads agree byte for byte
        # (canonical_dumps normalizes set order and string sharing, so
        # this holds across provenance — fresh vs. unpickled graphs).
        assert canonical_dumps(served.canonical()) == \
            canonical_dumps(direct.canonical())

    def test_raw_stored_payload_matches_local_pickle(self, client):
        handle = client.submit(self.REQ, wait=True)
        status, headers, data = client._request(
            "GET", f"/v1/jobs/{handle.job_id}/result")
        assert status == 200
        direct = execute_request(self.REQ)
        assert data == canonical_dumps(direct.canonical())
        assert headers.get("ETag") == f'"{self.REQ.cache_token()}"'


class TestEtagSemantics:
    REQ = EvalRequest(kind="geometry", scale=1.25)

    def test_submit_returns_etag_and_304_on_revalidation(self, client):
        token = self.REQ.cache_token()
        first = client.submit(self.REQ, wait=True)
        assert first.etag == token
        assert first.state == "done"
        # Conditional resubmit: the stored entry revalidates as 304.
        status, headers, data = client._request(
            "POST", "/v1/tasks", body=self.REQ.to_dict(),
            headers={"If-None-Match": f'"{token}"'})
        assert status == 304
        assert data == b""
        assert headers.get("ETag") == f'"{token}"'

    def test_result_304_on_matching_etag(self, client):
        handle = client.submit(self.REQ, wait=True)
        status, _headers, data = client._request(
            "GET", f"/v1/jobs/{handle.job_id}/result",
            headers={"If-None-Match": f'"{handle.etag}"'})
        assert status == 304 and data == b""

    def test_repeat_submit_is_cache_hit_not_reevaluation(self, client):
        before = client.stats()["evaluations_run"]
        out = client.evaluate(self.REQ)
        assert out.ok and out.cached
        assert client.stats()["evaluations_run"] == before


class TestErrorJobs:
    BAD = EvalRequest(kind="link",
                      spec_overrides=(("bogus_field", 1.0),))

    def test_invalid_override_yields_structured_error(self, client):
        handle = client.submit(self.BAD, wait=True)
        assert handle.state == "error"
        out = client.result(handle.job_id)
        assert not out.ok
        assert out.error_type == "AttributeError"
        assert "bogus_field" in out.error_message
        assert "Traceback" in out.error_traceback

    def test_error_results_are_not_cached(self, client):
        client.evaluate(self.BAD)
        before = client.stats()["evaluations_run"]
        client.evaluate(self.BAD)  # re-runs: errors never enter the tier
        assert client.stats()["evaluations_run"] == before + 1

    def test_unstored_result_is_dumped_off_the_event_loop(
            self, client, served, monkeypatch):
        # The store holds no bytes for an error (nor for anything when
        # it is disabled), so the result route dumps the outcome; a
        # flow result's dump on the event loop would stall every other
        # request.
        threads = []

        def dump(obj):
            threads.append(threading.current_thread())
            return canonical_dumps(obj)
        monkeypatch.setattr(server_module, "canonical_dumps", dump)
        handle = client.submit(self.BAD, wait=True)
        assert not client.result(handle.job_id).ok
        assert threads and served._thread not in threads


class TestHttpEdges:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as exc:
            client._json("GET", "/v2/tasks")
        assert exc.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.job("j999999")
        assert exc.value.status == 404

    def test_bad_json_400(self, client, served):
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/tasks", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = response.read().decode()
            assert response.status == 400
            assert "bad JSON body" in body
        finally:
            conn.close()

    def test_empty_batch_400(self, client):
        status, _h, _d = client._request("POST", "/v1/batch",
                                         body={"tasks": []})
        assert status == 400

    def test_unknown_design_400_serverside(self, client):
        # Bypass client-side validation: the server must reject too.
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks", body={"design": "fr4"})
        assert exc.value.status == 400
        assert "fr4" in str(exc.value)

    def test_nan_length_400_serverside(self, client):
        # Python's json module reads the NaN literal; the server must
        # reject the value instead of queueing a job that can only fail.
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks",
                         body={"kind": "link", "length_um": float("nan")})
        assert exc.value.status == 400
        assert "length_um must be > 0 and finite" in str(exc.value)

    def test_unknown_request_key_400_serverside(self, client):
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks",
                         body={"fidelity": "high"})
        assert exc.value.status == 400

    def test_unknown_design_rejected_clientside(self, client):
        with pytest.raises(KeyError):
            client.submit({"design": "fr4"})

    def test_result_before_done_409(self, client, served):
        served.server._paused = True
        try:
            handle = client.submit(
                EvalRequest(kind="geometry", scale=1.33))
            status, _h, _d = client._request(
                "GET", f"/v1/jobs/{handle.job_id}/result")
            assert status == 409
        finally:
            client.resume()
            client.result(handle.job_id)

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"jobs", "cache", "pool", "store",
                "evaluations_run", "dedupe_joins"} <= set(stats)
        assert stats["pool"]["active"] is True


class TestTopologyHttp:
    """The topology axes over HTTP: invalid values are 400s (same
    shared validator as the CLI), valid ones round-trip through a
    served geometry evaluation."""

    def test_bad_num_chiplets_400(self, client):
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks",
                         body={"kind": "geometry", "num_chiplets": 1})
        assert exc.value.status == 400
        assert "num_chiplets must be between" in str(exc.value)

    def test_unknown_arrangement_400(self, client):
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks",
                         body={"kind": "geometry",
                               "arrangement": "ring"})
        assert exc.value.status == 400
        assert "unknown arrangement" in str(exc.value)

    def test_non_integral_count_400(self, client):
        with pytest.raises(ServeError) as exc:
            client._json("POST", "/v1/tasks",
                         body={"kind": "geometry",
                               "num_chiplets": 2.5})
        assert exc.value.status == 400

    def test_topology_geometry_served(self, client):
        handle = client.submit(EvalRequest(
            kind="geometry", num_chiplets=5, arrangement="hexagonal"))
        result = client.result(handle.job_id)
        assert result.ok
        assert result.metrics["interposer_area_mm2"] > 0
        # A different arrangement is a different content address.
        base = EvalRequest(kind="geometry", num_chiplets=5,
                           arrangement="hexagonal")
        other = EvalRequest(kind="geometry", num_chiplets=5,
                            arrangement="row")
        assert other.cache_token() != base.cache_token()
