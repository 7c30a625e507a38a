"""Evaluation-server tests: lifecycle smoke, byte-identity with direct
evaluation, store hits, structured errors, and HTTP edges, including
malformed request heads and the routes the server no longer has.

A module-scoped server (2 workers, private cache dir) serves most
tests; the lifecycle smoke starts its own short-lived in-thread
instance, and the drain test a ``python -m repro serve`` process that
it stops with SIGTERM, so shutdown behaviour is exercised end to end.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

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

    def test_sigterm_drains_the_cli_server(self, tmp_path):
        """SIGTERM to a real ``python -m repro serve`` process (the
        in-thread harness cannot install signal handlers): every
        accepted evaluation, queued or running, finishes and is stored,
        and the process exits 0 within five seconds."""
        cache = tmp_path / "cache"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, REPRO_FLOW_CACHE=str(cache),
                   OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(cache)],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            url = proc.stderr.readline().strip()
            assert url.startswith("http://"), url
            with ServeClient(url) as c:
                for scale in (1.11, 1.12, 1.13):
                    c.submit(EvalRequest(kind="geometry", scale=scale))
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=5.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert len(list(cache.glob("cas-*.pkl"))) == 3


class TestStoreWriteFailure:
    def test_failed_store_write_still_finishes_the_job(
            self, tmp_path, monkeypatch, caplog):
        """A store write that raises (a full disk) costs the entry, not
        the scheduler: the job finishes, its result is dumped from the
        outcome, a later submission still runs, and the server
        drains."""
        def full_disk(*_args):
            raise OSError(28, "No space left on device")

        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
        handle = start_in_thread(ServerConfig(port=0, workers=1))
        try:
            monkeypatch.setattr(handle.server.store, "put", full_disk)
            with ServeClient(handle.url) as c:
                req = EvalRequest(kind="geometry", scale=1.31)
                job = c.submit(req, wait=True)
                assert job.state == "done"
                status, _headers, data = c._request(
                    "GET", f"/v1/jobs/{job.job_id}/result")
                assert status == 200
                assert data == canonical_dumps(
                    execute_request(req).canonical())
                later = c.submit(EvalRequest(kind="geometry", scale=1.32),
                                 wait=True)
                assert later.state == "done"
        finally:
            handle.stop(timeout=3)
        assert not handle._thread.is_alive()
        warnings = [r for r in caplog.records
                    if r.name == server_module.__name__]
        assert len(warnings) == 2  # one per failed write
        assert "No space left on device" in warnings[0].getMessage()


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


class TestEtagSemantics:
    REQ = EvalRequest(kind="geometry", scale=1.25)

    def test_repeat_submit_is_cache_hit_not_reevaluation(self, client):
        first = client.submit(self.REQ, wait=True)
        assert first.state == "done" and not first.cached
        assert first.etag == self.REQ.cache_token()
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

    def test_removed_surface_answers_cleanly(self, client):
        """Batches, admin calls, cancels and conditional requests are
        gone: their routes are unknown, a DELETE is not allowed, and an
        ``If-None-Match`` resubmit is a plain submit."""
        req = EvalRequest(kind="geometry", scale=1.27)
        handle = client.submit(req, wait=True)
        assert handle.state == "done"
        for method, path, status in (
                ("POST", "/v1/batch", 404),
                ("POST", "/v1/admin/pause", 404),
                ("DELETE", f"/v1/jobs/{handle.job_id}", 405)):
            with pytest.raises(ServeError) as exc:
                client._json(method, path)
            assert exc.value.status == status, (method, path)
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/tasks",
                         body=json.dumps(req.to_dict()),
                         headers={"Content-Type": "application/json",
                                  "If-None-Match":
                                      f'"{req.cache_token()}"'})
            response = conn.getresponse()
            status, view = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 200
        assert view["job"]["state"] == "done" and view["job"]["cached"]
        assert view["job"]["etag"] == req.cache_token()

    @pytest.mark.parametrize("head", [
        b"POST /v1/tasks HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /v1/tasks HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
        + b"\r\n\r\n",
    ], ids=["non_integer_length", "negative_length", "line_over_64k"])
    def test_malformed_head_400(self, client, head):
        with socket.create_connection((client.host, client.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            reply = b""
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                reply += chunk
        status_line, _sep, rest = reply.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request", reply[:200]
        head_lines, _sep, body = rest.partition(b"\r\n\r\n")
        assert b"Connection: close" in head_lines.split(b"\r\n")
        assert body.endswith(b"\n") and body.count(b"\n") == 1
        assert json.loads(body)["error"]
        # The server survives the bad head.
        assert client.health()["status"] == "ok"

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

    def test_result_before_done_409(self, client, held):
        handle = client.submit(EvalRequest(kind="geometry", scale=1.33))
        status, _h, _d = client._request(
            "GET", f"/v1/jobs/{handle.job_id}/result")
        assert status == 409
        held()
        assert client.result(handle.job_id).ok

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
