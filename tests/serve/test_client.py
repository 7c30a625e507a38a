"""Client-library tests: the blocking client, reconnects, timeouts."""

import pytest

from repro.serve import (EvalRequest, ServeClient, ServerConfig,
                         start_in_thread)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    import os
    cache = tmp_path_factory.mktemp("client-cache")
    old = os.environ.get("REPRO_FLOW_CACHE")
    os.environ["REPRO_FLOW_CACHE"] = str(cache)
    handle = start_in_thread(ServerConfig(port=0, workers=1))
    try:
        yield handle
    finally:
        handle.stop()
        if old is None:
            os.environ.pop("REPRO_FLOW_CACHE", None)
        else:
            os.environ["REPRO_FLOW_CACHE"] = old


class TestSyncClient:
    def test_url_parsing_accepts_bare_host_port(self, served):
        bare = served.url.replace("http://", "")
        with ServeClient(bare) as c:
            assert c.health()["status"] == "ok"

    def test_rejects_non_http_scheme(self):
        with pytest.raises(ValueError, match="unsupported scheme"):
            ServeClient("https://example.com")

    def test_reconnects_after_connection_drop(self, served):
        with ServeClient(served.url) as c:
            assert c.health()["status"] == "ok"
            c._conn.close()  # simulate a dropped keep-alive
            assert c.health()["status"] == "ok"

    def test_submit_accepts_plain_dicts(self, served):
        with ServeClient(served.url) as c:
            out = c.evaluate({"kind": "geometry", "scale": 1.05})
        assert out.ok

    def test_result_timeout_raises(self, served, held):
        with ServeClient(served.url) as c:
            handle = c.submit(EvalRequest(kind="geometry", scale=2.22))
            with pytest.raises(TimeoutError):
                c.result(handle.job_id, timeout_s=0.3)
            held()
            assert c.result(handle.job_id).ok
