"""Content-addressed store tests: round trips, the store as the flow's
one persistent tier, and LRU garbage collection."""

import os
import time

import pytest

from repro.core.flow import run_flow_task
from repro.core.store import cached_outcomes
from repro.serve.protocol import (EvalRequest, canonical_dumps,
                                  execute_request)
from repro.serve.store import ContentStore


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
    return ContentStore()


class TestRoundTrip:
    def test_put_get(self, store):
        req = EvalRequest(kind="geometry")
        out = execute_request(req)
        assert store.get(req) is None  # cold
        payload = store.put(req, out)
        assert payload is not None
        hit = store.get(req)
        assert hit is not None
        assert hit.metrics == out.metrics
        # Stored form is canonical: provenance fields zeroed.
        assert hit.cached is False and hit.wall_s == 0.0

    def test_get_bytes_matches_put_payload(self, store):
        req = EvalRequest(kind="geometry")
        payload = store.put(req, execute_request(req))
        assert store.get_bytes(req.cache_token()) == payload

    def test_error_results_not_stored(self, store):
        req = EvalRequest(kind="geometry")
        bad = execute_request(req)
        bad.error_type = "RuntimeError"
        assert store.put(req, bad) is None
        assert store.get(req) is None

    def test_corrupt_entry_is_a_miss(self, store):
        req = EvalRequest(kind="geometry")
        store.put(req, execute_request(req))
        store.path_for(req.cache_token()).write_bytes(b"not a pickle")
        assert store.get(req) is None

    def test_disabled_cache_noops(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        disabled = ContentStore()
        req = EvalRequest(kind="geometry")
        assert disabled.put(req, execute_request(req)) is None
        assert disabled.get(req) is None
        assert disabled.stats().entries == 0


class TestOneTier:
    def test_flow_task_point_is_a_store_hit(self, store):
        req = EvalRequest(design="glass_3d", scale=0.012,
                          with_eyes=False, with_thermal=False)
        # A local (non-service) caller evaluates and writes the one
        # entry, which answers the next caller.
        direct, = cached_outcomes(run_flow_task, [req])
        assert direct.ok and not direct.cached
        hit, = cached_outcomes(run_flow_task, [req])
        assert hit.ok and hit.cached
        assert hit.metrics == direct.metrics
        assert hit.metrics["design"] == "glass_3d"
        assert store.get_bytes(req.cache_token()) == canonical_dumps(
            execute_request(req).canonical())
        assert sorted(p.name for p in store.root.iterdir()) == [
            f"cas-{req.cache_token()}.pkl"]
        assert store.gc(0)[0] == 1
        assert store.get(req) is None


class TestGc:
    def _fill(self, store, n):
        reqs = [EvalRequest(kind="geometry", scale=1.0 + i)
                for i in range(n)]
        for req in reqs:
            store.put(req, execute_request(req))
        return reqs

    def test_gc_to_zero_removes_everything(self, store):
        self._fill(store, 3)
        removed, freed = store.gc(0)
        assert removed == 3 and freed > 0
        assert store.stats().entries == 0

    def test_gc_evicts_least_recently_used_first(self, store):
        reqs = self._fill(store, 3)
        # Age entries distinctly, then touch the oldest via a read.
        now = time.time()
        for i, req in enumerate(reqs):
            path = store.path_for(req.cache_token())
            os.utime(path, (now - 100 + i, now - 100 + i))
        store.get(reqs[0])  # refresh entry 0's recency
        sizes = [store.path_for(r.cache_token()).stat().st_size
                 for r in reqs]
        keep_two = sizes[0] + sizes[2]
        removed, _freed = store.gc(keep_two)
        assert removed >= 1
        assert store.get_bytes(reqs[0].cache_token()) is not None
        assert store.get_bytes(reqs[1].cache_token()) is None

    def test_negative_budget_rejected(self, store):
        with pytest.raises(ValueError):
            store.gc(-1)
