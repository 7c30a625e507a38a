"""Remote SweepRunner tests: a sweep pointed at a server produces a
byte-identical result store to the same sweep evaluated locally."""

import filecmp
import json

import pytest

from repro.core.flow import clear_cache
from repro.core.pool import shutdown_pool
from repro.dse.runner import SweepRunner
from repro.dse.space import Axis, SweepSpec
from repro.serve import ServerConfig, start_in_thread


@pytest.fixture()
def served(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
    with start_in_thread(ServerConfig(port=0, workers=1)) as handle:
        yield handle


def _spec():
    return SweepSpec(
        name="remote-smoke", design="glass_25d", evaluator="link",
        length_um=1000.0,
        axes=(Axis("min_wire_width_um", values=(1.0, 2.0),
                   tied=("min_wire_space_um",)),
              Axis("length_um", values=(800.0, 1600.0))))


class TestRemoteSweep:
    def test_points_jsonl_byte_identical_to_local(self, served,
                                                  tmp_path):
        local = SweepRunner(_spec(), out_dir=tmp_path / "local")
        local_records = local.run()
        remote = SweepRunner(_spec(), out_dir=tmp_path / "remote",
                             server_url=served.url)
        remote_records = remote.run()
        assert len(local_records) == len(remote_records) == 4
        assert filecmp.cmp(tmp_path / "local" / "points.jsonl",
                           tmp_path / "remote" / "points.jsonl",
                           shallow=False)

    def test_remote_errors_recorded_like_local(self, served, tmp_path):
        # Negative width fails spec validation; the error row must be
        # identical whether evaluated locally or on the server.
        spec = SweepSpec(
            name="remote-err", design="glass_25d", evaluator="link",
            axes=(Axis("min_wire_width_um", values=(2.0, -1.0)),))
        local = SweepRunner(spec, out_dir=tmp_path / "local")
        local_records = local.run()
        remote = SweepRunner(spec, out_dir=tmp_path / "remote",
                             server_url=served.url)
        remote_records = remote.run()
        assert local_records[1]["error"]["type"] == "ValueError"
        assert remote_records[1]["error"] == local_records[1]["error"]
        assert filecmp.cmp(tmp_path / "local" / "points.jsonl",
                           tmp_path / "remote" / "points.jsonl",
                           shallow=False)

    def test_server_url_conflicts_with_base_spec(self):
        from repro.tech.interposer import get_spec
        with pytest.raises(ValueError, match="base_spec is local-only"):
            SweepRunner(_spec(), persist=False,
                        base_spec=get_spec("glass_25d"),
                        server_url="http://127.0.0.1:1")

    def test_remote_rerun_hits_shared_tier(self, served, tmp_path):
        first = SweepRunner(_spec(), out_dir=tmp_path / "a",
                            server_url=served.url)
        first.run()
        # Fresh store, same server: every point is now a cache hit.
        second = SweepRunner(_spec(), out_dir=tmp_path / "b",
                             server_url=served.url)
        second.run()
        from repro.serve import ServeClient
        with ServeClient(served.url) as c:
            stats = c.stats()
        assert stats["evaluations_run"] == 4
        assert stats["cache"]["hits"] >= 4


class TestRemoteFlowSweep:
    """Flow points, computed once locally and once on a server with a
    store of its own: every ``points.jsonl`` is byte-identical, cold
    and then warm."""

    SPEC = SweepSpec(
        name="remote-flow", design="glass_3d", evaluator="flow",
        scale=0.012, seed=7,
        axes=(Axis("dielectric_thickness_um", values=(10.0, 15.0)),))

    def test_points_jsonl_byte_identical_cold_and_warm(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "local"))
        shutdown_pool()
        clear_cache()
        stores, cached = [], []
        with start_in_thread(ServerConfig(
                port=0, workers=1,
                cache_dir=tmp_path / "served")) as handle:
            for run in ("cold", "warm"):
                for where, url in (("local", None), ("remote", handle.url)):
                    runner = SweepRunner(self.SPEC,
                                         out_dir=tmp_path / run / where,
                                         server_url=url)
                    assert all(r["error"] is None for r in runner.run())
                    stores.append(runner.points_path.read_bytes())
                    cached.append([json.loads(line)["cached"] for line in
                                   runner.timings_path.read_text()
                                   .splitlines()])
        shutdown_pool()
        clear_cache()
        assert stores == [stores[0]] * 4
        assert cached == [[False, False]] * 2 + [[True, True]] * 2
