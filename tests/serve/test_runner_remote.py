"""Remote SweepRunner tests: a sweep pointed at a server produces a
byte-identical result store to the same sweep evaluated locally, and
leaves the same content-store entries."""

import filecmp
import json

import pytest

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


#: One space per stage evaluator kind besides ``link`` (:func:`_spec`);
#: the geometry space's chiplet counts are an integral grid range
#: (2.0, 4.0, 6.0, 8.0), which every request normalizes to ints.
STAGE_SPACES = {
    "geometry": SweepSpec(
        name="remote-geometry", design="glass_25d", evaluator="geometry",
        axes=(Axis("num_chiplets", lo=2, hi=8, num=4),
              Axis("arrangement", values=("grid", "hexagonal")))),
    "link_pdn": SweepSpec(
        name="remote-link-pdn", design="glass_3d", evaluator="link_pdn",
        axes=(Axis("dielectric_thickness_um", values=(10.0, 20.0)),
              Axis("length_um", values=(500.0, 1500.0)))),
}


def _assert_local_and_remote_equal(spec, url, tmp_path):
    """Run ``spec`` locally and on the server; every row must succeed
    and the two ``points.jsonl`` be byte-identical."""
    local = SweepRunner(spec, out_dir=tmp_path / "local")
    local_records = local.run()
    remote = SweepRunner(spec, out_dir=tmp_path / "remote",
                         server_url=url)
    remote_records = remote.run()
    assert len(local_records) == len(remote_records) == len(spec.points())
    assert all(r["error"] is None for r in local_records)
    assert filecmp.cmp(tmp_path / "local" / "points.jsonl",
                       tmp_path / "remote" / "points.jsonl",
                       shallow=False)


class TestRemoteSweep:
    def test_points_jsonl_byte_identical_to_local(self, served,
                                                  tmp_path):
        _assert_local_and_remote_equal(_spec(), served.url, tmp_path)

    @pytest.mark.parametrize("kind", sorted(STAGE_SPACES))
    def test_every_stage_kind_byte_identical_to_local(self, served,
                                                      tmp_path, kind):
        _assert_local_and_remote_equal(STAGE_SPACES[kind], served.url,
                                       tmp_path)

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
        assert stores == [stores[0]] * 4
        assert cached == [[False, False]] * 2 + [[True, True]] * 2


def _entries(root):
    return {p.name: p.read_bytes() for p in root.glob("cas-*.pkl")}


@pytest.mark.parametrize("kind", ["flow", "geometry", "link_pdn"])
def test_local_and_served_sweeps_leave_the_same_store(tmp_path,
                                                      monkeypatch, kind):
    """Whoever evaluates a point, its caller stores it under the same
    name and bytes: stage outcomes included."""
    spec = dict(STAGE_SPACES, flow=TestRemoteFlowSweep.SPEC)[kind]
    monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "local"))
    shutdown_pool()
    try:
        SweepRunner(spec, out_dir=tmp_path / "l").run()
        with start_in_thread(ServerConfig(
                port=0, workers=1,
                cache_dir=tmp_path / "served")) as handle:
            SweepRunner(spec, out_dir=tmp_path / "r",
                        server_url=handle.url).run()
    finally:
        shutdown_pool()
    local = _entries(tmp_path / "local")
    assert len(local) == len(spec.points())
    assert local == _entries(tmp_path / "served")
