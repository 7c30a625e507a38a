"""N-chiplet topology sweep end to end: local, served, and reported.

The acceptance path for the topology axes (GUIDE section 15): one
sweep spanning ``num_chiplets`` up to the 9-die hexagonal point runs
through the local runner, byte-identically through a live evaluation
server (``--server``), and renders a deterministic report — the same
three surfaces the committed ``examples/spaces/nchiplet_scaling.yaml``
study uses.
"""

import filecmp

from repro.__main__ import main
from repro.dse.runner import SweepRunner
from repro.dse.space import Axis, SweepSpec
from repro.serve import ServerConfig, start_in_thread

SPACE_YAML = """\
name: nchiplet-smoke
design: glass_25d
evaluator: geometry
axes:
  - name: num_chiplets
    values: [2, 4, 9]
  - name: arrangement
    values: [grid, hexagonal]
objectives:
  interposer_area_mm2: min
"""


def _spec():
    return SweepSpec(
        name="nchiplet-smoke", design="glass_25d",
        evaluator="geometry",
        axes=(Axis("num_chiplets", values=(2, 4, 9)),
              Axis("arrangement", values=("grid", "hexagonal"))))


class TestNchipletSweepSurfaces:
    def test_local_cli_sweep_and_report(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--space", str(space),
                     "--out", str(out_dir)]) == 0
        points = (out_dir / "points.jsonl").read_text().splitlines()
        assert len(points) == 6  # 3 counts x 2 arrangements
        assert any('"num_chiplets":9' in p
                   and '"arrangement":"hexagonal"' in p
                   for p in points)
        capsys.readouterr()
        assert main(["report", "--sweep", str(out_dir)]) == 0
        report_dir = out_dir / "report"
        assert (report_dir / "report.md").exists()
        assert (report_dir / "report.json").exists()

    def test_server_path_byte_identical_to_local(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "cache"))
        with start_in_thread(ServerConfig(port=0, workers=1)) as served:
            local = SweepRunner(_spec(), out_dir=tmp_path / "local")
            local_records = local.run()
            remote = SweepRunner(_spec(), out_dir=tmp_path / "remote",
                                 server_url=served.url)
            remote_records = remote.run()
        assert len(local_records) == len(remote_records) == 6
        assert all(r["error"] is None for r in local_records)
        assert filecmp.cmp(tmp_path / "local" / "points.jsonl",
                           tmp_path / "remote" / "points.jsonl",
                           shallow=False)

    def test_report_is_deterministic(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        store = tmp_path / "sweep"
        assert main(["sweep", "--space", str(space),
                     "--out", str(store)]) == 0
        capsys.readouterr()
        out_a = tmp_path / "report_a"
        out_b = tmp_path / "report_b"
        assert main(["report", "--sweep", str(store),
                     "--out", str(out_a)]) == 0
        assert main(["report", "--sweep", str(store),
                     "--out", str(out_b)]) == 0
        for name in ("report.md", "report.json"):
            assert (out_a / name).read_bytes() \
                == (out_b / name).read_bytes()
        svgs = sorted(p.name for p in out_a.glob("*.svg"))
        assert svgs
        for name in svgs:
            assert (out_a / name).read_bytes() \
                == (out_b / name).read_bytes()
