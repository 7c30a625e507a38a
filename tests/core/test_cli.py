"""CLI entry-point tests (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_single_design(self, capsys):
        rc = main(["glass_3d", "--scale", "0.015", "--no-eyes",
                   "--no-thermal"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "glass_3d" in out
        assert "PDN Z" in out

    def test_monolithic(self, capsys):
        rc = main(["monolithic", "--scale", "0.015"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2D monolithic baseline" in out
        assert "footprint" in out

    def test_rejects_unknown_design(self, capsys):
        rc = main(["fr4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown design or subcommand")
        assert "fr4" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_design_alias_accepted(self, capsys):
        # get_spec-style aliases (case/punctuation variants) resolve.
        rc = main(["Silicon_3D", "--scale", "0.015", "--no-eyes",
                   "--no-thermal"])
        assert rc == 0
        assert "silicon_3d" in capsys.readouterr().out

    def test_seed_threaded_to_flow(self, capsys):
        rc = main(["silicon_3d", "--scale", "0.015", "--seed", "11",
                   "--no-eyes", "--no-thermal"])
        assert rc == 0
        assert "silicon_3d" in capsys.readouterr().out

    def test_profile_writes_dumps(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["glass_3d", "--scale", "0.015", "--no-eyes",
                   "--no-thermal", "--profile"])
        assert rc == 0
        assert (tmp_path / "results" / "profile_glass_3d.pstats").exists()
        summary = tmp_path / "results" / "profile_glass_3d.txt"
        assert "cumulative" in summary.read_text()
        out = capsys.readouterr().out
        assert "glass_3d" in out
        # --profile also prints the per-stage solver-counter table.
        assert "solver counters per stage" in out
        assert "chiplets" in out
        assert "channels" in out
        assert "total" in out

    def test_profile_solver_table_counts_transients(self, tmp_path,
                                                    capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["glass_3d", "--scale", "0.015", "--no-thermal",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tran solve" in out
        # The eye stage runs transient solves; its row must show a
        # nonzero count in the "tran solve" column.
        eye_row = next(l for l in out.splitlines()
                       if l.strip().startswith("eyes"))
        assert any(int(tok) > 0 for tok in eye_row.split()[1:]
                   if tok.isdigit())


SPACE_YAML = """\
name: cli-smoke
design: glass_25d
evaluator: link
length_um: 1000
axes:
  - name: min_wire_width_um
    values: [1.0, 2.0]
    tied: [min_wire_space_um]
objectives:
  delay_ps: min
  power_uw: min
"""


class TestSweepCli:
    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", "--space", str(space),
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert (out_dir / "points.jsonl").exists()
        assert (out_dir / "manifest.json").exists()

    def test_sweep_resume_second_call(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--space", str(space), "--out",
                     str(out_dir), "--limit", "1"]) == 0
        points = out_dir / "points.jsonl"
        assert len(points.read_text().splitlines()) == 1
        assert main(["sweep", "--space", str(space), "--out",
                     str(out_dir), "--resume"]) == 0
        assert len(points.read_text().splitlines()) == 2

    def test_sweep_profile_writes_dumps(self, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        rc = main(["sweep", "--space", str(space),
                   "--out", str(tmp_path / "sweep"), "--profile"])
        assert rc == 0
        pstats_path = (tmp_path / "results"
                       / "profile_sweep_cli-smoke.pstats")
        assert pstats_path.exists()
        summary = tmp_path / "results" / "profile_sweep_cli-smoke.txt"
        assert "cumulative" in summary.read_text()
        assert "profile:" in capsys.readouterr().err

    def test_sweep_requires_space(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_missing_space_file_one_line_error(self, tmp_path, capsys):
        rc = main(["sweep", "--space", str(tmp_path / "nope.yaml")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad space file")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_space_file_one_line_error(self, tmp_path,
                                                 capsys):
        space = tmp_path / "broken.yaml"
        space.write_text("name: [unclosed\n  - ][ {{\n")
        rc = main(["sweep", "--space", str(space)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad space file")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_spec_one_line_error(self, tmp_path, capsys):
        space = tmp_path / "bad.json"
        space.write_text('{"name": "t", "evaluator": "spice", '
                         '"axes": [{"name": "scale", '
                         '"values": [0.02]}]}')
        rc = main(["sweep", "--space", str(space)])
        assert rc == 2
        assert "error: bad space file" in capsys.readouterr().err


MF_SPACE_YAML = SPACE_YAML + """\
fidelity:
  rungs:
    - evaluator: geometry
      objectives:
        interposer_area_mm2: min
      policy:
        top_k: 1
"""


class TestMultiFidelityCli:
    def test_ladder_runs_and_logs_funnel(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(MF_SPACE_YAML)
        out_dir = tmp_path / "mf"
        rc = main(["sweep", "--space", str(space),
                   "--out", str(out_dir)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "multi-fidelity sweep cli-smoke" in err
        assert "ladder geometry -> link" in err
        assert "promoted" in err and "pruned" in err
        assert (out_dir / "fidelity.json").exists()
        assert (out_dir / "rung0_geometry" / "points.jsonl").exists()
        assert (out_dir / "rung1_link" / "points.jsonl").exists()

    def test_interrupted_ladder_exits_nonzero(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(MF_SPACE_YAML)
        out_dir = tmp_path / "mf"
        rc = main(["sweep", "--space", str(space),
                   "--out", str(out_dir), "--limit", "1"])
        assert rc == 1
        assert "STOPPED" in capsys.readouterr().err
        rc = main(["sweep", "--space", str(space),
                   "--out", str(out_dir), "--resume"])
        assert rc == 0


class TestReportCli:
    def test_report_on_sweep_dir(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--space", str(space),
                     "--out", str(out_dir)]) == 0
        capsys.readouterr()
        rc = main(["report", "--sweep", str(out_dir)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "report:" in err and "summary:" in err
        report_dir = out_dir / "report"
        assert (report_dir / "report.md").exists()
        assert (report_dir / "report.json").exists()
        assert (report_dir / "fig_pareto.svg").exists()

    def test_report_out_dir_override(self, tmp_path, capsys):
        space = tmp_path / "space.yaml"
        space.write_text(MF_SPACE_YAML)
        store = tmp_path / "mf"
        assert main(["sweep", "--space", str(space),
                     "--out", str(store)]) == 0
        capsys.readouterr()
        out = tmp_path / "published"
        assert main(["report", "--sweep", str(store),
                     "--out", str(out)]) == 0
        assert (out / "report.md").exists()
        assert (out / "fig_funnel.svg").exists()

    def test_report_on_non_store_one_line_error(self, tmp_path, capsys):
        rc = main(["report", "--sweep", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot report on")
        assert "Traceback" not in err


def _one_line_error(capsys) -> str:
    """Assert the captured stderr is exactly one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


class TestServeCacheCliErrors:
    """Operational errors of the serve/cache subcommands: exit 2 with
    a single-line ``error:`` message, never a traceback or usage dump
    (same convention as sweep/report)."""

    def test_serve_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--workers", "0"])
        assert exc.value.code == 2
        assert "workers must be >= 1" in _one_line_error(capsys)

    def test_serve_port_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "70000"])
        assert exc.value.code == 2
        assert "port must be in [0, 65535]" in _one_line_error(capsys)

    def test_serve_non_integer_port(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "eighty"])
        assert exc.value.code == 2
        assert "invalid int value" in _one_line_error(capsys)

    def test_serve_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--replicas", "3"])
        assert exc.value.code == 2
        _one_line_error(capsys)

    def test_cache_gc_without_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--gc"])
        assert exc.value.code == 2
        assert "--gc requires --max-bytes" in _one_line_error(capsys)

    def test_cache_budget_without_gc(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--max-bytes", "1024"])
        assert exc.value.code == 2
        assert "--max-bytes only applies with --gc" \
            in _one_line_error(capsys)

    def test_cache_negative_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--gc", "--max-bytes", "-1"])
        assert exc.value.code == 2
        assert "--max-bytes must be >= 0" in _one_line_error(capsys)

    def test_cache_disabled_store(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE", "0")
        rc = main(["cache"])
        assert rc == 2
        assert "flow cache is disabled" in _one_line_error(capsys)

    def test_sweep_server_rejects_fidelity_space(self, tmp_path,
                                                 capsys):
        space = tmp_path / "space.yaml"
        space.write_text(MF_SPACE_YAML)
        rc = main(["sweep", "--space", str(space),
                   "--server", "http://127.0.0.1:1"])
        assert rc == 2
        assert "--server supports plain sweeps only" \
            in _one_line_error(capsys)

    def test_sweep_server_unreachable_one_line_error(self, tmp_path,
                                                     capsys):
        space = tmp_path / "space.yaml"
        space.write_text(SPACE_YAML)
        rc = main(["sweep", "--space", str(space),
                   "--out", str(tmp_path / "s"),
                   "--server", "http://127.0.0.1:1"])
        assert rc == 2
        assert "cannot reach server" in capsys.readouterr().err


class TestCacheCli:
    def test_stats_and_gc_round_trip(self, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_CACHE",
                           str(tmp_path / "cache"))
        from repro.serve.protocol import EvalRequest, execute_request
        from repro.serve.store import ContentStore
        store = ContentStore()
        req = EvalRequest(kind="geometry")
        store.put(req, execute_request(req))
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "Shared result cache" in out
        assert ["entries", "|", "1"] in [line.split()
                                         for line in out.splitlines()]
        assert main(["cache", "--gc", "--max-bytes", "0"]) == 0
        captured = capsys.readouterr()
        assert "gc: removed 1 entries" in captured.err
        assert store.stats().entries == 0


class TestTopologyCli:
    """The --num-chiplets/--arrangement axes: rejected with the
    one-line error convention when out of range, threaded into the
    flow when valid."""

    def test_num_chiplets_out_of_range(self, capsys):
        rc = main(["glass_25d", "--num-chiplets", "1"])
        assert rc == 2
        assert "num_chiplets must be between" in _one_line_error(capsys)

    def test_num_chiplets_above_max(self, capsys):
        rc = main(["glass_25d", "--num-chiplets", "65"])
        assert rc == 2
        assert "num_chiplets must be between" in _one_line_error(capsys)

    def test_unknown_arrangement(self, capsys):
        rc = main(["glass_25d", "--arrangement", "ring"])
        assert rc == 2
        err = _one_line_error(capsys)
        assert "unknown arrangement 'ring'" in err
        assert "hexagonal" in err  # the message lists the choices

    def test_non_integer_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["glass_25d", "--num-chiplets", "two"])
        assert exc.value.code == 2

    def test_monolithic_conflict(self, capsys):
        rc = main(["monolithic", "--num-chiplets", "4"])
        assert rc == 2
        assert "monolithic baseline has no chiplets" \
            in _one_line_error(capsys)

    def test_stacked_needs_embedding(self, capsys):
        rc = main(["silicon_25d", "--arrangement", "stacked"])
        assert rc == 2
        assert "cannot embed dies" in _one_line_error(capsys)

    def test_stacked_all_names_offenders(self, capsys):
        rc = main(["all", "--arrangement", "stacked",
                   "--num-chiplets", "4"])
        assert rc == 2
        err = _one_line_error(capsys)
        assert "silicon_25d" in err and "shinko" in err and "apx" in err

    def test_nchiplet_run_threads_topology(self, capsys):
        rc = main(["glass_25d", "--scale", "0.015", "--no-eyes",
                   "--no-thermal", "--num-chiplets", "3",
                   "--arrangement", "row"])
        assert rc == 0
        assert "glass_25d" in capsys.readouterr().out
