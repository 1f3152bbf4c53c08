"""Tests for the command-line interface."""

import pytest

from repro.bench import BENCHES
from repro.cli import _load_graph, _parse_node, main


def _trim(monkeypatch, name, **fields):
    """Swap a registry entry's pinned config for a trimmed copy."""
    from dataclasses import replace

    bench = BENCHES[name]
    monkeypatch.setattr(bench, "config", replace(bench.config, **fields))


class TestParsing:
    def test_parse_tuple_node(self):
        assert _parse_node("(0, 0)") == (0, 0)

    def test_parse_int_node(self):
        assert _parse_node("7") == 7

    def test_parse_string_fallback(self):
        assert _parse_node("downtown-exit") == "downtown-exit"

    def test_load_grid(self):
        graph = _load_graph("grid:5:uniform")
        assert graph.node_count == 25

    def test_load_grid_defaults(self):
        graph = _load_graph("grid:4")
        assert "variance" in graph.name

    def test_load_minneapolis(self):
        graph = _load_graph("minneapolis")
        assert graph.node_count == 1089

    def test_load_json(self, tmp_path, tiny_graph):
        from repro.graphs.io import save_json

        path = tmp_path / "g.json"
        save_json(tiny_graph, path)
        graph = _load_graph(f"json:{path}")
        assert graph.node_count == tiny_graph.node_count

    @pytest.mark.parametrize("spec", ["nope:1", "grid", "json"])
    def test_bad_specs_exit(self, spec):
        with pytest.raises(SystemExit):
            _load_graph(spec)


class TestCommands:
    def test_route(self, capsys):
        code = main(
            ["route", "--graph", "grid:6:uniform", "--algorithm", "dijkstra",
             "(0, 0)", "(5, 5)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 10.0000" in out

    def test_route_show_path(self, capsys):
        main(["route", "--graph", "grid:4:uniform", "--show-path",
              "(0, 0)", "(0, 3)"])
        out = capsys.readouterr().out
        assert "(0, 0) -> " in out

    def test_route_unreachable_exit_code(self, tmp_path, disconnected_graph):
        from repro.graphs.io import save_json

        path = tmp_path / "g.json"
        save_json(disconnected_graph, path)
        code = main(["route", "--graph", f"json:{path}", "a", "z"])
        assert code == 1

    def test_route_with_landmarks(self, capsys):
        code = main(["route", "--graph", "minneapolis", "G", "D"])
        assert code == 0
        assert "cost" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(["compare", "--graph", "grid:6:uniform", "(0, 0)", "(5, 5)"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("iterative", "dijkstra", "astar-v3"):
            assert name in out

    def test_alternatives(self, capsys):
        code = main(
            ["alternatives", "--graph", "grid:5:uniform", "-k", "3",
             "(0, 0)", "(4, 4)"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("cost") == 3

    def test_alternatives_diverse(self, capsys):
        code = main(
            ["alternatives", "--graph", "grid:5:uniform", "-k", "2",
             "--diverse", "--max-overlap", "0.5", "(0, 0)", "(4, 4)"]
        )
        assert code == 0

    def test_info(self, capsys):
        code = main(["info", "--graph", "grid:5:uniform"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes:       25" in out
        assert "hop diameter" in out

    def test_experiment_command(self, capsys):
        code = main(["experiment", "E10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trade-off" in out.lower()

    def test_bench_chaos_memory_backend(self, capsys):
        code = main([
            "bench-chaos", "--graph", "grid:6:variance",
            "--backend", "memory", "--algorithm", "astar", "--rounds", "3",
        ])
        assert code == 0
        assert "unflagged wrong answers: 0" in capsys.readouterr().out

    def test_bench_recovery(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "audit.json"
        code = main([
            "bench-recovery", "--workloads", "insert",
            "--kill-points", "4", "--tuples", "8",
            "--updates", "2", "--deletes", "1",
            "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survival: 100.0%" in out
        audit = json.loads(out_path.read_text())
        assert audit["failures"] == []
        assert audit["workloads"] == ["insert"]

    def test_bench_recovery_json_output(self, capsys):
        import json

        code = main([
            "bench-recovery", "--workloads", "insert",
            "--kill-points", "3", "--tuples", "6",
            "--updates", "1", "--deletes", "1", "--json",
        ])
        assert code == 0
        audit = json.loads(capsys.readouterr().out)
        assert audit["survival"] == 1.0

    def test_bench_wallclock(self, tmp_path, capsys, monkeypatch):
        import json

        _trim(monkeypatch, "wallclock", grid=8, repetitions=1,
              batch_size=4, landmark_count=2)
        # A trimmed workload's ratio is not the pinned one; the floor
        # has its own test below.
        monkeypatch.setattr(BENCHES["wallclock"], "floors", {})
        out_path = tmp_path / "wallclock.json"
        code = main(["bench", "wallclock", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dijkstra/csr-warm" in out
        assert "speedup dijkstra_csr_vs_generic" in out
        report = json.loads(out_path.read_text())
        assert report["workload"]["grid"] == 8
        assert "dijkstra/generic" in report["scenarios"]
        assert "dijkstra_csr_vs_generic" in report["speedups"]

    def test_bench_fleet(self, tmp_path, capsys, monkeypatch):
        import json

        _trim(monkeypatch, "fleet", grid=6, queries=80, rounds=2,
              concurrency=2, layouts=("2x2", "1x2"))
        out_path = tmp_path / "fleet.json"
        code = main(["bench", "fleet", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit: clean" in out
        report = json.loads(out_path.read_text())
        assert set(report["layouts"]) == {"2x2", "1x2"}
        for entry in report["layouts"].values():
            assert entry["summary"]["inexact"] == 0
            assert entry["summary"]["queries"] == 80

    def test_bench_fleet_rejects_empty_layouts(self, tmp_path, capsys,
                                               monkeypatch):
        # A config with no layouts would audit clean vacuously: the
        # writer refuses it and nothing is written.
        _trim(monkeypatch, "fleet", layouts=())
        out_path = tmp_path / "fleet.json"
        code = main(["bench", "fleet", "--out", str(out_path)])
        assert code == 1
        assert "no layouts" in capsys.readouterr().err
        assert not out_path.exists()

    def test_bench_wallclock_min_speedup_gate(self, tmp_path, capsys,
                                              monkeypatch):
        import json

        # An impossible floor must fail the run (the CI gate contract);
        # the complete, audited report is still written.
        _trim(monkeypatch, "wallclock", grid=8, repetitions=1,
              batch_size=4, landmark_count=2)
        monkeypatch.setattr(
            BENCHES["wallclock"], "floors", {"dijkstra_csr_vs_generic": 1000.0}
        )
        out_path = tmp_path / "wallclock.json"
        code = main(["bench", "wallclock", "--out", str(out_path)])
        assert code == 1
        assert "FAIL: speedup dijkstra_csr_vs_generic" in capsys.readouterr().err
        report = json.loads(out_path.read_text())
        assert set(report["scenarios"]) >= {"dijkstra/generic", "plan_many/warm"}

    def test_bench_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            main(["bench", "nope"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
