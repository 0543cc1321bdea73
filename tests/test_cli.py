"""Tests for repro.cli: the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import DATASETS, build_parser, load_graph, main
from repro.kg import save_ntriples


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["search", "gump"])
        assert args.command == "search"
        for command in ("stats", "profile", "explain", "recommend", "matrix", "explore"):
            assert command in parser.format_help()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_registry(self):
        assert {"movies", "movies-small", "academic", "geography"} <= set(DATASETS)


class TestLoadGraph:
    def test_builtin_dataset(self):
        graph = load_graph("geography", None)
        assert "dbr:France" in graph

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            load_graph("nope", None)

    def test_graph_file_overrides_dataset(self, tiny_kg, tmp_path):
        path = tmp_path / "tiny.nt"
        save_ntriples(tiny_kg, path)
        graph = load_graph("movies", str(path))
        assert "ex:F1" in graph


class TestCommands:
    """Each command is exercised end-to-end on the small movie dataset."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    def test_stats(self, capsys):
        assert self.run("stats") == 0
        assert "Knowledge graph" in capsys.readouterr().out

    def test_search(self, capsys):
        assert self.run("search", "forrest gump", "--top-k", "3") == 0
        out = capsys.readouterr().out
        assert "Forrest Gump" in out

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_search_refuses_a_non_positive_top_k(self, top_k, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self.run("search", "forrest gump", "--top-k", top_k)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "must be at least 1" in captured.err
        assert "Forrest Gump" not in captured.out

    def test_search_no_results(self, capsys):
        assert self.run("search", "zzzzqqqq") == 0
        assert "no matching entities" in capsys.readouterr().out

    def test_recommend(self, capsys):
        assert self.run("recommend", "dbr:Forrest_Gump", "dbr:Apollo_13_(film)") == 0
        out = capsys.readouterr().out
        assert "entities:" in out and "semantic features:" in out
        assert "Tom_Hanks" in out

    def test_recommend_with_pinned_feature(self, capsys):
        code = self.run(
            "recommend", "dbr:Forrest_Gump", "--feature", "dbr:Tom_Hanks:dbo:starring"
        )
        assert code == 0
        assert "dbr:Tom_Hanks:dbo:starring" in capsys.readouterr().out

    def test_matrix(self, capsys):
        assert self.run("matrix", "dbr:Forrest_Gump", "--top-entities", "4") == 0
        out = capsys.readouterr().out
        assert "levels:" in out

    def test_profile(self, capsys):
        assert self.run("profile", "dbr:Forrest_Gump") == 0
        out = capsys.readouterr().out
        assert "Forrest Gump" in out and "wikipedia" in out

    def test_explain(self, capsys):
        assert self.run("explain", "dbr:Forrest_Gump", "dbr:Apollo_13_(film)") == 0
        assert "Tom Hanks" in capsys.readouterr().out

    def test_explore(self, capsys):
        code = self.run(
            "explore",
            "forrest gump",
            "--select",
            "dbr:Forrest_Gump",
            "--pivot",
            "dbr:Tom_Hanks",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "exploratory path" in out
        assert "pivot" in out

    def test_error_returns_nonzero(self, capsys):
        assert self.run("profile", "dbr:Not_A_Thing") == 1
        assert "error: EntityNotFoundError:" in capsys.readouterr().err

    def test_an_unusable_saved_system_is_an_error(self, tmp_path, capsys):
        assert main(["load", str(tmp_path / "nothing-here")]) == 1
        assert "error: SnapshotUnavailable:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [OSError, ValueError])
    def test_expected_errors_are_reported(self, monkeypatch, capsys, kind):
        def failing(args):
            raise kind("boom")

        monkeypatch.setattr("repro.cli.run_command", failing)
        assert self.run("stats") == 1
        assert capsys.readouterr().err == f"error: {kind.__name__}: boom\n"

    def test_an_unexpected_error_is_not_swallowed(self, monkeypatch):
        def failing(args):
            raise ZeroDivisionError("a fault")

        monkeypatch.setattr("repro.cli.run_command", failing)
        with pytest.raises(ZeroDivisionError):
            self.run("stats")


class TestPruningFlags:
    """The ``--show-pruning`` operator surface."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    def test_show_pruning_dumps_counters_after_search(self, capsys):
        code = self.run("--show-pruning", "search", "forrest gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning mode" not in out
        assert "blocks_" not in out
        assert "pruning[search]:" in out
        assert "pruning[recommend]:" in out
        assert "'queries': 1" in out

    def test_show_pruning_dumps_counters_after_recommend(self, capsys):
        code = self.run("--show-pruning", "recommend", "dbr:Forrest_Gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning[recommend]:" in out

    def test_help_lists_no_pruning_flag(self):
        assert "--pruning" not in build_parser().format_help()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--pruning", "off"),
            ("--pruning", "maxscore"),
            ("--columnar", "off"),
            ("--feature-chunk", "2"),
            ("--shards", "2"),
            ("--executor", "thread"),
            ("--workers", "2"),
            ("--storage", "off"),
        ],
    )
    def test_removed_execution_flags_are_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args([flag, value, "search", "x"])


class TestTraversalCounters:
    """``--show-pruning`` also prints the graph's traversal counters."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    def test_show_pruning_dumps_traversal_counters(self, capsys):
        code = self.run("--show-pruning", "recommend", "dbr:Forrest_Gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "traversal[topology]:" in out
        assert "'rebuilds':" in out

    def test_there_is_no_topology_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--graph-topology", "on", "search", "x"])


class TestSnapshotAndBatchFlags:
    """The ``--snapshot-dir`` / ``search --batch`` operator surface."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    @staticmethod
    def contents(directory) -> dict[str, bytes]:
        return {
            str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*"))
            if path.is_file()
        }

    @pytest.mark.parametrize("flag, value", [("--snapshot-dir", None)])
    def test_execution_flag_leaves_recommendations_unchanged(
        self, flag, value, tmp_path, capsys
    ):
        assert self.run("recommend", "dbr:Forrest_Gump") == 0
        expected = capsys.readouterr().out
        assert "entities:" in expected
        value = value if value is not None else str(tmp_path / "snapshots")
        assert self.run(flag, value, "recommend", "dbr:Forrest_Gump") == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", [("search", "forrest gump"), ("recommend", "dbr:Forrest_Gump")])
    def test_query_commands_never_write_the_snapshot_dir(self, command, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert self.run("--snapshot-dir", str(empty), *command) == 0
        assert self.contents(empty) == {}

        other = tmp_path / "other"
        assert main(["--dataset", "academic", "save", str(other)]) == 0
        saved = self.contents(other)
        assert self.run("--snapshot-dir", str(other), *command) == 0
        assert self.contents(other) == saved

    def test_save_and_load_fall_back_to_the_snapshot_dir(self, tmp_path, capsys):
        directory = str(tmp_path / "system")
        assert self.run("--snapshot-dir", directory, "save") == 0
        assert capsys.readouterr().out.startswith(f"saved {directory}:")
        assert self.run("--snapshot-dir", directory, "load") == 0
        assert capsys.readouterr().out.startswith(f"loaded {directory}:")
        with pytest.raises(SystemExit, match="needs a directory"):
            self.run("save")

    def test_batch_reads_one_query_per_line(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("forrest gump\n\ntom hanks\nforrest gump\n")
        assert self.run("search", "--batch", str(batch), "--top-k", "2") == 0
        out = capsys.readouterr().out
        # Three non-blank queries, each echoed with its own hit block.
        assert out.count("query:") == 3
        assert out.count("query: forrest gump") == 2
        assert "Forrest Gump" in out

    def test_batch_matches_one_query_at_a_time(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("forrest gump\ntom hanks\n")
        assert self.run("search", "--batch", str(batch), "--top-k", "3") == 0
        batched_out = capsys.readouterr().out
        blocks = []
        for query in ("forrest gump", "tom hanks"):
            assert self.run("search", query, "--top-k", "3") == 0
            blocks.append(f"query: {query}\n{capsys.readouterr().out}")
        assert batched_out == "\n".join(blocks)

    def test_batch_empty_input(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("\n\n")
        assert self.run("search", "--batch", str(batch)) == 0
        assert "no queries" in capsys.readouterr().out

    def test_batch_reads_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("forrest gump\n"))
        assert self.run("search", "--batch", "-", "--top-k", "2") == 0
        assert "query: forrest gump" in capsys.readouterr().out
