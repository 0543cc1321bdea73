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
        assert "error:" in capsys.readouterr().err


class TestPruningFlags:
    """The ``--pruning`` / ``--show-pruning`` operator surface."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    @pytest.mark.parametrize("mode", ["off", "maxscore"])
    def test_search_identical_across_modes(self, mode, capsys):
        assert self.run("--pruning", mode, "search", "forrest gump", "--top-k", "3") == 0
        out = capsys.readouterr().out
        assert "Forrest Gump" in out

    def test_show_pruning_dumps_counters_after_search(self, capsys):
        code = self.run("--pruning", "maxscore", "--show-pruning", "search", "forrest gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning mode: maxscore\n" in out
        assert "blocks_" not in out
        assert "pruning[search]:" in out
        assert "pruning[recommend]:" in out
        assert "'queries': 1" in out

    def test_show_pruning_dumps_counters_after_recommend(self, capsys):
        code = self.run("--show-pruning", "recommend", "dbr:Forrest_Gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning mode: maxscore" in out
        assert "pruning[recommend]:" in out

    def test_pruning_off_leaves_counters_silent(self, capsys):
        code = self.run("--pruning", "off", "--show-pruning", "search", "forrest gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "pruning mode: off" in out
        assert "'queries': 0" in out

    def test_unknown_pruning_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--pruning", "wand", "search", "x"])

    def test_build_config_threads_mode_to_both_engines(self):
        from repro.cli import build_config

        config = build_config("off")
        assert config.search.pruning == "off"
        assert config.ranking.pruning == "off"
        assert build_config(None).search.pruning == "maxscore"

    @pytest.mark.parametrize(
        "flag, value", [("--pruning", "blockmax"), ("--columnar", "off"), ("--feature-chunk", "2")]
    )
    def test_removed_execution_flags_are_rejected(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args([flag, value, "search", "x"])


class TestGraphTopologyFlag:
    """The PR 10 ``--graph-topology`` operator surface."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_recommend_identical_across_modes(self, mode, capsys):
        assert self.run("--graph-topology", mode, "recommend", "dbr:Forrest_Gump") == 0
        assert "entities:" in capsys.readouterr().out

    def test_show_pruning_dumps_traversal_counters(self, capsys):
        code = self.run("--show-pruning", "recommend", "dbr:Forrest_Gump")
        assert code == 0
        out = capsys.readouterr().out
        assert "traversal[topology]:" in out
        assert "'rebuilds':" in out

    def test_build_config_threads_knob_to_the_ranker_only(self):
        from repro.cli import build_config
        from repro.config import SearchConfig

        config = build_config(None, graph_topology="off")
        assert config.ranking.graph_topology is False
        assert config.search == SearchConfig()
        assert build_config(None, graph_topology="on").ranking.graph_topology is True
        assert build_config(None).ranking.graph_topology is True

    def test_unknown_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--graph-topology", "maybe", "search", "x"])


class TestShardAndBatchFlags:
    """The PR 5 ``--shards`` / ``search --batch`` operator surface."""

    def run(self, *argv: str) -> int:
        return main(["--dataset", "movies-small", *argv])

    @pytest.mark.parametrize("shards", ["1", "2", "4"])
    def test_search_identical_across_shard_counts(self, shards, capsys):
        assert self.run("--shards", shards, "search", "forrest gump", "--top-k", "3") == 0
        out = capsys.readouterr().out
        assert "Forrest Gump" in out

    def test_execution_flags_configure_the_search_engine_only(self, capsys):
        from repro.cli import build_config
        from repro.config import RankingConfig

        config = build_config(None, shards=3, executor="inline", workers=2)
        assert config.search.shards == 3
        assert (config.search.executor, config.search.workers) == ("inline", 2)
        assert config.ranking == RankingConfig()
        assert self.run("--shards", "3", "recommend", "dbr:Forrest_Gump") == 0
        assert "entities:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--shards", "3"),
            ("--executor", "thread"),
            ("--workers", "2"),
            ("--storage", "off"),
            ("--snapshot-dir", None),
        ],
    )
    def test_execution_flag_leaves_recommendations_unchanged(
        self, flag, value, tmp_path, capsys
    ):
        assert self.run("recommend", "dbr:Forrest_Gump") == 0
        expected = capsys.readouterr().out
        assert "entities:" in expected
        value = value if value is not None else str(tmp_path / "snapshots")
        assert self.run(flag, value, "recommend", "dbr:Forrest_Gump") == 0
        assert capsys.readouterr().out == expected

    def test_invalid_shard_count_is_an_error(self, capsys):
        assert self.run("--shards", "0", "search", "gump") == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_reads_one_query_per_line(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("forrest gump\n\ntom hanks\nforrest gump\n")
        assert self.run("search", "--batch", str(batch), "--top-k", "2") == 0
        out = capsys.readouterr().out
        # Three non-blank queries, each echoed with its own hit block.
        assert out.count("query:") == 3
        assert out.count("query: forrest gump") == 2
        assert "Forrest Gump" in out

    def test_batch_with_shards_matches_serial_output(self, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("forrest gump\ntom hanks\n")
        assert self.run("search", "--batch", str(batch), "--top-k", "3") == 0
        serial_out = capsys.readouterr().out
        assert self.run("--shards", "3", "search", "--batch", str(batch), "--top-k", "3") == 0
        sharded_out = capsys.readouterr().out
        assert sharded_out == serial_out

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
