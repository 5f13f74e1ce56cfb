"""Tests for the command-line interface (python -m repro ...)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "TBS" in out and "OOC_SYRK" in out and "lower bound" in out

    def test_figures(self, capsys):
        assert main(["figures", "--n", "27", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out
        assert "f(0)" in out  # indexing positions

    def test_figures_fallback(self, capsys):
        assert main(["figures", "--n", "8", "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "not applicable" in out

    def test_sweep_syrk(self, capsys):
        assert main(["sweep", "syrk", "--s", "15", "--m", "4", "--ns", "40"]) == 0
        out = capsys.readouterr().out
        assert "tbs" in out and "ocs" in out and "True" in out

    def test_sweep_cholesky(self, capsys):
        assert main(["sweep", "cholesky", "--s", "15", "--ns", "36"]) == 0
        out = capsys.readouterr().out
        assert "lbc" in out and "occ" in out

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "0.7071" in out and "0.2357" in out

    def test_replay(self, capsys):
        assert main(["replay", "--s", "15", "--n", "26", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "LRU replay" in out and "TBS" in out and "OCS" in out
        assert "explicit Q" in out

    def test_graph(self, capsys):
        assert main(["graph", "--kernel", "tbs", "--n", "26", "--m", "3", "--s", "15"]) == 0
        out = capsys.readouterr().out
        assert "dependency graph" in out
        assert "belady" in out and "reschedule:locality" in out
        assert "reduction classes" in out

    def test_graph_chol_subset_no_numerics(self, capsys):
        assert main(
            ["graph", "--kernel", "chol", "--n", "16", "--m", "0", "--s", "15",
             "--heuristics", "original", "--no-numerics"]
        ) == 0
        out = capsys.readouterr().out
        assert "RAW" in out and "reschedule:original" in out
        assert "reschedule:fan-out" not in out

    def test_search(self, capsys):
        assert main(
            ["search", "--kernel", "tbs", "--n", "26", "--m", "3", "--s", "15",
             "--strategy", "beam", "anneal", "--iters", "60", "--relax"]
        ) == 0
        out = capsys.readouterr().out
        assert "order search" in out and "reduction" in out
        assert "search:beam" in out and "search:anneal" in out
        assert "search:lookahead" not in out
        assert "belady (floor)" in out and "heuristic:locality" in out

    def test_search_strict_default_strategies(self, capsys):
        assert main(
            ["search", "--kernel", "chol", "--n", "12", "--m", "0", "--s", "15",
             "--iters", "40", "--heuristics", "original"]
        ) == 0
        out = capsys.readouterr().out
        assert "search:beam" in out and "search:lookahead" in out
        assert "heuristic:original" in out
        assert "0.00e+00" in out  # strict orders replay bit-identically

    def test_parallel(self, capsys):
        assert main(
            ["parallel", "--kernel", "tbs", "--n", "26", "--m", "3", "--s", "15",
             "--p", "1", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded DAG executor" in out
        assert "owner-computes" in out and "level-greedy" in out
        assert "recv/bound" in out and "True" in out

    def test_parallel_single_partitioner_lru(self, capsys):
        assert main(
            ["parallel", "--kernel", "chol", "--n", "12", "--m", "0", "--s", "15",
             "--p", "2", "--partitioners", "locality", "--policy", "lru"]
        ) == 0
        out = capsys.readouterr().out
        assert "locality" in out and "level-greedy" not in out

    def test_parallel_refine_and_makespan(self, capsys):
        assert main(
            ["parallel", "--kernel", "tbs", "--n", "26", "--m", "3", "--s", "15",
             "--p", "2", "--partitioners", "level-greedy", "--refine", "greedy"]
        ) == 0
        out = capsys.readouterr().out
        assert "level-greedy+refine" in out
        assert "makespan" in out and "max xfer out" in out
        # critical path is labeled in both units (the node-count span used
        # to print unit-less next to mult counts)
        assert "ops" in out and "mults weighted" in out

    def test_cosearch(self, capsys):
        assert main(
            ["cosearch", "--kernel", "tbs", "--n", "20", "--m", "3", "--s", "15",
             "--p", "2", "--iters", "60", "--search-iters", "25"]
        ) == 0
        out = capsys.readouterr().out
        assert "joint order x partition co-search" in out
        assert "best seed" in out and "co-search" in out
        assert "unified objective" in out

    def test_cosearch_report_and_timeline(self, capsys, tmp_path):
        report = tmp_path / "cosearch.json"
        timeline = tmp_path / "timeline.json"
        assert main(
            ["cosearch", "--kernel", "tbs", "--n", "20", "--m", "3", "--s", "15",
             "--p", "2", "--iters", "60", "--search-iters", "25",
             "--report", str(report), "--timeline", str(timeline)]
        ) == 0
        assert report.exists() and timeline.exists()
        assert main(["report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "cosearch.runs" in out and "convergence.cosearch" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["explode"])


class TestTraceCli:
    def test_compile_info_replay(self, capsys, tmp_path):
        out_path = str(tmp_path / "t.npz")
        sched_path = str(tmp_path / "s.npz")
        assert main(
            ["trace", "compile", "--kernel", "tbs", "--n", "26", "--m", "3",
             "--s", "15", "-o", out_path, "--schedule-out", sched_path]
        ) == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "full schedule written" in out

        assert main(["trace", "info", out_path]) == 0
        out = capsys.readouterr().out
        assert "distinct elements" in out

        assert main(["trace", "info", sched_path]) == 0
        out = capsys.readouterr().out
        assert "schedule container" in out and "computes" in out

        assert main(
            ["trace", "replay", out_path, "--capacity", "15", "30",
             "--policy", "both"]
        ) == 0
        out = capsys.readouterr().out
        assert "lru" in out and "belady" in out

    def test_replay_schedule_container(self, capsys, tmp_path):
        sched_path = str(tmp_path / "s.npz")
        assert main(
            ["trace", "compile", "--kernel", "chol", "--n", "12", "--m", "0",
             "--s", "15", "-o", str(tmp_path / "unused.npz"),
             "--schedule-out", sched_path]
        ) == 0
        capsys.readouterr()
        assert main(
            ["trace", "replay", sched_path, "--capacity", "15", "--policy", "lru"]
        ) == 0
        out = capsys.readouterr().out
        assert "lru" in out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])
