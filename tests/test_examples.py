"""Smoke tests: every example script's main() runs and prints its story.

The examples double as living documentation; these tests keep them from
rotting.  The heavyweight sweeps inside them are already sized for seconds.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "TBS" in out and "OOC_SYRK" in out and "verified" in out

    def test_pebble_game(self, capsys):
        load_example("pebble_game").main()
        out = capsys.readouterr().out
        assert "naive ijk" in out and "TBS" in out

    def test_cholesky_factorization(self, capsys):
        load_example("cholesky_factorization").main()
        out = capsys.readouterr().out
        assert "factor check" in out and "LBC phase" in out

    def test_syr2k_extension(self, capsys):
        load_example("syr2k_extension").main()
        out = capsys.readouterr().out
        assert "TB-SYR2K" in out and "sqrt(2)" in out

    def test_dag_rescheduling(self, capsys):
        load_example("dag_rescheduling").main()
        out = capsys.readouterr().out
        assert "reduction" in out and "Belady floor" in out and "bit-identical" in out

    def test_order_search(self, capsys):
        load_example("order_search").main()
        out = capsys.readouterr().out
        assert "beam" in out and "anneal" in out and "lookahead" in out
        assert "best searched order" in out and "Belady floor" in out

    def test_parallel_executor(self, capsys):
        load_example("parallel_executor").main()
        out = capsys.readouterr().out
        assert "owner-computes" in out
        assert "triangle-block (fixed)" in out and "False" not in out

    def test_partition_refinement(self, capsys):
        load_example("partition_refinement").main()
        out = capsys.readouterr().out
        assert "never worse" in out and "False" not in out
        assert "makespan" in out and "peak<=S everywhere = True" in out

    @pytest.mark.slow
    def test_gram_matrix(self, capsys):
        load_example("gram_matrix_out_of_core").main()
        out = capsys.readouterr().out
        assert "A-ratio" in out

    @pytest.mark.slow
    def test_io_model_explorer(self, capsys):
        load_example("io_model_explorer").main()
        out = capsys.readouterr().out
        assert "Figure 1" in out and "0.7071" in out
