"""Smoke tests: the runnable examples must keep running.

Each example's ``main()`` is imported and executed in-process with its
output captured; the slowest two (full-suite characterization and the
consolidation sweep) are exercised by the benchmark harness instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "WordCount on a 4-slave cluster" in out
        assert "IPC" in out

    def test_hive_warehouse(self, capsys):
        load_example("hive_warehouse").main()
        out = capsys.readouterr().out
        assert "plan with" in out
        assert "MapReduce stage(s)" in out

    def test_custom_workload(self, capsys):
        load_example("custom_workload").main()
        out = capsys.readouterr().out
        assert "InvertedIndex" in out
        assert "WordCount" in out

    def test_fault_tolerance(self, capsys):
        load_example("fault_tolerance").main()
        out = capsys.readouterr().out
        assert "healthy cluster" in out
        assert "with speculation" in out

    def test_multi_tenant(self, capsys):
        load_example("multi_tenant").main()
        out = capsys.readouterr().out
        assert "small-job mean slowdown" in out
        assert "Jain fairness index" in out
        assert "outputs identical across schedulers: True" in out

    def test_result_cache(self, capsys):
        load_example("result_cache").main()
        out = capsys.readouterr().out
        assert "payoff per repetitiveness bucket" in out
        assert "hit rate monotone in repetitiveness: True" in out

    @pytest.mark.slow
    def test_scaling_study(self, capsys):
        load_example("scaling_study").main()
        out = capsys.readouterr().out
        assert "speedup spread at 8 slaves" in out
