"""The command line as users see it.

``SURFACE`` pins every subcommand's flags as literals: for each ``dest``,
the sorted option strings, default, choices, nargs and action.  A flag
renamed, dropped or given a new default must show up here, not in a
user's script.  ``BAD_INPUT`` holds out-of-range input that must stop at
the parser with exit status 2 and a message naming the problem, never a
traceback or a silent run.  The classes below run ``mix --trace`` and
``rep-bench`` end to end.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

#: (option strings, default, choices, nargs, action) per dest, per command
SURFACE = {
    "list": {},
    "tables": {},
    "run": {
        "workload": ((), None, None, None, "Store"),
        "scale": (("--scale",), 0.5, None, None, "Store"),
        "slaves": (("--slaves",), 4, None, None, "Store"),
        "faults": (("--faults",), 0.0, None, None, "Store"),
        "seed": (("--seed",), 0, None, None, "Store"),
        "crash_node": (("--crash-node",), None, None, None, "Store"),
        "crash_time": (("--crash-time",), None, None, None, "Store"),
        "master_crash_time": (("--master-crash-time",), None, None, None, "Store"),
        "recovery": (("--recovery",), None, ("restart", "resume"), None, "Store"),
        "master_downtime": (("--master-downtime",), None, None, None, "Store"),
        "corruption_rate": (("--corruption-rate",), 0.0, None, None, "Store"),
        "link_loss": (("--link-loss",), 0.0, None, None, "Store"),
        "racks": (("--racks",), 1, None, None, "Store"),
        "rack_fail": (("--rack-fail",), None, None, None, "Append"),
        "tor_fail": (("--tor-fail",), None, None, None, "Append"),
        "partition": (("--partition",), None, None, None, "Append"),
        "scrub": (("--scrub",), False, None, 0, "StoreTrue"),
    },
    "characterize": {
        "workloads": ((), None, None, "*", "Store"),
        "instructions": (("--instructions",), 200000, None, None, "Store"),
        "format": (("--format",), "table", ("table", "csv", "json"), None, "Store"),
        "engine": (("--engine",), "fast", ("fast", "reference"), None, "Store"),
        "workers": (("--workers",), None, None, None, "Store"),
        "no_sim_cache": (("--no-sim-cache",), False, None, 0, "StoreTrue"),
    },
    "speedup": {},
    "domains": {},
    "colocate": {
        "workloads": ((), None, None, "+", "Store"),
        "instructions": (("--instructions",), 80000, None, None, "Store"),
    },
    "mix": {
        "scheduler": (
            ("--scheduler",), "fair", ("fifo", "fair", "capacity"), None, "Store"
        ),
        "jobs": (("--jobs",), 8, None, None, "Store"),
        "rate": (("--rate",), 2.0, None, None, "Store"),
        "trace": (("--trace",), None, None, None, "Store"),
        "seed": (("--seed",), 0, None, None, "Store"),
        "slaves": (("--slaves",), 4, None, None, "Store"),
        "map_slots": (("--map-slots",), 8, None, None, "Store"),
        "reduce_slots": (("--reduce-slots",), 4, None, None, "Store"),
        "crash_node": (("--crash-node",), None, None, None, "Store"),
        "crash_time": (("--crash-time",), None, None, None, "Store"),
        "racks": (("--racks",), 1, None, None, "Store"),
        "rack_fail": (("--rack-fail",), None, None, None, "Append"),
        "tor_fail": (("--tor-fail",), None, None, None, "Append"),
        "partition": (("--partition",), None, None, None, "Append"),
        "engine": (("--engine",), "fast", ("fast", "reference"), None, "Store"),
        "no_mix_cache": (("--no-mix-cache",), False, None, 0, "StoreTrue"),
        "colocate": (("--colocate",), False, None, 0, "StoreTrue"),
        "instructions": (("--instructions",), 20000, None, None, "Store"),
        "format": (("--format",), "table", ("table", "json"), None, "Store"),
    },
    "rep-bench": {
        "buckets": (("--buckets",), (0.0, 0.25, 0.5, 0.75, 0.95), None, None, "Store"),
        "queries": (("--queries",), 24, None, None, "Store"),
        "seed": (("--seed",), 0, None, None, "Store"),
        "scale": (("--scale",), 1.0, None, None, "Store"),
        "slaves": (("--slaves",), 2, None, None, "Store"),
        "no_result_cache": (("--no-result-cache",), False, None, 0, "StoreTrue"),
        "format": (("--format",), "table", ("table", "json"), None, "Store"),
    },
    "serve": {
        "rate": (("--rate",), 8.0, None, None, "Store"),
        "requests": (("--requests",), 200, None, None, "Store"),
        "servers": (("--servers",), 4, None, None, "Store"),
        "pattern": (
            ("--pattern",), "poisson", ("poisson", "diurnal", "bursty"), None, "Store"
        ),
        "seed": (("--seed",), 0, None, None, "Store"),
        "deadline": (("--deadline",), 8.0, None, None, "Store"),
        "max_queue": (("--max-queue",), None, None, None, "Store"),
        "shed_rate": (("--shed-rate",), None, None, None, "Store"),
        "shed_threshold": (("--shed-threshold",), None, None, None, "Store"),
        "retries": (("--retries",), None, None, None, "Store"),
        "limp": (("--limp",), None, None, None, "Append"),
        "unprotected": (("--unprotected",), None, None, 0, "StoreTrue"),
        "compare": (("--compare",), False, None, 0, "StoreTrue"),
        "format": (("--format",), "table", ("table", "json"), None, "Store"),
    },
    "run-workflow": {
        "dag": (
            ("--dag",), "hive-chain", ("hive-chain", "kmeans", "pagerank", "diamond"),
            None, "Store",
        ),
        "scheduler": (
            ("--scheduler",), "fifo", ("fifo", "fair", "capacity"), None, "Store"
        ),
        "seed": (("--seed",), 0, None, None, "Store"),
        "scale": (("--scale",), 0.05, None, None, "Store"),
        "slaves": (("--slaves",), 4, None, None, "Store"),
        "crash_node": (("--crash-node",), None, None, None, "Store"),
        "crash_time": (("--crash-time",), None, None, None, "Store"),
        "partition": (("--partition",), None, None, None, "Append"),
        "destroy_output": (("--destroy-output",), None, None, None, "Append"),
        "fail_stage": (("--fail-stage",), None, None, None, "Append"),
        "master_crash_after": (("--master-crash-after",), None, None, None, "Store"),
        "format": (("--format",), "table", ("table", "json"), None, "Store"),
    },
    "profile": {
        "workload": ((), None, None, None, "Store"),
        "instructions": (("--instructions",), 100000, None, None, "Store"),
        "period": (("--period",), 97, None, None, "Store"),
        "top": (("--top",), 10, None, None, "Store"),
    },
}


def surface(parser: argparse.ArgumentParser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {
            a.dest: (
                tuple(sorted(a.option_strings)),
                a.default,
                None if a.choices is None else tuple(a.choices),
                a.nargs,
                type(a).__name__.strip("_").removesuffix("Action"),
            )
            for a in command._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, command in sub.choices.items()
    }


def test_cli_surface_is_pinned():
    assert surface(build_parser()) == SURFACE


def test_readme_names_every_command():
    text = README.read_text(encoding="utf-8")
    assert [name for name in SURFACE if f"`{name}`" not in text] == []


BAD_INPUT = [
    (["mix", "--rate", "0"], "--rate: must be a number > 0"),
    (["mix", "--jobs", "0"], "--jobs: must be a count >= 1"),
    (["mix", "--jobs", "-2"], "--jobs: must be a count >= 1"),
    (["run", "Grep", "--slaves", "0"], "--slaves: must be a count >= 1"),
    (["mix", "--slaves", "0"], "--slaves: must be a count >= 1"),
    (["rep-bench", "--slaves", "0"], "--slaves: must be a count >= 1"),
    (["mix", "--map-slots", "0"], "--map-slots: must be a count >= 1"),
    (["characterize", "Grep", "--instructions", "0"], "--instructions: must be a count"),
    (["profile", "Sort", "--instructions", "0"], "--instructions: must be a count"),
    (["profile", "Sort", "--period", "0"], "--period: must be a count >= 1"),
    (["profile", "Sort", "--top", "0"], "--top: must be a count >= 1"),
    (["profile", "Sort", "--top", "-1"], "--top: must be a count >= 1"),
    (["run", "Grep", "--scale", "-1"], "--scale: must be a number > 0"),
    (["run", "Grep", "--scale", "nan"], "--scale: must be a number > 0"),
    (["run-workflow", "--scale", "nan"], "--scale: must be a number > 0"),
    (["rep-bench", "--scale", "0"], "--scale: must be a number > 0"),
    (["run", "Grep", "--racks", "3", "--slaves", "2"], "--racks 3 exceeds --slaves 2"),
    (["mix", "--racks", "3", "--slaves", "2"], "--racks 3 exceeds --slaves 2"),
    (["colocate", "Grep"], "two or more distinct workloads"),
    (["colocate", "Grep", "Grep"], "two or more distinct workloads"),
    # --compare runs its own two postures: a posture flag would be ignored
    (["serve", "--compare", "--limp", "9:2"], "drop --limp"),
    (["serve", "--compare", "--unprotected"], "drop --unprotected"),
    (["serve", "--compare", "--max-queue", "8"], "drop --max-queue"),
    (["serve", "--compare", "--max-queue", "64"], "drop --max-queue"),
    (["serve", "--compare", "--retries", "1"], "drop --retries"),
    (["serve", "--compare", "--shed-rate", "0.5"], "drop --shed-rate"),
    (["serve", "--compare", "--shed-threshold", "4"], "drop --shed-threshold"),
    (["serve", "--compare", "--retries", "0"], "drop --retries"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT]
)
def test_bad_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert re.search(r"^repro [\w-]+: error: ", err, re.M), err
    assert message in err


class TestTraceReplay:
    def test_mix_replays_a_trace_file(self, tmp_path, capsys):
        from repro.cluster.tenancy import generate_trace

        trace = tmp_path / "trace.json"
        trace.write_text(generate_trace(seed=3, num_jobs=6).to_json())
        assert main(["mix", "--trace", str(trace), "--slaves", "2",
                     "--map-slots", "4", "--reduce-slots", "2"]) == 0
        assert "6 jobs" in capsys.readouterr().out


class TestRepBenchCli:
    def test_contract_passes_and_prints_buckets(self, capsys):
        assert main(["rep-bench", "--queries", "8"]) == 0
        out = capsys.readouterr().out
        assert "materialization cache on" in out
        assert "95%" in out

    def test_no_result_cache_flag(self, capsys):
        assert main(["rep-bench", "--queries", "4",
                     "--no-result-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache off" in out

    def test_json_format(self, capsys):
        assert main(["rep-bench", "--queries", "4",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["buckets"]) == 5


class TestBadInput:
    def test_missing_files_fail_cleanly(self, tmp_path, capsys):
        assert main(["mix", "--trace", str(tmp_path / "nope.json")]) == 2
        assert "mix: cannot read" in capsys.readouterr().err

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["mix", "--trace", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["rep-bench", "--buckets", "0.9,0.1"],      # not ascending
            ["rep-bench", "--buckets", "0.1,1.5"],      # out of range
            ["rep-bench", "--buckets", "abc"],          # not numbers
            ["rep-bench", "--queries", "0"],            # not a count
        ],
    )
    def test_bad_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
