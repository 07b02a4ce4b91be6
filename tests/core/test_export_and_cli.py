"""Tests for the CSV/JSON exports and the command-line interface.

``to_csv`` / ``to_json`` export a suite characterization; a cluster run,
a mix and a workflow export themselves through ``to_dict()``, which the
``--format json`` of ``mix`` and ``run-workflow`` prints."""

import csv
import io
import json

import pytest

from repro.__main__ import build_parser, main
from repro.core import DCBench, characterize
from repro.core.export import COLUMNS, to_csv, to_json


@pytest.fixture(scope="module")
def chars():
    suite = DCBench.default()
    return [
        characterize(suite.entry(name), instructions=20_000)
        for name in ("WordCount", "SPECWeb")
    ]


class TestExports:
    def test_csv_roundtrip(self, chars):
        text = to_csv(chars)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["workload"] == "WordCount"
        assert set(rows[0]) == set(COLUMNS)
        assert float(rows[0]["ipc"]) > 0

    def test_json_roundtrip(self, chars):
        data = json.loads(to_json(chars))
        assert [row["workload"] for row in data] == ["WordCount", "SPECWeb"]
        assert data[1]["group"] == "service"
        stall_total = sum(data[0][f"stall_{c}"] for c in
                          ("fetch", "rat", "load", "rs_full", "store", "rob_full"))
        assert stall_total == pytest.approx(1.0)

    def test_empty_table_keeps_the_header(self):
        assert to_csv([]).splitlines() == [",".join(COLUMNS)]
        assert json.loads(to_json([])) == []

    def test_csv_and_json_agree(self, chars):
        csv_rows = list(csv.DictReader(io.StringIO(to_csv(chars))))
        json_rows = json.loads(to_json(chars))
        for c_row, j_row in zip(csv_rows, json_rows):
            assert float(c_row["l2_mpki"]) == pytest.approx(j_row["l2_mpki"])


@pytest.fixture(scope="module")
def mix():
    from repro.cluster.scheduler import FifoScheduler
    from repro.cluster.tenancy import generate_trace, run_mix

    trace = generate_trace(seed=3, num_jobs=4, arrival_rate_per_s=3.0)
    return run_mix(trace, FifoScheduler(), num_slaves=2, map_slots=4,
                   reduce_slots=2, block_size=64 * 1024)


class TestTimelineExports:
    def test_faulty_timeline_exports_resilience_counters(self):
        from repro.cluster import FaultPlan, FaultyCluster, make_cluster
        from repro.workloads import workload

        cluster = FaultyCluster(
            make_cluster(2, block_size=64 * 1024), FaultPlan(seed=1)
        )
        run = workload("Grep").run(0.05, cluster=cluster)
        report = run.timelines[0].to_dict()
        assert "resilience" in report
        assert "killed_attempts" in report["resilience"]
        json.dumps(report)  # fully serializable

    def test_timeline_json_keeps_the_full_report(self, mix):
        timelines = [r.timeline for r in mix.outcome.reports]
        data = json.loads(json.dumps([t.to_dict() for t in timelines]))
        assert len(data) == len(timelines)
        assert data[0]["job_name"] == timelines[0].job_name
        assert set(data[0]["disk_writes_per_second"]) == {"slave1", "slave2"}
        assert data[0]["duration_s"] == pytest.approx(timelines[0].duration_s)
        assert data[0]["duration_s"] > 0


class TestMixExports:
    def test_mix_json_has_trace_jobs_and_outcome(self, mix):
        data = json.loads(json.dumps(mix.to_dict()))
        assert data["scheduler"] == "fifo"
        assert len(data["jobs"]) == 4
        assert data["trace"]["seed"] == 3
        assert data["outcome"]["peak_concurrency"] >= 1

    def test_mix_json_has_one_job_per_trace_job(self, mix):
        jobs = json.loads(json.dumps(mix.to_dict()))["jobs"]
        assert [job["index"] for job in jobs] == [0, 1, 2, 3]
        for job in jobs:
            assert job["turnaround_s"] >= job["wait_s"] >= 0
            assert job["slowdown"] == pytest.approx(job["turnaround_s"] / job["ideal_s"])


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Naive Bayes" in out and "HPCC-STREAM" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table III" in out

    def test_run(self, capsys):
        assert main(["run", "Grep", "--scale", "0.1", "--slaves", "2"]) == 0
        out = capsys.readouterr().out
        assert "Grep" in out
        assert "Map input records" in out

    def test_characterize_table(self, capsys):
        assert main(["characterize", "Grep", "--instructions", "15000"]) == 0
        out = capsys.readouterr().out
        assert "Grep" in out and "ipc" in out

    def test_characterize_csv(self, capsys):
        assert main(
            ["characterize", "Grep", "--instructions", "15000", "--format", "csv"]
        ) == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["workload"] == "Grep"

    def test_characterize_json(self, capsys):
        assert main(
            ["characterize", "Grep", "--instructions", "15000", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["workload"] == "Grep"

    def test_domains(self, capsys):
        assert main(["domains"]) == 0
        out = capsys.readouterr().out
        assert "Search Engine" in out and "40%" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["characterize", "NotAWorkload"])

    @pytest.mark.parametrize("command", ["bench-sim", "bench-cluster"])
    def test_retired_bench_commands_are_rejected(self, command, capsys):
        """``bench/run.py`` is the one benchmark; these are not commands."""
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRunFlagValidation:
    """Fault-injection flags reject malformed values with argparse errors."""

    @staticmethod
    def rejects(argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error

    def test_rejects_nan_fault_rate(self, capsys):
        self.rejects(["run", "Grep", "--faults", "nan"])
        assert "rate in [0, 1]" in capsys.readouterr().err

    def test_rejects_negative_fault_rate(self):
        self.rejects(["run", "Grep", "--faults", "-0.1"])

    def test_rejects_fault_rate_above_one(self):
        self.rejects(["run", "Grep", "--faults", "1.5"])

    def test_rejects_non_numeric_fault_rate(self):
        self.rejects(["run", "Grep", "--faults", "many"])

    def test_rejects_negative_crash_time(self):
        self.rejects(["run", "Grep", "--crash-node", "slave1",
                      "--crash-time", "-1"])

    def test_rejects_nan_master_crash_time(self):
        self.rejects(["run", "Grep", "--master-crash-time", "nan"])

    def test_rejects_infinite_master_crash_time(self):
        self.rejects(["run", "Grep", "--master-crash-time", "inf"])

    def test_crash_time_requires_crash_node(self, capsys):
        self.rejects(["run", "Grep", "--crash-time", "1.0"])
        assert "--crash-time requires --crash-node" in capsys.readouterr().err

    def test_recovery_requires_master_crash_time(self, capsys):
        self.rejects(["run", "Grep", "--recovery", "resume"])
        assert "requires --master-crash-time" in capsys.readouterr().err

    def test_master_downtime_requires_master_crash_time(self):
        self.rejects(["run", "Grep", "--master-downtime", "0.5"])

    def test_rejects_unknown_recovery_mode(self):
        self.rejects(["run", "Grep", "--master-crash-time", "1",
                      "--recovery", "reboot"])

    def test_rejects_unknown_crash_node(self, capsys):
        self.rejects(["run", "Grep", "--slaves", "2", "--crash-node", "slave9"])
        err = capsys.readouterr().err
        assert "slave9" in err and "slave1, slave2" in err

    def test_master_crash_run_succeeds(self, capsys):
        assert main(["run", "Grep", "--scale", "0.1",
                     "--master-crash-time", "0.05", "--recovery", "resume"]) == 0
        out = capsys.readouterr().out
        assert "resilience accounting" in out
        assert "master_crashes" in out
        assert "recovery_downtime_s" in out

    def test_node_crash_run_succeeds(self, capsys):
        assert main(["run", "Grep", "--scale", "0.1",
                     "--crash-node", "slave2", "--crash-time", "0.02"]) == 0
        assert "resilience accounting" in capsys.readouterr().out


MIX_SMALL = ["--jobs", "4", "--slaves", "2",
             "--map-slots", "4", "--reduce-slots", "2"]


class TestMixCli:
    def test_mix_table(self, capsys):
        assert main(["mix", *MIX_SMALL, "--scheduler", "fair"]) == 0
        out = capsys.readouterr().out
        assert "fair scheduler: 4 jobs" in out
        assert "slowdown" in out and "per-pool:" in out

    def test_mix_json(self, capsys):
        assert main(["mix", *MIX_SMALL, "--scheduler", "capacity",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scheduler"] == "capacity"
        assert len(data["jobs"]) == 4

    def test_mix_with_faults_prints_accounting(self, capsys):
        assert main(["mix", *MIX_SMALL, "--crash-node", "slave2",
                     "--crash-time", "0.3", "--partition", "slave1:0.1:0.5"]) == 0
        out = capsys.readouterr().out
        assert "fault accounting:" in out
        assert "nodes_crashed" in out

    def test_mix_is_reproducible(self, capsys):
        assert main(["mix", *MIX_SMALL, "--seed", "5", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["mix", *MIX_SMALL, "--seed", "5", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_mix_with_an_unwritable_cache_still_prints(
        self, capsys, tmp_path, monkeypatch
    ):
        """A checkout where the cache cannot be written (here its root is
        a regular file) costs a warning, never the finished mix."""
        assert main(["mix", *MIX_SMALL, "--format", "json", "--no-mix-cache"]) == 0
        expected = capsys.readouterr().out
        root = tmp_path / "cache"
        root.write_text("", encoding="utf-8")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        monkeypatch.setenv("REPRO_MIX_CACHE", "1")
        with pytest.warns(RuntimeWarning, match="cannot write"):
            assert main(["mix", *MIX_SMALL, "--format", "json"]) == 0
        assert capsys.readouterr().out == expected

    def test_mix_rejects_unknown_crash_node(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mix", *MIX_SMALL, "--crash-node", "slave9"])
        assert excinfo.value.code == 2
        assert "slave9" in capsys.readouterr().err

    def test_mix_crash_time_requires_crash_node(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["mix", *MIX_SMALL, "--crash-time", "0.5"])
        assert excinfo.value.code == 2
        assert "--crash-time requires --crash-node" in capsys.readouterr().err

    def test_mix_rejects_malformed_partition(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mix", *MIX_SMALL, "--partition", "slave1:oops"])
        assert excinfo.value.code == 2

    def test_mix_rejects_unknown_scheduler(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mix", "--scheduler", "deadline"])
        assert excinfo.value.code == 2

    def test_mix_engine_is_fast_or_reference(self, capsys):
        for engine in ("events", "legacy"):
            with pytest.raises(SystemExit) as excinfo:
                main(["mix", *MIX_SMALL, "--engine", engine])
            assert excinfo.value.code == 2
            assert "choose from 'fast', 'reference'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["mix", "--help"])
        assert "--engine {fast,reference}" in capsys.readouterr().out


@pytest.fixture(scope="module")
def workflow_result():
    from repro.cluster import make_cluster
    from repro.cluster.workflow import (
        WorkflowFaultPlan,
        WorkflowRunner,
        build_workflow,
    )

    wf = build_workflow("diamond", scale=0.05, num_slaves=4)
    cluster = make_cluster(num_slaves=4, block_size=256 * 1024)
    plan = WorkflowFaultPlan(fail_stages=(("left", 1),))
    return WorkflowRunner(cluster, plan=plan).run(wf)


class TestWorkflowExports:
    def test_workflow_json_keeps_accounting_and_outputs(self, workflow_result):
        data = json.loads(json.dumps(workflow_result.to_dict()))
        assert data["status"] == "completed"
        assert data["accounting"]["stage_retries"] == 1
        assert set(data["outputs"]) == {"side", "join"}
        assert len(data["stages"]) == 5

    def test_workflow_json_has_one_entry_per_stage(self, workflow_result):
        stages = json.loads(json.dumps(workflow_result.to_dict()))["stages"]
        assert stages[0]["stage"] == "ingest"
        by_stage = {stage["stage"]: stage for stage in stages}
        assert len(by_stage) == 5
        assert by_stage["left"]["retries"] == 1
        assert all(stage["status"] == "completed" for stage in stages)
        assert stages[-1]["finished_s"] > 0


WF_SMALL = ["run-workflow", "--dag", "diamond"]


class TestWorkflowCli:
    def test_table_output(self, capsys):
        assert main([*WF_SMALL]) == 0
        out = capsys.readouterr().out
        assert "diamond on fifo: completed" in out
        assert "accounting:" in out
        assert "lineage_recomputes" in out

    def test_json_output_is_reproducible(self, capsys):
        argv = [*WF_SMALL, "--format", "json", "--seed", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["status"] == "completed"

    def test_json_output_is_the_result_dict(self, capsys):
        from repro.cluster import make_cluster
        from repro.cluster.workflow import (
            _DAG_BLOCK_SIZE,
            WorkflowFaultPlan,
            WorkflowRunner,
            build_workflow,
        )

        assert main([*WF_SMALL, "--destroy-output", "ingest", "--format", "json"]) == 0
        plan = WorkflowFaultPlan(destroy_outputs=("ingest",), seed=0)
        cluster = make_cluster(num_slaves=4, block_size=_DAG_BLOCK_SIZE)
        result = WorkflowRunner(cluster, scheduler="fifo", plan=plan).run(
            build_workflow("diamond", scale=0.05, num_slaves=4)
        )
        assert capsys.readouterr().out == json.dumps(result.to_dict(), indent=2) + "\n"

    def test_destroyed_output_recovers_via_lineage(self, capsys):
        assert main([*WF_SMALL, "--destroy-output", "ingest"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "lineage_recomputes        1" in out

    def test_exhausted_stage_exits_zero_when_partial_expected(self, capsys):
        assert main([*WF_SMALL, "--fail-stage", "left:9"]) == 0
        out = capsys.readouterr().out
        assert "partial" in out
        assert "cancelled" in out

    def test_rejects_unknown_crash_node(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*WF_SMALL, "--crash-node", "slave9"])
        assert excinfo.value.code == 2
        assert "slave9" in capsys.readouterr().err

    def test_crash_time_requires_crash_node(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*WF_SMALL, "--crash-time", "0.5"])
        assert excinfo.value.code == 2
        assert "--crash-time requires --crash-node" in capsys.readouterr().err

    def test_rejects_unknown_stage_flags(self, capsys):
        for argv in (
            [*WF_SMALL, "--destroy-output", "ghost"],
            [*WF_SMALL, "--fail-stage", "ghost:2"],
            [*WF_SMALL, "--master-crash-after", "ghost"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "ghost" in capsys.readouterr().err

    def test_rejects_malformed_fail_stage(self):
        for spec in ("left", "left:0", "left:x", ":3"):
            with pytest.raises(SystemExit) as excinfo:
                main([*WF_SMALL, "--fail-stage", spec])
            assert excinfo.value.code == 2

    def test_rejects_unknown_dag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-workflow", "--dag", "mapreduce"])
        assert excinfo.value.code == 2
