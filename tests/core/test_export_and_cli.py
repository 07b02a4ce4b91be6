"""Tests for the CSV/JSON exports and the command-line interface."""

import csv
import io
import json

import pytest

from repro.__main__ import build_parser, main
from repro.core import DCBench, characterize
from repro.core.export import (
    COLUMNS,
    MIX_COLUMNS,
    TIMELINE_COLUMNS,
    mix_to_csv,
    mix_to_json,
    mix_to_rows,
    timelines_to_csv,
    timelines_to_json,
    timelines_to_rows,
    to_csv,
    to_json,
)


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
    def test_timeline_csv_flattens_disk_rates_per_node(self, mix):
        timelines = [r.timeline for r in mix.outcome.reports]
        rows = list(csv.DictReader(io.StringIO(timelines_to_csv(timelines))))
        assert len(rows) == len(timelines)
        assert set(TIMELINE_COLUMNS) <= set(rows[0])
        assert "disk_writes_per_second_slave1" in rows[0]
        assert float(rows[0]["duration_s"]) > 0

    def test_timeline_json_keeps_the_full_report(self, mix):
        timelines = [r.timeline for r in mix.outcome.reports]
        data = json.loads(timelines_to_json(timelines))
        assert data[0]["job_name"] == timelines[0].job_name
        assert set(data[0]["disk_writes_per_second"]) == {"slave1", "slave2"}

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
        # and the flat table still accepts the faulty timeline
        assert timelines_to_rows(run.timelines)[0]["job_name"] == "grep"

    def test_empty_timeline_table_keeps_the_header(self):
        text = timelines_to_csv([])
        assert text.splitlines()[0].split(",") == TIMELINE_COLUMNS


class TestMixExports:
    def test_mix_rows_one_per_trace_job(self, mix):
        rows = mix_to_rows(mix)
        assert len(rows) == 4
        assert set(rows[0]) == set(MIX_COLUMNS)
        assert all(row["slowdown"] >= 0 for row in rows)

    def test_mix_csv_roundtrip(self, mix):
        rows = list(csv.DictReader(io.StringIO(mix_to_csv(mix))))
        assert [r["index"] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[0]["turnaround_s"]) >= float(rows[0]["wait_s"])

    def test_mix_json_has_trace_jobs_and_outcome(self, mix):
        data = json.loads(mix_to_json(mix))
        assert data["scheduler"] == "fifo"
        assert len(data["jobs"]) == 4
        assert data["trace"]["seed"] == 3
        assert data["outcome"]["peak_concurrency"] >= 1


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

    def test_profile(self, capsys):
        assert main(["profile", "Sort", "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "# workload: Sort" in out
        assert "overhead" in out

    def test_colocate(self, capsys):
        assert main(["colocate", "Grep", "WordCount", "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "Grep" in out and "WordCount" in out

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["characterize", "NotAWorkload"])


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
    def test_workflow_rows_one_per_stage(self, workflow_result):
        from repro.core.export import WORKFLOW_COLUMNS, workflow_to_rows

        rows = workflow_to_rows(workflow_result)
        assert len(rows) == 5
        assert set(rows[0]) == set(WORKFLOW_COLUMNS)
        by_stage = {row["stage"]: row for row in rows}
        assert by_stage["left"]["retries"] == 1
        assert all(row["status"] == "completed" for row in rows)

    def test_workflow_csv_roundtrip(self, workflow_result):
        from repro.core.export import WORKFLOW_COLUMNS, workflow_to_csv

        rows = list(csv.DictReader(io.StringIO(workflow_to_csv(workflow_result))))
        assert len(rows) == 5
        assert rows[0]["stage"] == "ingest"
        assert set(rows[0]) == set(WORKFLOW_COLUMNS)
        assert float(rows[-1]["finished_s"]) > 0

    def test_workflow_json_keeps_accounting_and_outputs(self, workflow_result):
        from repro.core.export import workflow_to_json

        data = json.loads(workflow_to_json(workflow_result))
        assert data["status"] == "completed"
        assert data["accounting"]["stage_retries"] == 1
        assert set(data["outputs"]) == {"side", "join"}
        assert len(data["stages"]) == 5


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
