"""Tests for event-driven DAG workflows with lineage-based recovery.

The robustness contracts pinned here:

* a fault-free DAG completes with every sink committing its shadow-run
  payload (the functional output);
* destroying *every* replica of a completed stage's output triggers a
  minimal-subgraph lineage recomputation — the workflow still completes,
  bit-identical, instead of raising ``DataLossError``;
* a stage that exhausts its retry budget cancels exactly its downstream
  cone; independent branches still complete;
* a JobTracker crash mid-DAG resumes from the workflow journal and
  re-runs **zero** completed stages (asserted via accounting);
* the ProcFs workflow counters are observationally free: running with
  them off is bit-identical to running with them on.

The chaos matrix — Hive chains and iterative DAGs x {fifo, fair} x
seeds surviving mid-workflow crashes, partitions and replica corruption
with bit-identical final outputs — is the ``workflow`` row of the chaos
table (``tests/cluster/test_chaos.py``).
"""

import pytest

from repro.__main__ import main
from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
from repro.cluster.eventbus import (
    EVENT_CHECKPOINT,
    EVENT_HEAL,
    EVENT_JOB_CANCELLED,
    EVENT_STAGE_FAILED,
    EVENT_STAGE_RETRY,
)
from repro.cluster.journal import WorkflowJournal, snapshot, restore_into
from repro.cluster.workflow import (
    Stage,
    StagePolicy,
    Workflow,
    WorkflowFaultPlan,
    WorkflowRunner,
    build_workflow,
    workflow_from_chain,
)
from tests.cluster.test_chaos import check, check_reproducible


def small_work(name, n_maps=1, cpu=0.01):
    return JobWork(
        name,
        maps=[MapWork(1024, cpu, 1024) for _ in range(n_maps)],
        reduces=[ReduceWork(1024, cpu, 1024)],
    )


def fresh_cluster(num_slaves=4):
    return make_cluster(num_slaves=num_slaves, block_size=256 * 1024)


@pytest.fixture(scope="module")
def diamond():
    return build_workflow("diamond", scale=0.05, num_slaves=4)


@pytest.fixture(scope="module")
def diamond_baseline(diamond):
    return WorkflowRunner(fresh_cluster()).run(diamond)


# -- graph construction --------------------------------------------------------


class TestStagePolicy:
    def test_backoff_grows_exponentially(self):
        policy = StagePolicy(max_retries=3, backoff_s=1.0, backoff_factor=2.0)
        assert policy.retry_delay_s(1) == 1.0
        assert policy.retry_delay_s(2) == 2.0
        assert policy.retry_delay_s(3) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StagePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            StagePolicy(backoff_s=-0.5)
        with pytest.raises(ValueError):
            StagePolicy(backoff_factor=0.0)


class TestWorkflowGraph:
    def build(self):
        return Workflow(
            "wf",
            [
                Stage("a", small_work("a")),
                Stage("b", small_work("b"), deps=("a",)),
                Stage("c", small_work("c"), deps=("a",)),
                Stage("d", small_work("d"), deps=("b", "c")),
                Stage("e", small_work("e")),
            ],
        )

    def test_topological_order_respects_deps(self):
        wf = self.build()
        order = wf.order
        assert set(order) == {"a", "b", "c", "d", "e"}
        assert order.index("a") < order.index("b")
        assert order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_sources_sinks_cone_closure(self):
        wf = self.build()
        assert set(wf.sources()) == {"a", "e"}
        assert set(wf.sinks()) == {"d", "e"}
        assert set(wf.downstream_cone("a")) == {"b", "c", "d"}
        assert set(wf.upstream_closure("d")) == {"a", "b", "c"}
        assert wf.consumers_of("b") == ("d",)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            Workflow(
                "cyc",
                [
                    Stage("a", small_work("a"), deps=("b",)),
                    Stage("b", small_work("b"), deps=("a",)),
                ],
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError):
            Workflow("wf", [Stage("a", small_work("a"), deps=("ghost",))])

    def test_duplicate_names_and_outputs_rejected(self):
        with pytest.raises(ValueError):
            Workflow(
                "wf", [Stage("a", small_work("a")), Stage("a", small_work("a"))]
            )
        with pytest.raises(ValueError):
            Workflow(
                "wf",
                [
                    Stage("a", small_work("a"), output="same"),
                    Stage("b", small_work("b"), output="same"),
                ],
            )

    def test_chain_builder_links_linearly(self):
        wf = workflow_from_chain(
            "chain", [small_work(f"s{i}") for i in range(3)], payload={"k": 1}
        )
        assert wf.order == ("s00", "s01", "s02")
        assert wf.stage("s02").deps == ("s01",)
        assert wf.stage("s02").payload == {"k": 1}


class TestWorkflowFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkflowFaultPlan(node_crashes=(("slave1", -1.0),))
        with pytest.raises(ValueError):
            WorkflowFaultPlan(partitions=(("slave1", 0.0, 0.0),))
        with pytest.raises(ValueError):
            WorkflowFaultPlan(fail_stages=(("s", 0),))
        with pytest.raises(ValueError):
            WorkflowFaultPlan(fail_stages=(("s", 1), ("s", 2)))

    def test_unknown_names_rejected_at_run(self, diamond):
        runner = WorkflowRunner(
            fresh_cluster(),
            plan=WorkflowFaultPlan(destroy_outputs=("ghost",)),
        )
        with pytest.raises(KeyError):
            runner.run(diamond)


# -- fault-free execution ------------------------------------------------------


class TestFaultFreeRun:
    def test_diamond_completes_with_sink_payloads(self, diamond, diamond_baseline):
        result = diamond_baseline
        assert result.status == "completed"
        assert {r.stage: r.status for r in result.reports} == {
            name: "completed" for name in diamond.order
        }
        assert set(result.outputs) == set(diamond.sinks())
        # The sinks commit the shadow-run payloads (the functional
        # outputs fixed at DAG build), so output identity across runs is
        # payload identity.
        for sink in diamond.sinks():
            assert result.outputs[sink] == diamond.stage(sink).payload

    def test_one_checkpoint_per_wave(self, diamond_baseline):
        acct = diamond_baseline.accounting
        assert acct.checkpoints == acct.waves
        types = [e.type for e in diamond_baseline.events]
        assert types.count(EVENT_CHECKPOINT) == acct.waves

    def test_procfs_workflow_counters(self, diamond):
        cluster = fresh_cluster()
        WorkflowRunner(cluster).run(diamond)
        proc = cluster.master.procfs
        assert proc.workflows_submitted == 1
        assert proc.workflows_completed == 1
        assert proc.stage_retries == 0
        assert proc.lineage_recomputes == 0
        assert "workflows_submitted 1" in proc.render("workflow")

    def test_runner_is_single_use(self, diamond):
        runner = WorkflowRunner(fresh_cluster())
        runner.run(diamond)
        with pytest.raises(RuntimeError):
            runner.run(diamond)

    def test_result_to_dict_round_trips_json(self, diamond_baseline):
        import json

        payload = json.loads(json.dumps(diamond_baseline.to_dict()))
        assert payload["status"] == "completed"
        assert len(payload["stages"]) == 5


# -- lineage-based recomputation (the pinned scenario) -------------------------


class TestLineageRecompute:
    def test_destroying_every_replica_recomputes_upstream(
        self, diamond, diamond_baseline
    ):
        plan = WorkflowFaultPlan(destroy_outputs=("ingest",))
        result = WorkflowRunner(fresh_cluster(), plan=plan).run(diamond)
        assert result.status == "completed"
        assert result.accounting.destroyed_outputs == 1
        assert result.accounting.lineage_recomputes >= 1
        assert result.report("ingest").recomputes == 1
        assert result.report("ingest").executions == 2
        # Stages outside the lost stage's lineage never re-ran.
        assert result.report("side").executions == 1
        assert [e.type for e in result.events].count(EVENT_HEAL) >= 1
        # Bit-identical final outputs despite total replica loss.
        assert repr(result.outputs) == repr(diamond_baseline.outputs)

    def test_hdfs_lineage_hooks(self):
        cluster = fresh_cluster()
        hdfs = cluster.hdfs
        hdfs.create_file("wf/x.out", 4096)
        assert hdfs.file_exists("wf/x.out")
        assert hdfs.lost_blocks("wf/x.out") == []
        assert hdfs.lost_blocks("missing") == [-1]
        destroyed = hdfs.destroy_replicas("wf/x.out")
        assert destroyed >= 1
        assert hdfs.file_exists("wf/x.out")  # namespace entry survives
        assert hdfs.lost_blocks("wf/x.out") != []

    def test_destroy_replicas_is_journaled(self):
        cluster = fresh_cluster()
        hdfs = cluster.hdfs
        hdfs.create_file("wf/x.out", 4096)
        hdfs.destroy_replicas("wf/x.out")
        ops = [op.op for op in hdfs.journal.edits.ops]
        assert "destroy_replicas" in ops


# -- stage retries and failure propagation -------------------------------------


class TestRetriesAndCancellation:
    def test_transient_stage_failure_retries_and_completes(
        self, diamond, diamond_baseline
    ):
        plan = WorkflowFaultPlan(fail_stages=(("left", 2),))
        result = WorkflowRunner(fresh_cluster(), plan=plan).run(diamond)
        assert result.status == "completed"
        assert result.accounting.stage_retries == 2
        assert result.accounting.injected_stage_failures == 2
        assert result.report("left").retries == 2
        assert repr(result.outputs) == repr(diamond_baseline.outputs)
        types = [e.type for e in result.events]
        assert types.count(EVENT_STAGE_RETRY) == 2

    def test_retry_backoff_delays_relaunch(self, diamond):
        plan = WorkflowFaultPlan(fail_stages=(("left", 1),))
        slow = Workflow(
            diamond.name,
            [
                Stage(
                    s.name,
                    s.work,
                    deps=s.deps,
                    output=s.output,
                    payload=s.payload,
                    policy=StagePolicy(max_retries=2, backoff_s=5.0),
                )
                for s in (diamond.stage(n) for n in diamond.order)
            ],
        )
        result = WorkflowRunner(fresh_cluster(), plan=plan).run(slow)
        assert result.status == "completed"
        first_fail_wave_end = min(
            e.time_s
            for e in result.events
            if e.type == EVENT_STAGE_RETRY and e.payload["stage"] == "left"
        )
        relaunch = result.report("left").finished_s
        assert relaunch >= first_fail_wave_end + 5.0

    def test_exhausted_retries_cancel_exactly_the_downstream_cone(self, diamond):
        budget = diamond.stage("left").policy.max_retries
        plan = WorkflowFaultPlan(fail_stages=(("left", budget + 1),))
        cluster = fresh_cluster()
        result = WorkflowRunner(cluster, plan=plan).run(diamond)
        assert result.status == "partial"
        statuses = {r.stage: r.status for r in result.reports}
        assert statuses == {
            "ingest": "completed",
            "side": "completed",
            "left": "failed",
            "right": "completed",
            "join": "cancelled",
        }
        assert result.report("join").cancelled_by == "left"
        assert result.report("join").executions == 0  # never dispatched
        assert result.accounting.stages_cancelled == 1
        assert result.accounting.stages_failed == 1
        assert cluster.master.procfs.stages_cancelled == 1
        # The surviving independent sink still committed its payload.
        assert result.outputs == {"side": diamond.stage("side").payload}
        types = [e.type for e in result.events]
        assert types.count(EVENT_STAGE_FAILED) == 1
        assert types.count(EVENT_JOB_CANCELLED) >= 1


# -- JobTracker crash: journal recovery and checkpoints ------------------------


class TestMasterCrashResume:
    def test_crash_resumes_from_journal_with_zero_reruns(
        self, diamond, diamond_baseline
    ):
        plan = WorkflowFaultPlan(master_crash_after="ingest")
        cluster = fresh_cluster()
        result = WorkflowRunner(cluster, plan=plan).run(diamond)
        assert result.status == "completed"
        assert result.accounting.master_crashes == 1
        assert result.accounting.stages_recovered >= 1
        # Zero completed stages re-ran: total executions equals the
        # stage count.
        assert result.accounting.stages_run == len(diamond)
        assert cluster.master.procfs.master_restarts == 1
        assert repr(result.outputs) == repr(diamond_baseline.outputs)

    def test_checkpoint_resume_runs_only_open_stages(
        self, diamond, diamond_baseline
    ):
        # Run to a partial stop (join fails forever), then resume a
        # fresh runner on the same cluster from the last checkpoint.
        plan = WorkflowFaultPlan(fail_stages=(("join", 99),))
        first = WorkflowRunner(fresh_cluster(), plan=plan)
        partial = first.run(diamond)
        assert partial.status == "partial"
        ckpt = first.last_checkpoint
        assert ckpt is not None
        assert ckpt.workflow == diamond.name

        resumed = WorkflowRunner(first.cluster).run(diamond, resume_from=ckpt)
        assert resumed.status == "completed"
        recovered = resumed.accounting.stages_recovered
        assert recovered >= 1
        assert resumed.accounting.stages_run == len(diamond) - recovered
        assert repr(resumed.outputs) == repr(diamond_baseline.outputs)

    def test_checkpoint_for_wrong_workflow_rejected(self, diamond):
        plan = WorkflowFaultPlan(fail_stages=(("join", 99),))
        first = WorkflowRunner(fresh_cluster(), plan=plan)
        first.run(diamond)
        other = workflow_from_chain("other", [small_work("s")])
        with pytest.raises(ValueError):
            WorkflowRunner(fresh_cluster()).run(
                other, resume_from=first.last_checkpoint
            )


class TestWorkflowJournal:
    def test_duplicate_stage_rejected(self):
        journal = WorkflowJournal(workflow="wf")
        journal.record_stage("a", 1.0, 1, "wf/a.out")
        with pytest.raises(ValueError):
            journal.record_stage("a", 2.0, 1, "wf/a.out")

    def test_forget_enables_rerecording(self):
        journal = WorkflowJournal(workflow="wf")
        journal.record_stage("a", 1.0, 1, "wf/a.out")
        journal.forget_stage("a")
        assert journal.completed_stages() == ()
        journal.record_stage("a", 3.0, 2, "wf/a.out")
        assert journal.record_for("a").finished_s == 3.0
        assert len(journal) == 1

    def test_snapshot_restore_preserves_namespace_after_destroy(self):
        cluster = fresh_cluster()
        cluster.hdfs.create_file("wf/a.out", 4096)
        cluster.hdfs.destroy_replicas("wf/a.out")
        image = snapshot(cluster.hdfs)
        other = fresh_cluster()
        restore_into(other.hdfs, image)
        assert other.hdfs.file_exists("wf/a.out")
        assert other.hdfs.lost_blocks("wf/a.out") != []


# -- observational freedom -----------------------------------------------------


class TestObservationalFreedom:
    def test_counters_on_equals_counters_off(self, diamond):
        plan = WorkflowFaultPlan(
            destroy_outputs=("ingest",), fail_stages=(("left", 1),)
        )
        observed_cluster = fresh_cluster()
        observed = WorkflowRunner(
            observed_cluster, plan=plan, observe=True
        ).run(diamond)
        blind_cluster = fresh_cluster()
        blind = WorkflowRunner(blind_cluster, plan=plan, observe=False).run(
            diamond
        )

        assert observed.to_dict() == blind.to_dict()
        assert [e.describe() for e in observed.events] == [
            e.describe() for e in blind.events
        ]
        assert observed_cluster.clock == blind_cluster.clock
        for obs_node, blind_node in zip(
            observed_cluster.slaves, blind_cluster.slaves
        ):
            assert vars(obs_node.procfs) == vars(blind_node.procfs)
        # The only divergence allowed: the master's workflow counters.
        assert observed_cluster.master.procfs.lineage_recomputes >= 1
        assert observed_cluster.master.procfs.stage_retries == 1
        assert blind_cluster.master.procfs.lineage_recomputes == 0
        assert blind_cluster.master.procfs.stage_retries == 0


class TestEveryNodeCrashed:
    """Crashing the only slave fails every job of the first wave before
    any finishes; the workflow must still end with its stages failed and
    their cones cancelled, not with a stale-cluster error."""

    def test_stages_fail_and_cones_cancel(self):
        workflow = build_workflow("diamond", scale=0.05, num_slaves=1)
        plan = WorkflowFaultPlan(node_crashes=(("slave1", 0.05),), seed=0)
        cluster = make_cluster(num_slaves=1, block_size=256 * 1024)
        result = WorkflowRunner(cluster, plan=plan).run(workflow)
        assert result.status == "partial"
        statuses = {r.stage: r.status for r in result.reports}
        assert statuses == {"ingest": "failed", "side": "failed", "left": "cancelled",
                            "right": "cancelled", "join": "cancelled"}
        assert result.outputs == {}

    def test_cli_exits_1(self, capsys):
        code = main(["run-workflow", "--dag", "diamond", "--slaves", "1",
                     "--crash-node", "slave1", "--crash-time", "0.05"])
        assert code == 1
        assert "contract violation: workflow partial" in capsys.readouterr().err


# -- the workflow row of the chaos table (tests/cluster/test_chaos.py) ---------


class TestWorkflowChaosMatrix:
    @pytest.mark.parametrize("dag", ["hive-chain", "kmeans", "pagerank"])
    @pytest.mark.parametrize("scheduler", ["fifo", "fair"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dag_survives_every_fault_regime(self, dag, scheduler, seed):
        check("workflow", dag, seed, "dag_survives_every_fault_regime", scheduler)

    def test_chaos_is_reproducible(self):
        check_reproducible("workflow")
