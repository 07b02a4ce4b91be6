"""Tests for the resilience subsystem: fault injection and recovery."""

import pytest

from repro.cluster.attempts import (
    AttemptState,
    DataLossError,
    JobFailedError,
    RetryPolicy,
)
from repro.cluster.cluster import (
    JobTimeline,
    JobWork,
    MapWork,
    ReduceWork,
    make_cluster,
)
from repro.cluster.faults import FaultPlan, FaultyCluster


def work(maps=16, cpu=1.0, reduces=4, slaves=4, replicas=1) -> JobWork:
    """A balanced job: each map's input is placed round-robin on the slaves,
    so the fault-free schedule is data-local (like a real HDFS layout)."""
    return JobWork(
        "job",
        maps=[
            MapWork(
                1 << 20,
                cpu,
                1 << 20,
                preferred_nodes=tuple(
                    f"slave{(i + r) % slaves + 1}" for r in range(replicas)
                ),
            )
            for i in range(maps)
        ],
        reduces=[ReduceWork(4 << 20, 0.2, 1 << 20) for _ in range(reduces)],
    )


def run(plan: FaultPlan, slaves=4, **work_kw):
    cluster = make_cluster(slaves)
    return FaultyCluster(cluster, plan).run_job(work(slaves=slaves, **work_kw))


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(failure_point=1.5)
        with pytest.raises(ValueError):
            FaultPlan(failure_point=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(straggler_factor=0.5)

    def test_failure_point_bounds_are_inclusive(self):
        assert FaultPlan(failure_point=0.0).failure_point == 0.0
        assert FaultPlan(failure_point=1.0).failure_point == 1.0
        assert FaultPlan(straggler_factor=1.0).straggler_factor == 1.0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(map_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(reduce_failure_rate=-0.5)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(map_failures=(-1,))
        with pytest.raises(ValueError):
            FaultPlan(map_failure_counts=((0, 0),))
        with pytest.raises(ValueError):
            FaultPlan(shuffle_failures=((0, 0, 0),))
        with pytest.raises(ValueError):
            FaultPlan(node_crashes=(("slave1", -1.0),))
        with pytest.raises(ValueError):
            FaultPlan(lost_replicas=((-1, "slave1"),))

    def test_random_plan_rate(self):
        plan = FaultPlan.random_plan(1000, failure_rate=0.1, seed=1)
        assert 50 < len(plan.map_failures) < 200

    def test_random_plan_rate_extremes(self):
        assert FaultPlan.random_plan(50, failure_rate=0.0).map_failures == ()
        assert len(FaultPlan.random_plan(50, failure_rate=1.0).map_failures) == 50

    def test_random_plan_deterministic(self):
        a = FaultPlan.random_plan(100, failure_rate=0.2, seed=7)
        b = FaultPlan.random_plan(100, failure_rate=0.2, seed=7)
        assert a.map_failures == b.map_failures

    def test_random_plan_seed_changes_sample(self):
        a = FaultPlan.random_plan(100, failure_rate=0.2, seed=7)
        b = FaultPlan.random_plan(100, failure_rate=0.2, seed=8)
        assert a.map_failures != b.map_failures

    def test_random_plan_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultPlan.random_plan(10, failure_rate=2.0)

    def test_injects_faults_flag(self):
        assert not FaultPlan().injects_faults
        assert FaultPlan(map_failures=(1,)).injects_faults
        assert FaultPlan(node_crashes=(("slave1", 1.0),)).injects_faults


class TestFailures:
    def test_no_faults_matches_plain_cluster_exactly(self):
        # Every timeline field, locality tiers and rack map included, on
        # a flat and on a two-rack cluster.
        for racks in (1, 2):
            plain = make_cluster(4, racks=racks).run_job(work())
            faulty = FaultyCluster(
                make_cluster(4, racks=racks), FaultPlan()
            ).run_job(work())
            report = faulty.to_dict()
            resilience = report.pop("resilience")
            assert report == plain.to_dict()
            assert not any(resilience.values())

    def test_failures_counted_and_cost_time(self):
        baseline = run(FaultPlan())
        faulty = run(FaultPlan(map_failures=(0, 3, 7)))
        assert faulty.failed_attempts == 3
        assert faulty.failed_map_attempts == 3
        assert faulty.wasted_seconds > 0
        assert faulty.duration_s >= baseline.duration_s

    def test_retry_prefers_a_different_node(self):
        faulty = run(FaultPlan(map_failures=(2,)))
        attempts = [a for a in faulty.attempts if a.task_id == "m_000002"]
        failed = [a for a in attempts if a.state is AttemptState.FAILED]
        succeeded = [a for a in attempts if a.state is AttemptState.SUCCEEDED]
        assert len(failed) == 1 and len(succeeded) == 1
        assert succeeded[0].node != failed[0].node

    def test_retry_backs_off_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.5, backoff_factor=2.0)
        faulty = run(FaultPlan(map_failure_counts=((0, 2),), policy=policy))
        attempts = [a for a in faulty.attempts if a.task_id == "m_000000"]
        assert [a.state for a in attempts] == [
            AttemptState.FAILED, AttemptState.FAILED, AttemptState.SUCCEEDED,
        ]
        first_gap = attempts[1].start_s - attempts[0].end_s
        second_gap = attempts[2].start_s - attempts[1].end_s
        assert first_gap >= 0.5 - 1e-9
        assert second_gap >= 1.0 - 1e-9

    def test_reduce_failures_counted(self):
        baseline = run(FaultPlan())
        faulty = run(FaultPlan(reduce_failures=(1,)))
        assert faulty.failed_reduce_attempts == 1
        assert faulty.duration_s >= baseline.duration_s

    def test_map_exhaustion_aborts_the_job(self):
        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(JobFailedError) as excinfo:
            run(FaultPlan(map_failure_counts=((5, 3),), policy=policy))
        assert excinfo.value.task_id == "m_000005"
        assert excinfo.value.attempts == 3

    def test_reduce_exhaustion_aborts_the_job(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(JobFailedError) as excinfo:
            run(FaultPlan(reduce_failure_counts=((0, 2),), policy=policy))
        assert excinfo.value.task_id == "r_000000"

    def test_rate_based_failures_are_seed_deterministic(self):
        a = run(FaultPlan(map_failure_rate=0.3, seed=42))
        b = run(FaultPlan(map_failure_rate=0.3, seed=42))
        assert a.failed_attempts == b.failed_attempts
        assert a.duration_s == b.duration_s

    def test_failed_job_still_completes_all_reduces(self):
        faulty = run(FaultPlan(map_failures=(1,)))
        assert faulty.reduce_tasks == 4
        assert faulty.end_s >= faulty.map_phase_end_s


class TestBlacklist:
    def test_repeatedly_failing_node_is_blacklisted(self):
        # Every map prefers slave1, and the first eight first-attempts all
        # fail there — past the threshold the node must stop getting work.
        job = JobWork(
            "pinned",
            maps=[
                MapWork(1 << 20, 1.0, 1 << 20, preferred_nodes=("slave1",))
                for _ in range(16)
            ],
            reduces=[ReduceWork(4 << 20, 0.2, 1 << 20) for _ in range(4)],
        )
        plan = FaultPlan(
            map_failures=tuple(range(8)),
            policy=RetryPolicy(node_failure_threshold=4),
        )
        faulty = FaultyCluster(make_cluster(4), plan).run_job(job)
        assert "slave1" in faulty.blacklisted_nodes
        threshold_time = sorted(
            a.end_s for a in faulty.attempts
            if a.state is AttemptState.FAILED and a.node == "slave1"
        )[3]
        late_starts = [
            a for a in faulty.attempts
            if a.node == "slave1" and a.start_s > threshold_time
        ]
        assert late_starts == []


class TestStragglers:
    def test_straggler_without_speculation_drags_the_job(self):
        healthy = run(FaultPlan())
        dragged = run(
            FaultPlan(
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
                speculative_execution=False,
            )
        )
        assert dragged.duration_s > 1.5 * healthy.duration_s

    def test_speculation_bounds_straggler_damage(self):
        no_spec = run(
            FaultPlan(
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
                speculative_execution=False,
            )
        )
        with_spec = run(
            FaultPlan(
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
                speculative_execution=True,
            )
        )
        assert with_spec.duration_s < no_spec.duration_s
        assert with_spec.speculative_attempts > 0
        assert with_spec.speculative_wins > 0

    def test_speculation_wastes_work(self):
        with_spec = run(
            FaultPlan(
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
                speculative_execution=True,
            )
        )
        assert with_spec.wasted_seconds > 0

    def test_single_node_cluster_cannot_speculate(self):
        result = run(
            FaultPlan(straggler_nodes=("slave1",), speculative_execution=True),
            slaves=1,
        )
        assert result.speculative_wins == 0

    def test_all_straggler_cluster_has_no_backup_targets(self):
        result = run(
            FaultPlan(
                straggler_nodes=("slave1", "slave2", "slave3", "slave4"),
                straggler_factor=4.0,
            )
        )
        assert result.speculative_wins == 0

    def test_reduces_speculate_off_stragglers_too(self):
        result = run(
            FaultPlan(
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
                speculative_execution=True,
            )
        )
        reduce_specs = [
            a for a in result.attempts
            if a.task_id.startswith("r_") and a.state is AttemptState.SUCCEEDED
            and a.node != "slave1"
        ]
        # reduce 0 was placed on the straggler (round-robin) but must not
        # finish there when a backup can win
        assert result.speculative_attempts >= 1
        assert reduce_specs


class TestNodeCrash:
    # Crash scenarios place inputs with 2 replicas: with a single replica
    # the crash legitimately destroys the only copy of the dead node's
    # splits and the job dies with DataLossError (tested below).

    def plan(self, at=2.0, **kw):
        kw.setdefault("policy", RetryPolicy(heartbeat_timeout_s=0.5))
        return FaultPlan(node_crashes=(("slave2", at),), **kw)

    def test_crash_mid_map_phase_recovers_and_completes(self):
        baseline = run(FaultPlan(), replicas=2)
        faulty = run(
            self.plan(at=baseline.map_phase_end_s * 0.5), replicas=2
        )
        assert faulty.nodes_crashed == ("slave2",)
        assert faulty.duration_s >= baseline.duration_s
        assert faulty.killed_attempts + faulty.maps_reexecuted > 0

    def test_crash_with_single_replica_loses_data(self):
        with pytest.raises(DataLossError):
            run(self.plan(at=0.2))

    def test_completed_map_outputs_on_dead_node_rerun(self):
        # Crash well into the map phase: slave2 has finished at least one
        # wave whose output dies with it.
        baseline = run(FaultPlan(), cpu=0.2, replicas=2)
        crash_at = baseline.map_phase_end_s * 0.7
        faulty = run(self.plan(at=crash_at), cpu=0.2, replicas=2)
        assert faulty.maps_reexecuted > 0
        rerun = [
            a for a in faulty.attempts
            if a.reason == "map output lost with node"
        ]
        assert rerun and all(a.node != "slave2" for a in rerun)

    def test_nothing_scheduled_on_dead_node_after_detection(self):
        faulty = run(self.plan(at=1.0), replicas=2)
        for attempt in faulty.attempts:
            if attempt.node == "slave2":
                assert attempt.start_s < 1.0 + 0.5

    def test_heartbeat_timeout_delays_reexecution(self):
        slow = FaultPlan(
            node_crashes=(("slave2", 1.0),),
            policy=RetryPolicy(heartbeat_timeout_s=2.0),
        )
        faulty = run(slow, replicas=2)
        killed = [a for a in faulty.attempts if a.state is AttemptState.KILLED]
        assert killed
        task_ids = {a.task_id for a in killed}
        for task_id in task_ids:
            retries = [
                a for a in faulty.attempts
                if a.task_id == task_id and a.start_s >= 1.0
                and a.state is not AttemptState.KILLED
            ]
            assert all(a.start_s >= 3.0 for a in retries)

    def test_crashed_node_stays_dead_for_later_jobs(self):
        cluster = make_cluster(4)
        faulty = FaultyCluster(cluster, self.plan(at=1.0))
        first = faulty.run_job(work(replicas=2))
        assert first.nodes_crashed == ("slave2",)
        second = faulty.run_job(work(replicas=2))
        assert all(a.node != "slave2" for a in second.attempts)
        assert second.nodes_crashed == ()


class TestShuffleFaults:
    def test_fetch_failures_retry_with_backoff(self):
        baseline = run(FaultPlan())
        faulty = run(FaultPlan(shuffle_failures=((0, 0, 2),)))
        assert faulty.shuffle_fetch_failures == 2
        assert faulty.fetch_escalations == 0
        assert faulty.wasted_seconds > 0
        assert faulty.duration_s >= baseline.duration_s

    def test_fetch_failures_escalate_to_map_rerun(self):
        policy = RetryPolicy(max_fetch_retries=3)
        faulty = run(
            FaultPlan(shuffle_failures=((0, 0, 4),), policy=policy)
        )
        assert faulty.shuffle_fetch_failures == 3
        assert faulty.fetch_escalations == 1
        rerun = [
            a for a in faulty.attempts if a.reason == "too many fetch failures"
        ]
        assert rerun

    def test_fetch_failures_charge_the_network(self):
        clean = run(FaultPlan())
        faulty = run(FaultPlan(shuffle_failures=((0, 1, 2),)))
        assert faulty.network_bytes > clean.network_bytes


class TestReplicaLoss:
    def test_lost_replica_forces_remote_read(self):
        baseline = run(FaultPlan(), replicas=2)
        faulty = run(
            FaultPlan(lost_replicas=((0, "slave1"),)), replicas=2
        )
        # map 0 preferred slave1+slave2; its slave1 copy is gone, so the
        # job still completes (reading the surviving replica).
        assert faulty.failed_attempts == 0
        assert faulty.duration_s >= baseline.duration_s

    def test_all_replicas_lost_kills_the_job(self):
        with pytest.raises(DataLossError):
            run(
                FaultPlan(lost_replicas=((0, "slave1"), (0, "slave2"))),
                replicas=2,
            )


class TestAccountingSurfaces:
    def test_faulty_timeline_quacks_like_a_timeline(self):
        faulty = run(FaultPlan(map_failures=(0,)))
        assert isinstance(faulty, JobTimeline)
        assert faulty.duration_s == faulty.end_s - faulty.start_s
        assert faulty.end_s >= faulty.map_phase_end_s
        assert faulty.job_name == "job"
        assert faulty.map_tasks == 16 and faulty.reduce_tasks == 4
        assert set(faulty.disk_writes_per_second) == {
            "slave1", "slave2", "slave3", "slave4",
        }

    def test_accounting_dict_is_complete(self):
        faulty = run(FaultPlan(map_failures=(0,), shuffle_failures=((0, 0, 1),)))
        accounting = faulty.accounting()
        assert accounting["failed_attempts"] == 1
        assert accounting["shuffle_fetch_failures"] == 1
        assert "wasted_seconds" in accounting

    def test_procfs_exposes_resilience_counters(self):
        cluster = make_cluster(4)
        faulty = FaultyCluster(
            cluster,
            FaultPlan(
                map_failures=(0, 1),
                straggler_nodes=("slave1",),
                straggler_factor=8.0,
            ),
        )
        result = faulty.run_job(work())
        failed = sum(n.procfs.tasks_failed for n in cluster.slaves)
        speculative = sum(n.procfs.tasks_speculative for n in cluster.slaves)
        assert failed == result.failed_attempts
        assert speculative == result.speculative_attempts
        line = cluster.slaves[0].procfs.render("resilience")
        assert "tasks_failed" in line and "fetch_failures" in line
