"""Tests for JobTracker/NameNode crash injection and recovery.

Covers the two Hadoop-1.x recovery modes — ``restart`` (stock,
``mapred.jobtracker.restart.recover=false``: the in-flight job re-runs
from scratch) and ``resume`` (``recover=true``: the job-history journal
is replayed and completed map outputs on live tasktrackers are reused) —
plus the namespace recovery contract after mixed fault schedules.  The
seeded mid-workload crash matrix is the ``master-crash`` row of the
chaos table (``tests/cluster/test_chaos.py``).
"""

import math

import pytest

from repro.cluster.attempts import AttemptState
from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
from repro.cluster.faults import FaultPlan, FaultyCluster
from repro.workloads import workload
from tests.cluster.test_chaos import SEEDS, W3, check, check_matrix

def work(maps=16, cpu=1.0, reduces=4, slaves=4) -> JobWork:
    return JobWork(
        "job",
        maps=[
            MapWork(1 << 20, cpu, 1 << 20, preferred_nodes=(f"slave{i % slaves + 1}",))
            for i in range(maps)
        ],
        reduces=[ReduceWork(4 << 20, 0.2, 1 << 20) for _ in range(reduces)],
    )


def run(plan: FaultPlan, slaves=4, **work_kw):
    cluster = make_cluster(slaves)
    return FaultyCluster(cluster, plan).run_job(work(slaves=slaves, **work_kw))


BASELINE = run(FaultPlan())
MID_JOB = BASELINE.duration_s * 0.4
DOWNTIME = 0.75


class TestPlanValidation:
    def test_rejects_bad_master_fields(self):
        with pytest.raises(ValueError):
            FaultPlan(master_crash_time=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(master_crash_time=math.nan)
        with pytest.raises(ValueError):
            FaultPlan(master_crash_time=math.inf)
        with pytest.raises(ValueError):
            FaultPlan(master_recovery="reboot")
        with pytest.raises(ValueError):
            FaultPlan(master_downtime_s=-0.5)
        with pytest.raises(ValueError):
            FaultPlan(master_downtime_s=math.nan)

    def test_master_crash_counts_as_fault_injection(self):
        assert FaultPlan(master_crash_time=1.0).injects_faults
        assert not FaultPlan().injects_faults


class TestRestartRecovery:
    def test_restart_reruns_the_job_from_scratch(self):
        timeline = run(FaultPlan(
            master_crash_time=MID_JOB,
            master_recovery="restart",
            master_downtime_s=DOWNTIME,
        ))
        # Stock 1.x: everything before the crash is wasted; the job
        # re-runs on an otherwise-idle cluster after the downtime, so the
        # end lands exactly at crash + downtime + fault-free duration.
        expected = MID_JOB + DOWNTIME + BASELINE.duration_s
        assert timeline.end_s == pytest.approx(expected, rel=1e-9)
        assert timeline.master_crashes == 1
        assert timeline.jobs_restarted == 1
        assert timeline.jobs_resumed == 0
        assert timeline.maps_recovered == 0
        assert timeline.recovery_mode == "restart"
        assert timeline.recovery_downtime_s == pytest.approx(DOWNTIME)
        assert timeline.wasted_seconds > 0

    def test_pre_crash_attempts_are_orphaned_in_the_record(self):
        timeline = run(FaultPlan(
            master_crash_time=MID_JOB, master_recovery="restart",
        ))
        orphans = [
            a for a in timeline.attempts if a.reason == "jobtracker lost"
        ]
        assert orphans
        assert all(a.state is AttemptState.KILLED for a in orphans)
        assert all(a.end_s == pytest.approx(MID_JOB) for a in orphans)


class TestResumeRecovery:
    def test_resume_reuses_journaled_map_outputs(self):
        timeline = run(FaultPlan(
            master_crash_time=MID_JOB,
            master_recovery="resume",
            master_downtime_s=DOWNTIME,
        ))
        assert timeline.master_crashes == 1
        assert timeline.jobs_resumed == 1
        assert timeline.jobs_restarted == 0
        assert timeline.maps_recovered > 0
        assert timeline.recovery_mode == "resume"
        assert timeline.recovery_downtime_s == pytest.approx(DOWNTIME)

    def test_resume_is_never_slower_than_restart(self):
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            at = BASELINE.duration_s * frac
            resume = run(FaultPlan(master_crash_time=at, master_recovery="resume"))
            restart = run(FaultPlan(master_crash_time=at, master_recovery="restart"))
            assert BASELINE.duration_s <= resume.duration_s <= restart.duration_s

    def test_resume_equals_restart_when_nothing_completed(self):
        # Crash before the first map commits: the job history is empty,
        # so replaying it recovers nothing and both modes pay full price.
        early = 0.3
        resume = run(FaultPlan(master_crash_time=early, master_recovery="resume"))
        restart = run(FaultPlan(master_crash_time=early, master_recovery="restart"))
        assert resume.maps_recovered == 0
        assert resume.duration_s == pytest.approx(restart.duration_s, rel=1e-9)

    def test_in_flight_attempts_are_killed_and_rescheduled(self):
        timeline = run(FaultPlan(
            master_crash_time=MID_JOB, master_recovery="resume",
        ))
        killed = [a for a in timeline.attempts if a.reason == "jobtracker lost"]
        assert killed
        retried = {a.task_id for a in killed}
        succeeded = {
            a.task_id
            for a in timeline.attempts
            if a.state is AttemptState.SUCCEEDED
        }
        assert retried <= succeeded  # every orphaned task still completed


class TestCrashTiming:
    def test_crash_between_jobs_delays_the_next_submission(self):
        # Crash lands while the cluster is idle between jobs: job 1 is
        # untouched, job 2 waits out the control-plane restart before it
        # can even start.
        plan = FaultPlan(
            master_crash_time=BASELINE.duration_s + 0.5,
            master_recovery="resume",
            master_downtime_s=DOWNTIME,
        )
        faulty = FaultyCluster(make_cluster(4), plan)
        first = faulty.run_job(work())
        faulty.cluster.clock = first.end_s + 1.0  # idle gap spanning the crash
        second = faulty.run_job(work())
        assert first.master_crashes == 0
        assert first.end_s == pytest.approx(BASELINE.end_s)
        assert second.master_crashes == 1
        assert second.jobs_restarted == 0 and second.jobs_resumed == 0
        # Submitted at end+1.0, master back at end+0.5+DOWNTIME: the job
        # eats the remaining outage, then runs cleanly.
        remaining = (BASELINE.end_s + 0.5 + DOWNTIME) - (first.end_s + 1.0)
        assert second.recovery_downtime_s == pytest.approx(remaining)
        assert second.duration_s == pytest.approx(
            BASELINE.duration_s + remaining, rel=1e-9
        )

    def test_crash_beyond_the_run_stays_pending(self):
        timeline = run(FaultPlan(
            master_crash_time=1e6, master_recovery="resume",
        ))
        assert timeline.master_crashes == 0
        assert timeline.recovery_mode == ""
        assert timeline.end_s == pytest.approx(BASELINE.end_s, rel=1e-12)

    def test_master_crash_happens_once_across_jobs(self):
        plan = FaultPlan(master_crash_time=MID_JOB, master_recovery="resume")
        faulty = FaultyCluster(make_cluster(4), plan)
        first = faulty.run_job(work())
        second = faulty.run_job(work())
        assert first.master_crashes == 1
        assert second.master_crashes == 0
        assert faulty.master.procfs.master_restarts == 1

    def test_reset_rearms_the_crash(self):
        plan = FaultPlan(master_crash_time=MID_JOB, master_recovery="restart")
        faulty = FaultyCluster(make_cluster(4), plan)
        first = faulty.run_job(work())
        faulty.reset()
        again = faulty.run_job(work())
        assert first.master_crashes == again.master_crashes == 1
        assert first.end_s == pytest.approx(again.end_s, rel=1e-12)

    def test_same_plan_is_exactly_reproducible(self):
        plan = FaultPlan(master_crash_time=MID_JOB, master_recovery="resume")
        a = run(plan)
        b = run(plan)
        assert a.end_s == b.end_s
        assert a.accounting() == b.accounting()


class TestNamespaceRecoveryUnderFaults:
    """The tentpole contract: replay(fsimage, edits) == the live namespace
    after arbitrary seeded fault schedules driven by real workloads."""

    @staticmethod
    def namespace_state(hdfs):
        return (
            {name: tuple(f.blocks) for name, f in hdfs.files.items()},
            hdfs._placement_cursor,
            hdfs.dead_nodes,
            hdfs.total_stored_bytes(),
        )

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_namenode_recovers_exact_namespace_after_chaos(self, seed):
        plan = FaultPlan(
            map_failures=(0,),
            # Node crashes fire inside the map phase (ends ~0.21s here).
            node_crashes=(("slave2", 0.03 + 0.04 * seed),),
            shuffle_failures=((0, 1, 2),),
            seed=seed,
        )
        cluster = make_cluster(4, block_size=64 * 1024)
        faulty = FaultyCluster(cluster, plan)
        workload("Sort").run(scale=0.3, cluster=faulty)
        recovered = cluster.journal.recover()
        assert self.namespace_state(recovered) == self.namespace_state(cluster.hdfs)
        # The fault schedule actually dirtied the namespace.
        assert cluster.hdfs.dead_nodes == ("slave2",)
        assert cluster.master.procfs.journal_edits > 0

    def test_recovery_survives_a_master_crash_too(self):
        plan = FaultPlan(
            master_crash_time=MID_JOB,
            master_recovery="resume",
            node_crashes=(("slave3", 0.1),),
        )
        cluster = make_cluster(4, block_size=64 * 1024)
        faulty = FaultyCluster(cluster, plan)
        workload("WordCount").run(scale=0.3, cluster=faulty)
        recovered = cluster.journal.recover()
        assert self.namespace_state(recovered) == self.namespace_state(cluster.hdfs)


@pytest.mark.parametrize("name", W3)
@pytest.mark.parametrize("seed", SEEDS["master-crash"])
class TestMasterCrashChaosMatrix:
    """The master-crash row of the chaos table (tests/cluster/test_chaos.py)."""

    def test_outputs_are_bit_identical_in_both_modes(self, name, seed):
        check("master-crash", name, seed, "outputs_are_bit_identical_in_both_modes")

    def test_the_master_crashed_exactly_once(self, name, seed):
        check("master-crash", name, seed, "the_master_crashed_exactly_once")

    def test_resume_is_at_least_as_fast_as_restart(self, name, seed):
        check("master-crash", name, seed, "resume_is_at_least_as_fast_as_restart")

    def test_the_outage_never_speeds_the_run_up(self, name, seed):
        check("master-crash", name, seed, "the_outage_never_speeds_the_run_up")


class TestMasterCrashChaosProperties:
    def test_matrix_exercises_both_recovery_paths(self):
        check_matrix("master-crash", "matrix_exercises_both_recovery_paths")
