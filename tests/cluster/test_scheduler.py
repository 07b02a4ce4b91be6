"""Tests for the multi-tenant scheduling subsystem.

The load-bearing contract is backward compatibility: a single job
submitted to a :class:`MultiJobCluster` under the FIFO scheduler must
replay the *exact* primitive-charge sequence of the stock
``HadoopCluster.run_job`` — bit-identical timeline, ``/proc`` counters
(including the sample stream), cluster clock and network totals.  On
top of that sit the policy tests: FIFO ordering, fair sharing with
min-share preemption, capacity queues with user limits, and the
idle-cluster guard.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import (
    JobWork,
    MapWork,
    ReduceWork,
    StaleClusterError,
    make_cluster,
)
from repro.cluster.scheduler import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
    MultiJobCluster,
    PoolConfig,
    QueueConfig,
    RunningTask,
    ScheduledJob,
    SchedulerState,
    jain_index,
    make_scheduler,
)
from repro.workloads import workload


def procfs_state(cluster):
    """Every observable /proc variable of every slave, samples included."""
    out = []
    for node in cluster.slaves:
        proc = node.procfs
        out.append(
            (
                {k: v for k, v in vars(proc).items() if k != "_sample_rows"},
                list(proc.samples),
            )
        )
    return out


def small_cluster():
    return make_cluster(2, map_slots=4, reduce_slots=2, block_size=64 * 1024)


def synthetic_job(name, n_maps=2, cpu=0.05, n_reduces=1):
    return JobWork(
        name,
        maps=[MapWork(1024, cpu, 1024) for _ in range(n_maps)],
        reduces=[ReduceWork(1024, cpu, 1024) for _ in range(n_reduces)],
    )


# -- fairness metric -----------------------------------------------------------


class TestJainIndex:
    def test_equal_allocations_are_perfectly_fair(self):
        assert jain_index([3.0, 3.0, 3.0]) == 1.0

    def test_empty_and_all_zero_degenerate_to_one(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_known_value(self):
        # (1+2+3)^2 / (3 * (1+4+9)) = 36/42
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(36 / 42)

    def test_one_hog_drives_the_index_toward_one_over_n(self):
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -0.5])


# -- configuration validation --------------------------------------------------


class TestConfigs:
    def test_pool_rejects_bad_weight_and_min_share(self):
        with pytest.raises(ValueError):
            PoolConfig("p", weight=0.0)
        with pytest.raises(ValueError):
            PoolConfig("p", min_share=-1)

    def test_queue_capacity_must_be_a_positive_fraction(self):
        with pytest.raises(ValueError):
            QueueConfig("q", capacity=0.0)
        with pytest.raises(ValueError):
            QueueConfig("q", capacity=1.5)
        with pytest.raises(ValueError):
            QueueConfig("q", user_limit=0.0)

    def test_duplicate_pool_and_queue_names_rejected(self):
        with pytest.raises(ValueError):
            FairScheduler(pools=[PoolConfig("a"), PoolConfig("a")])
        with pytest.raises(ValueError):
            CapacityScheduler(queues=[QueueConfig("a"), QueueConfig("a")])

    def test_make_scheduler_by_name(self):
        assert isinstance(make_scheduler("fifo"), FifoScheduler)
        assert isinstance(make_scheduler("fair"), FairScheduler)
        assert isinstance(make_scheduler("capacity"), CapacityScheduler)
        with pytest.raises(ValueError):
            make_scheduler("deadline")


# -- the backward-compat invariant ---------------------------------------------


class TestSingleJobFifoParity:
    @pytest.mark.parametrize("name", ["WordCount", "Sort", "Grep"])
    def test_real_workload_is_bit_identical_to_stock(self, name):
        stock = make_cluster(4)
        run = workload(name).run(0.2, cluster=stock)

        fresh = make_cluster(4)
        multi = MultiJobCluster(fresh, FifoScheduler())
        previous = None
        for work in (r.work for r in run.job_results):
            previous = multi.submit(work, after=previous)
        outcome = multi.run()

        assert [r.timeline for r in outcome.reports] == run.timelines
        assert procfs_state(fresh) == procfs_state(stock)
        assert fresh.clock == stock.clock
        assert fresh.network.bytes_moved == stock.network.bytes_moved
        assert fresh.network.transfers == stock.network.transfers

    @given(
        maps=st.lists(
            st.tuples(
                st.integers(0, 64 * 1024),  # input bytes
                st.floats(0.0, 0.2, allow_nan=False),  # cpu seconds
                st.integers(0, 64 * 1024),  # output bytes
                st.sampled_from([(), ("slave1",), ("slave2",)]),
            ),
            min_size=1,
            max_size=6,
        ),
        reduces=st.lists(
            st.tuples(
                st.integers(0, 64 * 1024),
                st.floats(0.0, 0.2, allow_nan=False),
                st.integers(0, 64 * 1024),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_job_is_bit_identical_to_stock(self, maps, reduces):
        work = JobWork(
            "prop",
            maps=[MapWork(i, c, o, preferred_nodes=p) for i, c, o, p in maps],
            reduces=[ReduceWork(s, c, o) for s, c, o in reduces],
        )
        stock = small_cluster()
        timeline = stock.run_job(work)

        fresh = small_cluster()
        multi = MultiJobCluster(fresh, FifoScheduler())
        multi.submit(work)
        outcome = multi.run()

        assert outcome.reports[0].timeline == timeline
        assert procfs_state(fresh) == procfs_state(stock)
        assert fresh.clock == stock.clock
        assert fresh.network.bytes_moved == stock.network.bytes_moved


# -- FIFO ----------------------------------------------------------------------


class TestFifoScheduler:
    def test_jobs_launch_in_arrival_order(self):
        multi = MultiJobCluster(small_cluster(), FifoScheduler())
        multi.submit(synthetic_job("b"), arrival_s=0.2, job_id="late")
        multi.submit(synthetic_job("a"), arrival_s=0.1, job_id="early")
        outcome = multi.run()
        early, late = outcome.report("early"), outcome.report("late")
        assert early.first_launch_s <= late.first_launch_s

    def test_ties_break_by_submission_sequence(self):
        multi = MultiJobCluster(small_cluster(), FifoScheduler())
        multi.submit(synthetic_job("first", n_maps=8), job_id="first")
        multi.submit(synthetic_job("second", n_maps=8), job_id="second")
        outcome = multi.run()
        assert (
            outcome.report("first").first_launch_s
            <= outcome.report("second").first_launch_s
        )

    def test_mix_is_deterministic(self):
        def play():
            multi = MultiJobCluster(small_cluster(), FifoScheduler())
            multi.submit(synthetic_job("a", n_maps=6), arrival_s=0.0)
            multi.submit(synthetic_job("b", n_maps=3), arrival_s=0.05)
            return multi.run().to_dict()

        assert play() == play()


# -- Fair ----------------------------------------------------------------------


def elephant(name="elephant", n_maps=6, cpu=0.5):
    return JobWork(name, maps=[MapWork(1024, cpu, 1024) for _ in range(n_maps)])


def mouse(name="mouse"):
    return JobWork(name, maps=[MapWork(1024, 0.05, 1024)])


class TestFairScheduler:
    def pools(self, min_share=1):
        return [PoolConfig("batch"), PoolConfig("interactive", min_share=min_share)]

    def test_small_pool_overtakes_a_queued_elephant(self):
        """Under FIFO the mouse waits behind every elephant map; the fair
        scheduler hands it a slot as soon as one frees."""

        def launch_of(scheduler):
            multi = MultiJobCluster(small_cluster(), scheduler)
            multi.submit(elephant(n_maps=16), pool="batch", user="bo")
            multi.submit(mouse(), arrival_s=0.05, pool="interactive", user="ada")
            return multi.run().report("job-0001").first_launch_s

        assert launch_of(
            FairScheduler(pools=self.pools(), preemption=False)
        ) < launch_of(FifoScheduler())

    def test_delay_s_overrides_the_cluster_locality_wait(self):
        cluster = small_cluster()
        assert FairScheduler(delay_s=0.25).locality_wait_s(cluster) == 0.25
        assert (
            FairScheduler().locality_wait_s(cluster) == cluster.locality_wait_s
        )

    def test_preemption_frees_a_slot_at_the_min_share_deadline(self):
        cluster = make_cluster(1, map_slots=2, reduce_slots=1, block_size=64 * 1024)
        scheduler = FairScheduler(
            pools=self.pools(),
            preemption=True,
            min_share_timeout_s=0.2,
            fair_share_timeout_s=10.0,
        )
        multi = MultiJobCluster(cluster, scheduler)
        multi.submit(elephant(), pool="batch", user="bo")
        multi.submit(mouse(), arrival_s=0.1, pool="interactive", user="ada")
        outcome = multi.run()

        assert outcome.preemptions == 1
        assert outcome.preemption_wasted_s > 0
        # the mouse is granted its slot at arrival + min-share timeout,
        # not at the elephant's next natural map completion
        assert outcome.report("job-0001").first_launch_s == pytest.approx(0.3)
        assert outcome.report("job-0000").preempted == 1
        # the killed attempt is requeued and the elephant still finishes
        assert outcome.report("job-0000").finished_s is not None
        assert cluster.slaves[0].procfs.tasks_killed == 1
        assert cluster.slaves[0].procfs.tasks_preempted == 1

    def test_preemption_off_waits_for_a_natural_slot(self):
        cluster = make_cluster(1, map_slots=2, reduce_slots=1, block_size=64 * 1024)
        multi = MultiJobCluster(
            cluster, FairScheduler(pools=self.pools(), preemption=False)
        )
        multi.submit(elephant(), pool="batch", user="bo")
        multi.submit(mouse(), arrival_s=0.1, pool="interactive", user="ada")
        outcome = multi.run()
        assert outcome.preemptions == 0
        assert outcome.report("job-0001").first_launch_s > 0.3

    def test_preemption_timeouts_must_be_positive(self):
        with pytest.raises(ValueError):
            FairScheduler(min_share_timeout_s=0.0)
        with pytest.raises(ValueError):
            FairScheduler(delay_s=-1.0)


# -- Capacity ------------------------------------------------------------------


class TestCapacityScheduler:
    def test_user_limit_caps_one_user_while_others_wait(self):
        """With user_limit=0.5 of a whole-cluster queue, ada cannot take
        more than half the slots of the first wave while bo has demand."""
        cluster = small_cluster()  # 8 map slots
        scheduler = CapacityScheduler(
            queues=[QueueConfig("q", capacity=1.0, user_limit=0.5)]
        )
        multi = MultiJobCluster(cluster, scheduler)
        multi.submit(elephant("ada-1", n_maps=12), pool="q", user="ada")
        multi.submit(elephant("bo-1", n_maps=4), pool="q", user="bo")
        outcome = multi.run()
        # bo gets slots in the very first wave even though ada was first
        assert outcome.report("job-0001").first_launch_s == 0.0
        first_wave = [
            iv for iv in outcome.task_intervals if iv.start_s == 0.0
        ]
        ada_share = sum(1 for iv in first_wave if iv.job_id == "job-0000")
        assert ada_share == 4
        assert len(first_wave) == 8

    def test_single_user_queue_falls_back_instead_of_deadlocking(self):
        cluster = small_cluster()
        scheduler = CapacityScheduler(
            queues=[QueueConfig("q", capacity=0.25, user_limit=0.25)]
        )
        multi = MultiJobCluster(cluster, scheduler)
        multi.submit(elephant("only", n_maps=6), pool="q", user="ada")
        outcome = multi.run()  # must not raise "mix deadlocked"
        assert outcome.report("job-0000").finished_s is not None

    def test_idle_capacity_is_elastic(self):
        """A queue may exceed its capacity when no other queue has demand."""
        cluster = small_cluster()  # 8 map slots; q gets 2 of them nominally
        scheduler = CapacityScheduler(
            queues=[QueueConfig("q", capacity=0.25), QueueConfig("idle", capacity=0.75)]
        )
        multi = MultiJobCluster(cluster, scheduler)
        multi.submit(elephant("burst", n_maps=8, cpu=0.3), pool="q", user="ada")
        outcome = multi.run()
        assert outcome.peak_concurrency() > 2

    @settings(max_examples=200, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(["q", "r", "s"]),
                st.sampled_from(["ada", "bo", "cy"]),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),  # arrival ties are common
            ),
            min_size=1,
            max_size=12,
        ),
        running=st.lists(
            st.tuples(st.sampled_from(["q", "r", "s"]), st.sampled_from(["ada", "bo", "cy"])),
            max_size=10,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_pick_is_the_sorted_scan(self, jobs, running, seed):
        """Earliest job of the earliest under-limit user == the first
        under-limit job of a submit-key sort of the queue."""
        scheduler = CapacityScheduler(
            queues=[
                QueueConfig("q", capacity=0.5, user_limit=0.25),
                QueueConfig("r", capacity=0.3, user_limit=0.5),
            ]
        )
        work = synthetic_job("w", n_maps=1)
        runnable = [
            ScheduledJob(f"j{seq}", work, arrival, user=user, pool=pool, seq=seq)
            for seq, (pool, user, arrival) in enumerate(jobs)
        ]
        random.Random(seed).shuffle(runnable)
        node = small_cluster().slaves[0]
        tasks = [
            RunningTask(ScheduledJob("r", work, 0.0, user=user, pool=pool), 0, node, 0, 0.0, 9.0)
            for pool, user in running
        ]
        state = SchedulerState(0.0, runnable, tasks, total_map_slots=8)

        def sorted_scan():
            def cap(cfg):
                return max(1, round(cfg.capacity * 8))

            order = sorted(
                {j.pool for j in runnable},
                key=lambda q: (state.running_in_pool(q) / cap(scheduler.queue(q)), q),
            )
            for name in order:
                cfg = scheduler.queue(name)
                user_cap = max(1, math.ceil(cfg.user_limit * cap(cfg)))
                for job in sorted(
                    (j for j in runnable if j.pool == name), key=ScheduledJob.submit_key
                ):
                    if state.running_for_user(job.user, pool=name) < user_cap:
                        return job
            return min(runnable, key=ScheduledJob.submit_key)

        assert scheduler.pick_job(0.0, runnable, state) is sorted_scan()


# -- submission validation and the idle-cluster guard --------------------------


class TestSubmissionValidation:
    def test_duplicate_job_id_rejected(self):
        multi = MultiJobCluster(small_cluster())
        multi.submit(synthetic_job("a"), job_id="dup")
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("b"), job_id="dup")

    def test_auto_ids_are_unique_and_deterministic(self):
        multi = MultiJobCluster(small_cluster())
        ids = [multi.submit(synthetic_job(f"j{i}")).job_id for i in range(3)]
        assert ids == ["job-0000", "job-0001", "job-0002"]

    def test_bad_arrival_user_and_pool_rejected(self):
        multi = MultiJobCluster(small_cluster())
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("a"), arrival_s=-1.0)
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("a"), arrival_s=float("nan"))
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("a"), user="  ")
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("a"), pool="")

    def test_dependency_must_be_a_submitted_job(self):
        multi = MultiJobCluster(small_cluster())
        other = MultiJobCluster(small_cluster())
        foreign = other.submit(synthetic_job("x"))
        with pytest.raises(ValueError):
            multi.submit(synthetic_job("a"), after=foreign)

    def test_submit_after_run_rejected(self):
        multi = MultiJobCluster(small_cluster())
        multi.submit(synthetic_job("a"))
        multi.run()
        with pytest.raises(RuntimeError):
            multi.submit(synthetic_job("b"))
        with pytest.raises(RuntimeError):
            multi.run()

    def test_job_work_requires_a_name(self):
        with pytest.raises(ValueError):
            JobWork("", maps=[MapWork(0, 0.0, 0)])
        with pytest.raises(ValueError):
            JobWork("   ", maps=[MapWork(0, 0.0, 0)])


class TestStaleClusterGuard:
    def test_run_job_refuses_a_busy_cluster(self):
        cluster = small_cluster()
        cluster.slaves[0].map_slot_free[0] = cluster.clock + 5.0
        with pytest.raises(StaleClusterError):
            cluster.run_job(synthetic_job("a"))

    def test_stale_reduce_slot_also_caught(self):
        cluster = small_cluster()
        cluster.slaves[1].reduce_slot_free[0] = cluster.clock + 1.0
        with pytest.raises(StaleClusterError):
            cluster.run_job(synthetic_job("a"))

    def test_reset_restores_schedulability(self):
        cluster = small_cluster()
        cluster.slaves[0].map_slot_free[0] = cluster.clock + 5.0
        cluster.reset()
        cluster.run_job(synthetic_job("a"))  # must not raise

    def test_multi_job_cluster_checks_at_run(self):
        cluster = small_cluster()
        multi = MultiJobCluster(cluster)
        multi.submit(synthetic_job("a"))
        cluster.slaves[0].map_slot_free[0] = cluster.clock + 5.0
        with pytest.raises(StaleClusterError):
            multi.run()

    def test_consecutive_jobs_on_an_advanced_clock_still_fine(self):
        cluster = small_cluster()
        cluster.run_job(synthetic_job("a"))
        cluster.run_job(synthetic_job("b"))  # idle-at-clock is schedulable


# -- outcome accounting --------------------------------------------------------


class TestMixOutcome:
    def outcome(self):
        multi = MultiJobCluster(small_cluster(), FifoScheduler())
        multi.submit(synthetic_job("a", n_maps=4), pool="etl", user="ada")
        multi.submit(synthetic_job("b", n_maps=2), arrival_s=0.05, pool="ad-hoc")
        return multi.run()

    def test_reports_and_lookup(self):
        outcome = self.outcome()
        assert [r.job_id for r in outcome.reports] == ["job-0000", "job-0001"]
        assert outcome.report("job-0001").pool == "ad-hoc"
        with pytest.raises(KeyError) as missing:
            outcome.report("nope")
        assert missing.value.args == ("nope",)

    def test_lookups_do_not_rescan_the_reports(self):
        """run_mix looks up every stage of every trace job: 5 000 lookups
        on a 5 000-report outcome walk the list once, not 5 000 times."""
        from repro.cluster.scheduler import JobReport, MixOutcome

        class CountingList(list):
            walks = 0

            def __iter__(self):
                CountingList.walks += 1
                return super().__iter__()

        reports = CountingList(
            JobReport(f"job-{i:04d}", f"j{i}", "u", "p", float(i), None, None, 0, None)
            for i in range(5000)
        )
        outcome = MixOutcome("fifo", reports, 0.0, 0, 0.0, [])
        for i in reversed(range(5000)):
            assert outcome.report(f"job-{i:04d}") is reports[i]
        assert CountingList.walks == 1
        with pytest.raises(KeyError):
            outcome.report("job-5000")
        # reports added later are found, and the first of a duplicated
        # id still wins, as with the scan this replaced
        late = JobReport("job-5000", "late", "u", "p", 0.0, None, None, 0, None)
        reports.append(late)
        reports.append(JobReport("job-5000", "dup", "u", "p", 0.0, None, None, 0, None))
        assert outcome.report("job-5000") is late

    def test_wait_and_turnaround_are_consistent(self):
        outcome = self.outcome()
        for report in outcome.reports:
            assert report.wait_s == pytest.approx(
                report.first_launch_s - report.arrival_s
            )
            assert report.turnaround_s >= report.wait_s

    def test_occupancy_series_counts_task_edges(self):
        outcome = self.outcome()
        series = outcome.occupancy_series()
        assert series, "expected at least one task edge"
        assert outcome.peak_concurrency() >= 1
        # occupancy is zero again after the last edge
        assert series[-1][1] == 0 and series[-1][2] == 0
        # per-node series never exceeds the whole-cluster peak
        assert outcome.peak_concurrency("slave1") <= outcome.peak_concurrency()

    def test_by_pool_groups_every_job(self):
        outcome = self.outcome()
        pools = outcome.by_pool()
        assert set(pools) == {"etl", "ad-hoc"}
        assert pools["etl"]["jobs"] == 1

    def test_to_dict_is_json_serializable(self):
        payload = json.loads(json.dumps(self.outcome().to_dict()))
        assert payload["scheduler"] == "fifo"
        assert len(payload["jobs"]) == 2
        assert payload["jobs"][0]["timeline"]["map_tasks"] == 4


# -- failure propagation through job dependencies ------------------------------


class TestFailurePropagation:
    """A permanently failed upstream must cancel its queued dependents.

    Regression for the pre-DAG dependency hole: a chained job whose
    upstream aborted used to sit in the mix forever (deadlock) or be
    dispatched against missing input.  Now the upstream is marked
    ``failed``, its transitive dependents are ``cancelled`` without ever
    launching a task, and independent jobs run to completion.
    """

    def build(self):
        from repro.cluster.faults import FaultPlan

        cluster = small_cluster()
        # Both slaves die at t=0.2: the independent job (arrival 0) is
        # already done, the chain head (arrival 0.5) finds no live node.
        plan = FaultPlan(node_crashes=(("slave1", 0.2), ("slave2", 0.2)))
        multi = MultiJobCluster(cluster, FifoScheduler(), plan=plan)
        independent = multi.submit(synthetic_job("solo"), arrival_s=0.0)
        head = multi.submit(synthetic_job("head"), arrival_s=0.5)
        mid = multi.submit(synthetic_job("mid"), after=head, arrival_s=0.5)
        tail = multi.submit(synthetic_job("tail"), after=mid, arrival_s=0.5)
        outcome = multi.run(raise_on_failure=False)
        return independent, head, mid, tail, outcome

    def test_upstream_failure_cancels_the_whole_chain(self):
        independent, head, mid, tail, outcome = self.build()
        assert independent.status == "completed"
        assert head.status == "failed"
        assert mid.status == "cancelled"
        assert tail.status == "cancelled"
        assert outcome.failed_jobs == (head.job_id,)
        assert set(outcome.cancelled_jobs) == {mid.job_id, tail.job_id}

    def test_cancelled_jobs_never_dispatch(self):
        _, _, mid, tail, outcome = self.build()
        for job in (mid, tail):
            report = outcome.report(job.job_id)
            assert report.status == "cancelled"
            assert report.first_launch_s is None
            assert report.timeline is None
            assert report.wait_s is None

    def test_survivor_report_is_intact(self):
        independent, _, _, _, outcome = self.build()
        report = outcome.report(independent.job_id)
        assert report.status == "completed"
        assert report.timeline is not None
        assert report.turnaround_s is not None

    def test_raise_on_failure_raises_after_survivors_finish(self):
        from repro.cluster.attempts import JobFailedError
        from repro.cluster.faults import FaultPlan

        cluster = small_cluster()
        plan = FaultPlan(node_crashes=(("slave1", 0.2), ("slave2", 0.2)))
        multi = MultiJobCluster(cluster, FifoScheduler(), plan=plan)
        survivor = multi.submit(synthetic_job("solo"), arrival_s=0.0)
        multi.submit(synthetic_job("head"), arrival_s=0.5)
        with pytest.raises(JobFailedError):
            multi.run()
        assert survivor.status == "completed"

    def test_failure_events_ride_on_the_outcome(self):
        from repro.cluster.eventbus import (
            EVENT_JOB_CANCELLED,
            EVENT_JOB_FAILED,
        )

        _, head, mid, _, outcome = self.build()
        by_type = {}
        for event in outcome.events:
            by_type.setdefault(event.type, []).append(event.payload)
        assert [p["job_id"] for p in by_type[EVENT_JOB_FAILED]] == [head.job_id]
        cancelled = by_type[EVENT_JOB_CANCELLED]
        assert all(p["upstream"] == head.job_id for p in cancelled)
