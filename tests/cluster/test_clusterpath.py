"""Fast cluster engine ≡ reference engine, bit for bit.

The indexed fast path (repro.perf.clusterpath) re-sources the reference
dispatch loop's candidates from incremental structures — a slot-time
segment tree, ready floors, a running-task heap — and its entire value
rests on never changing an outcome byte.  These tests enforce that
contract:

* a hypothesis property over randomized traces × schedulers ×
  topologies × fault plans × seeds × observability modes asserting the
  canonical :func:`mix_outcome_payload` (plus per-node procfs state and
  the cluster clock) matches exactly,
* a pinned matrix with one case per dispatch regime (FIFO contention,
  Fair preemption, Capacity chains, fault plans), whose digests
  ``test_dispatch_golden.py`` also pins for both classes,
* the running-count invariant: every count the fast engine answers
  from its tallies equals the reference recount over the running list,
  with pinned mixes that preempt and that fail a job holding slots,
* the parked-job heap: a pinned mix whose preempted job re-parks and
  leaves a stale heap entry that must not finish it early,
* lean runs never reach the event publisher, on either class,
* a fast-only scale smoke with a wall-clock budget, so a perf
  regression that would break the headline claim fails loudly here.
"""

from __future__ import annotations

import random
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
    MultiJobCluster,
    PoolConfig,
    QueueConfig,
    SchedulerState,
)
from repro.core.simcache import mix_outcome_payload
from repro.perf.clusterpath import FastMultiJobCluster, _LazyState


def procfs_state(cluster):
    """Every per-node counter the run touched, samples included."""
    return [
        (
            {k: v for k, v in vars(node.procfs).items() if k != "_sample_rows"},
            list(node.procfs.samples),
        )
        for node in cluster.slaves
    ]


def random_work(rng: random.Random, names: list[str]) -> JobWork:
    maps = []
    for _ in range(rng.randint(1, 5)):
        preferred = ()
        if rng.random() < 0.5:
            preferred = tuple(rng.sample(names, rng.randint(0, min(2, len(names)))))
        maps.append(
            MapWork(
                rng.randint(256, 1 << 16),
                rng.uniform(0.01, 0.4),
                rng.randint(256, 1 << 14),
                preferred_nodes=preferred,
            )
        )
    reduces = tuple(
        ReduceWork(
            rng.randint(256, 1 << 14),
            rng.uniform(0.01, 0.3),
            rng.randint(256, 1 << 14),
        )
        for _ in range(rng.randint(0, 2))
    )
    return JobWork(
        name=f"j{rng.randint(0, 10**9)}", maps=tuple(maps), reduces=reduces
    )


def build_mix(cls, seed, scheduler_kind, racks, plan_kind, observability):
    """One deterministic mix; *cls* picks the engine, all else is pinned."""
    rng = random.Random(seed)
    cluster = make_cluster(
        num_slaves=rng.randint(max(2, racks), 6),
        map_slots=rng.randint(2, 6),
        reduce_slots=2,
        block_size=64 * 1024,
        racks=racks,
    )
    names = [node.name for node in cluster.slaves]
    if scheduler_kind == "fifo":
        scheduler = FifoScheduler()
    elif scheduler_kind == "fair":
        scheduler = FairScheduler(
            pools=[PoolConfig("a", weight=2.0, min_share=2), PoolConfig("b")],
            preemption=True,
            min_share_timeout_s=3.0,
            fair_share_timeout_s=6.0,
        )
    else:
        scheduler = CapacityScheduler(
            queues=[
                QueueConfig("a", capacity=0.6),
                QueueConfig("b", capacity=0.4),
            ]
        )
    plan = None
    if plan_kind == "faults":
        plan = FaultPlan(
            node_crashes=((rng.choice(names), rng.uniform(0.5, 4.0)),),
            partitions=(
                (rng.choice(names), rng.uniform(0.2, 2.0), rng.uniform(0.3, 1.5)),
            ),
            speculative_execution=True,
        )
    elif plan_kind == "slow":
        plan = FaultPlan(
            limping_nodes=((rng.choice(names), 4.0),),
            speculative_execution=True,
        )
    elif plan_kind == "doom":
        # every node dies at once: jobs still holding maps fail, their
        # dependents are cancelled
        at = rng.uniform(0.3, 1.5)
        plan = FaultPlan(node_crashes=tuple((name, at) for name in names))
    multi = cls(cluster, scheduler=scheduler, plan=plan, observability=observability)
    submit_rng = random.Random(seed + 1)
    for i in range(submit_rng.randint(3, 10)):
        pool = submit_rng.choice(["a", "b"])
        if submit_rng.random() < 0.3:
            multi.submit_chain(
                [random_work(submit_rng, names) for _ in range(submit_rng.randint(2, 3))],
                arrival_s=submit_rng.uniform(0, 3),
                user=f"u{i % 2}",
                pool=pool,
                id_prefix=f"c{i}",
            )
        else:
            multi.submit(
                random_work(submit_rng, names),
                arrival_s=submit_rng.uniform(0, 3),
                user=f"u{i % 3}",
                pool=pool,
            )
    return cluster, multi


def assert_engines_agree(seed, scheduler_kind, racks, plan_kind, observability):
    ref_cluster, ref = build_mix(
        MultiJobCluster, seed, scheduler_kind, racks, plan_kind, observability
    )
    fast_cluster, fast = build_mix(
        FastMultiJobCluster, seed, scheduler_kind, racks, plan_kind, observability
    )
    ref_out = ref.run(raise_on_failure=False)
    fast_out = fast.run(raise_on_failure=False)
    assert mix_outcome_payload(ref_out) == mix_outcome_payload(fast_out)
    assert procfs_state(ref_cluster) == procfs_state(fast_cluster)
    assert ref_cluster.clock == fast_cluster.clock
    return fast_out


class TestFastEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scheduler_kind=st.sampled_from(["fifo", "fair", "capacity"]),
        racks=st.sampled_from([1, 3]),
        plan_kind=st.sampled_from([None, "faults", "slow", "doom"]),
        observability=st.sampled_from(["full", "lean"]),
    )
    def test_property_bit_identical(
        self, seed, scheduler_kind, racks, plan_kind, observability
    ):
        assert_engines_agree(seed, scheduler_kind, racks, plan_kind, observability)


def recount_checked(name: str, reads: list):
    """*name* of ``_LazyState``, asserting each answer equals the
    reference ``SchedulerState`` recount over ``running_tasks``."""
    fast, recount = getattr(_LazyState, name), getattr(SchedulerState, name)

    def checked(state, *args, **kwargs):
        answer = fast(state, *args, **kwargs)
        assert answer == recount(state, *args, **kwargs), (name, args, state.now)
        reads.append(name)
        return answer

    return checked


def assert_counts_recount(seed, scheduler_kind, racks, plan_kind):
    """Run one mix on both engines with every fast count read checked
    against a recount; a scheduler that reads running state must read it.
    Returns the fast outcome."""
    reads: list[str] = []
    patches = [
        patch.object(_LazyState, name, recount_checked(name, reads))
        for name in ("running_in_pool", "running_for_user", "sharing_pools")
    ]
    for patcher in patches:
        patcher.start()
    try:
        outcome = assert_engines_agree(seed, scheduler_kind, racks, plan_kind, "full")
    finally:
        for patcher in patches:
            patcher.stop()
    assert bool(reads) == (scheduler_kind != "fifo")
    return outcome


#: Mixes that go wrong when one count update is deleted (checked by
#: deleting each in turn): the first two preempt, so they need the
#: preemption decrement; the doom ones fail a job whose maps still hold
#: slots, so they need the failure decrement.  Every case needs the
#: push increment and the expiry decrement.
PREEMPTING_CASES = [(70, "fair", 1, "slow"), (165, "fair", 3, "faults")]
FAILING_CASES = [(0, "fair", 1, "doom"), (0, "capacity", 3, "doom")]


class TestRunningCounts:
    """The fast engine answers running counts from tallies it keeps in
    step with the running set; each answer must equal a recount."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scheduler_kind=st.sampled_from(["fifo", "fair", "capacity"]),
        racks=st.sampled_from([1, 3]),
        plan_kind=st.sampled_from([None, "faults", "slow", "doom"]),
    )
    def test_property_every_count_equals_a_recount(
        self, seed, scheduler_kind, racks, plan_kind
    ):
        assert_counts_recount(seed, scheduler_kind, racks, plan_kind)

    @pytest.mark.parametrize("case", PREEMPTING_CASES, ids=str)
    def test_preempting_mix(self, case):
        assert assert_counts_recount(*case).preemptions > 0

    @pytest.mark.parametrize("case", FAILING_CASES, ids=str)
    def test_mix_that_fails_a_job(self, case):
        assert assert_counts_recount(*case).failed_jobs

    @pytest.mark.parametrize("plan_kind", [None, "faults", "doom"])
    def test_fifo_never_builds_counts(self, plan_kind):
        _cluster, multi = build_mix(FastMultiJobCluster, 3, "fifo", 1, plan_kind, "full")
        multi.run(raise_on_failure=False)
        assert multi._counts is None


#: Fair with preemption on a limping node: job-0001 parks, has a map
#: preempted, and re-parks with a later ``last_map_end_s``; its first heap
#: entry then surfaces while it is parked again and must be skipped.
STALE_PARK_CASE = (57, "fair", 1, "slow", "full")


class TestParkedHeap:
    """Parked jobs finish from a heap keyed ``(last_map_end_s, seq)``;
    a preemption leaves a stale entry behind that must never finish
    the job early."""

    def test_stale_entry_after_repark_is_skipped(self):
        surfaced = []
        caught_up = FastMultiJobCluster._caught_up

        def spy(engine, now):
            surfaced.extend(
                job.job_id
                for end, _seq, job in engine._parked
                if end <= now
                and job in engine._awaiting
                and job.last_map_end_s > end
            )
            return caught_up(engine, now)

        with patch.object(FastMultiJobCluster, "_caught_up", spy):
            outcome = assert_engines_agree(*STALE_PARK_CASE)
        assert outcome.preemptions > 0
        assert surfaced == ["job-0001"]


class TestLeanPublishesNothing:
    """Under ``observability="lean"`` no call site reaches ``_publish``:
    no event payload is built for a bus that does not exist."""

    @pytest.mark.parametrize("cls", [MultiJobCluster, FastMultiJobCluster])
    @pytest.mark.parametrize("scheduler_kind", ["fifo", "fair"])
    def test_lean_mix_never_publishes(self, cls, scheduler_kind):
        def refuse(*args, **kwargs):
            raise AssertionError("lean run published an event")

        _cluster, multi = build_mix(cls, 11, scheduler_kind, 1, None, "lean")
        with patch.object(MultiJobCluster, "_publish", refuse):
            outcome = multi.run()
        assert all(report.status == "completed" for report in outcome.reports)
        assert outcome.events == ()


#: The CI tier's pinned equivalence matrix: one case per dispatch regime.
PINNED_CASES = [
    (7, "fifo", 1, None, "lean"),
    (11, "fair", 1, None, "full"),
    (13, "fair", 3, "slow", "full"),
    (17, "capacity", 3, None, "full"),
    (19, "fifo", 1, "faults", "full"),
    (23, "capacity", 1, "faults", "lean"),
]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize(
        "seed,scheduler_kind,racks,plan_kind,observability", PINNED_CASES
    )
    def test_pinned_case(self, seed, scheduler_kind, racks, plan_kind, observability):
        assert_engines_agree(seed, scheduler_kind, racks, plan_kind, observability)


class TestScaleSmoke:
    def test_contended_trace_is_fast(self):
        """2k uniform jobs on 96 nodes dispatch in a couple of seconds.

        The budget is ~20x slack over the measured time so only an
        algorithmic regression (quadratic candidate scans coming back)
        trips it, not machine noise.
        """
        cluster = make_cluster(
            num_slaves=96, map_slots=8, reduce_slots=4, block_size=256 * 1024
        )
        multi = FastMultiJobCluster(
            cluster, scheduler=FifoScheduler(), observability="lean"
        )
        rng = random.Random(5)
        for i in range(2000):
            maps = tuple(
                MapWork(1 << 18, rng.uniform(0.5, 3.0), 1 << 16) for _ in range(2)
            )
            reduces = (ReduceWork(1 << 16, rng.uniform(0.3, 1.0), 1 << 16),)
            multi.submit(
                JobWork(name=f"j{i}", maps=maps, reduces=reduces),
                arrival_s=i * 0.9,
                user=f"u{i % 5}",
            )
        start = time.perf_counter()
        outcome = multi.run()
        elapsed = time.perf_counter() - start
        assert len(outcome.reports) == 2000
        assert not outcome.failed_jobs
        assert elapsed < 10.0, f"fast path took {elapsed:.1f}s for 2000 jobs"
