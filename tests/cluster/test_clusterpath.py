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
* a fast-only scale smoke with a wall-clock budget, so a perf
  regression that would break the headline claim fails loudly here.
"""

from __future__ import annotations

import random
import time

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
)
from repro.core.simcache import mix_outcome_payload
from repro.perf.clusterpath import FastMultiJobCluster


def procfs_state(cluster):
    """Every per-node counter the run touched, samples included."""
    return [
        (
            {k: v for k, v in vars(node.procfs).items() if k != "samples"},
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


class TestFastEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scheduler_kind=st.sampled_from(["fifo", "fair", "capacity"]),
        racks=st.sampled_from([1, 3]),
        plan_kind=st.sampled_from([None, "faults", "slow"]),
        observability=st.sampled_from(["full", "lean"]),
    )
    def test_property_bit_identical(
        self, seed, scheduler_kind, racks, plan_kind, observability
    ):
        assert_engines_agree(seed, scheduler_kind, racks, plan_kind, observability)


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
