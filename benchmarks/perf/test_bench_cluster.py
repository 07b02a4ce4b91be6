"""Cluster dispatch wall-clock budgets: the 100k-job day trace, two policy
mixes and the race.

The headline row is a day-long trace at data-centre node count — 100 000
FIFO jobs of 2 maps + 1 reduce, evenly spaced over 24 simulated hours on
1 000 nodes, ``observability="lean"`` — played through ``MixCache`` on
the indexed fast path: a miss (key + dispatch + store), then a fresh
build that must hit.  Budgets carry at least 4× slack over the times
the harness that used to run this row measured on a 2-core x86-64 box
when it was retired (cold ≈11.5 s, warm ≈0.5 s: key + columnar entry
load, no dispatch), so only a real perf regression trips them:

* cold < 75 s and at least 1 000 jobs/s,
* warm < 2.5 s,
* the warm payload equals the cold one, with exactly one miss and one hit.

Two policy mixes (the shapes of ``bench/``'s ``dispatch-policy``) hold
a cold-dispatch budget of 2x their best-of-3 ``run()`` time, under full
observability: capacity queues over 1 000 three-stage chains on 64
nodes / 4 racks, and the fair scheduler with preemption over 1 500 jobs
on 64 nodes.

A smaller contended FIFO mix races the two dispatch classes cold: the
fast path must not lose to the reference loop, and both must produce
the same payload.  ``bench/`` (``dispatch-scale`` / ``dispatch-policy``)
is where these paths are timed with variance; this file is the budget.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.cluster import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
    JobWork,
    MapWork,
    MultiJobCluster,
    PoolConfig,
    QueueConfig,
    ReduceWork,
    make_cluster,
)
from repro.core.simcache import MixCache, mix_outcome_payload
from repro.perf.clusterpath import FastMultiJobCluster

SCALE_JOBS = 100_000
SCALE_NODES = 1000
DAY_S = 86_400.0


def fifo_mix(cls, jobs: int, nodes: int, spacing_s: float, seed: int):
    """*jobs* uniform FIFO jobs of 2 maps + 1 reduce, *spacing_s* apart."""
    cluster = make_cluster(
        num_slaves=nodes, map_slots=8, reduce_slots=4, block_size=256 * 1024
    )
    multi = cls(cluster, scheduler=FifoScheduler(), observability="lean")
    rng = random.Random(seed)
    for i in range(jobs):
        maps = tuple(
            MapWork(1 << 18, rng.uniform(0.5, 3.0), 1 << 16) for _ in range(2)
        )
        reduces = (ReduceWork(1 << 16, rng.uniform(0.3, 1.0), 1 << 16),)
        multi.submit(
            JobWork(name=f"j{i}", maps=maps, reduces=reduces),
            arrival_s=i * spacing_s,
            user=f"u{i % 5}",
        )
    return multi


def replay_day_trace(root):
    """One fresh build of the day trace through ``MixCache(root).run``:
    ``(cache, host seconds, outcome)``."""
    multi = fifo_mix(
        FastMultiJobCluster, SCALE_JOBS, SCALE_NODES, DAY_S / SCALE_JOBS, seed=11
    )
    cache = MixCache(root, enabled=True)
    # As bench/ does: time the call, not the cyclic collector walking
    # the previous replay's outcome, which the test still holds.
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        outcome = cache.run(multi)
        seconds = time.perf_counter() - start
    finally:
        gc.unfreeze()
    return cache, seconds, outcome


@pytest.fixture(scope="module")
def scale_row(tmp_path_factory):
    root = tmp_path_factory.mktemp("mix-cache")
    cold, warm = replay_day_trace(root), replay_day_trace(root)
    print(
        f"\n{SCALE_JOBS} jobs / {SCALE_NODES} nodes: cold {cold[1]:.1f}s "
        f"({SCALE_JOBS / cold[1]:.0f} jobs/s), warm {warm[1]:.2f}s"
    )
    return cold, warm


def test_scale_row_wall_clock(scale_row):
    (_, cold_s, cold), (_, warm_s, _) = scale_row
    assert len(cold.reports) == SCALE_JOBS
    assert not cold.failed_jobs and not cold.cancelled_jobs
    assert cold_s < 75.0, f"cold {cold_s:.1f}s"
    assert SCALE_JOBS / cold_s >= 1000, f"{SCALE_JOBS / cold_s:.0f} jobs/s"
    assert warm_s < 2.5, f"warm {warm_s:.2f}s"


def test_scale_row_warm_hit_is_the_cold_run(scale_row):
    (cold_cache, _, cold), (warm_cache, _, warm) = scale_row
    assert (cold_cache.hits, cold_cache.misses) == (0, 1)
    assert (warm_cache.hits, warm_cache.misses) == (1, 0)
    assert mix_outcome_payload(warm) == mix_outcome_payload(cold)


def capacity_chains(cls, seed: int = 0):
    """1 000 three-stage chains on 64 nodes / 4 racks under two capacity
    queues, every map carrying two placement hints."""
    cluster = make_cluster(
        num_slaves=64, map_slots=4, reduce_slots=2, block_size=128 * 1024, racks=4
    )
    names = [node.name for node in cluster.slaves]
    scheduler = CapacityScheduler(
        queues=[
            QueueConfig("prod", capacity=0.7, user_limit=0.5),
            QueueConfig("dev", capacity=0.3),
        ]
    )
    multi = cls(cluster, scheduler=scheduler)
    rng = random.Random(seed)
    for i in range(1000):
        works = []
        for stage in range(3):
            maps = tuple(
                MapWork(
                    1 << 17,
                    rng.uniform(0.5, 3.0),
                    1 << 15,
                    preferred_nodes=tuple(rng.sample(names, 2)),
                )
                for _ in range(rng.randint(1, 4))
            )
            reduces = (ReduceWork(1 << 15, rng.uniform(0.2, 0.6), 1 << 15),)
            works.append(JobWork(name=f"j{i}s{stage}", maps=maps, reduces=reduces))
        multi.submit_chain(
            works,
            arrival_s=rng.uniform(0.0, 300.0),
            user=f"u{i % 3}",
            pool="prod" if i % 4 else "dev",
            id_prefix=f"c{i:04d}",
        )
    return multi


def fair_preemption(cls, seed: int = 0):
    """1 500 jobs on 64 nodes under the fair scheduler with preemption:
    ``adhoc`` floods early and ``etl`` arrives into a saturated cluster,
    so min-share timeouts fire."""
    cluster = make_cluster(
        num_slaves=64, map_slots=4, reduce_slots=2, block_size=128 * 1024
    )
    scheduler = FairScheduler(
        pools=[PoolConfig("etl", weight=2.0, min_share=128), PoolConfig("adhoc")],
        preemption=True,
        min_share_timeout_s=5.0,
        fair_share_timeout_s=15.0,
    )
    multi = cls(cluster, scheduler=scheduler)
    rng = random.Random(seed)
    for i in range(1500):
        maps = tuple(
            MapWork(1 << 17, rng.uniform(1.0, 6.0), 1 << 15)
            for _ in range(rng.randint(1, 6))
        )
        reduces = (ReduceWork(1 << 15, rng.uniform(0.2, 0.8), 1 << 15),)
        multi.submit(
            JobWork(name=f"j{i}", maps=maps, reduces=reduces),
            arrival_s=rng.uniform(0.0, 525.0),
            user=f"u{i % 4}",
            pool="adhoc" if i % 3 else "etl",
        )
    return multi


@pytest.mark.parametrize(
    "build,budget_s",
    [
        # best of 3 on a 2-core x86-64 box: 1.02 s, and 2.00 s before
        # incremental dispatch state (O(1) running counts, the sort-free
        # capacity pick, O(1) preemption shrink, row /proc samples)
        (capacity_chains, 2.04),
        # best of 3 on the same box: 0.49 s, and 1.00 s before it
        (fair_preemption, 0.98),
    ],
    ids=["capacity", "fair"],
)
def test_policy_mix_cold_dispatch(build, budget_s):
    """Fast-path ``run()`` of a full-observability policy mix, best of
    three fresh builds, within 2x its measured time."""
    best_s = float("inf")
    for _ in range(3):
        multi = build(FastMultiJobCluster)
        gc.collect()
        start = time.perf_counter()
        outcome = multi.run()
        best_s = min(best_s, time.perf_counter() - start)
    print(f"\n{build.__name__}: best of 3 {best_s:.2f}s (budget {budget_s:.2f}s)")
    assert not outcome.failed_jobs and not outcome.cancelled_jobs
    if build is fair_preemption:
        assert outcome.preemptions > 0
    assert best_s < budget_s, f"{build.__name__} {best_s:.2f}s"


def test_fast_cold_not_slower_than_reference():
    """400 jobs arriving faster than 32 nodes drain them."""
    runs = {}
    for cls in (MultiJobCluster, FastMultiJobCluster):
        multi = fifo_mix(cls, 400, 32, spacing_s=0.9, seed=101)
        start = time.perf_counter()
        outcome = multi.run()
        runs[cls] = time.perf_counter() - start, mix_outcome_payload(outcome)
    (reference_s, reference), (fast_s, fast) = runs.values()
    print(f"\ncontended FIFO: reference {reference_s:.2f}s, fast {fast_s:.2f}s")
    assert fast == reference
    assert fast_s <= reference_s
