"""Cluster dispatch wall-clock budgets: the 100k-job day trace and the race.

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
    FifoScheduler,
    JobWork,
    MapWork,
    MultiJobCluster,
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
