"""Execution-layer wall-clock budget: a pinned 30-job ``run_mix``.

``test_bench_cluster.py`` budgets the dispatch engine on prebuilt
``JobWork``; this is its twin for the layer underneath, where a
``run_mix`` actually spends its time: every trace job is really executed
once as a solo shadow (datagen → map → combine → partition → reduce),
so the cost is ``mapreduce.LocalEngine`` plus ``workloads.datagen`` (see
"The execution layer" in docs/performance.md).  The cold budget
involves no cache.

The budget is 2× the time measured after the Sort keys were drawn in
bulk, preferential attachment moved to a Fenwick tree and common record
types were sized inline: 0.47 s best of three on the 2-core dev box.
That box alternates between two host speeds, and six best-of-three runs
read 0.47–0.80 s; the code before read 0.82–0.87 s in the same session,
and 1.0 s before the engine's byte accounting became single-pass.  The
test takes the best of three runs so a noisy neighbour does not trip it
— sizing every record two or three times again does.

The warm budget is the same trace replayed from ``MixCache``: the entry
is keyed on the trace, so a hit runs no workload, submits nothing and
dispatches nothing (about 1 ms on the same box, best of three).  0.1 s
is far under any replay that re-executes even one shadow, and the cold
op that fills the cache is held to the cold budget.
"""

from __future__ import annotations

import time

from repro.cluster import FairScheduler
from repro.cluster.tenancy import default_pools, generate_trace, run_mix
from repro.core.simcache import MixCache

MIX_JOBS = 30
MIX_SEED = 0
MEASURED_S = 0.47
BUDGET_S = 2 * MEASURED_S
WARM_BUDGET_S = 0.1


def _run(mix_cache=None):
    trace = generate_trace(seed=MIX_SEED, num_jobs=MIX_JOBS)
    scheduler = FairScheduler(pools=default_pools(trace), preemption=True)
    start = time.perf_counter()
    result = run_mix(trace, scheduler=scheduler, engine="fast", mix_cache=mix_cache)
    return time.perf_counter() - start, result


def test_pinned_mix_wall_clock():
    runs = [_run() for _ in range(3)]
    best = min(seconds for seconds, _ in runs)
    print(f"\n{MIX_JOBS}-job run_mix: best of 3 {best:.2f}s (budget {BUDGET_S:.2f}s)")
    for _, result in runs:
        outcome = result.outcome
        assert len(result.reports) == MIX_JOBS
        assert not outcome.failed_jobs and not outcome.cancelled_jobs
        assert outcome.end_s == runs[0][1].outcome.end_s
    assert best < BUDGET_S, f"{best:.2f}s over the {BUDGET_S:.2f}s execution-layer budget"


def test_pinned_mix_warm_replay(tmp_path):
    cold_s, cold = _run(MixCache(tmp_path, enabled=True))
    caches = [MixCache(tmp_path, enabled=True) for _ in range(3)]
    runs = [_run(cache) for cache in caches]
    best = min(seconds for seconds, _ in runs)
    print(
        f"\n{MIX_JOBS}-job run_mix: cold {cold_s:.2f}s (budget {BUDGET_S:.2f}s), "
        f"warm best of 3 {best * 1e3:.1f}ms (budget {WARM_BUDGET_S * 1e3:.0f}ms)"
    )
    assert cold_s < BUDGET_S, f"{cold_s:.2f}s over the {BUDGET_S:.2f}s cold budget"
    for cache, (_, warm) in zip(caches, runs):
        assert (cache.hits, cache.misses) == (1, 0)
        assert warm.to_dict() == cold.to_dict()
    assert best < WARM_BUDGET_S, f"{best:.3f}s over the {WARM_BUDGET_S}s warm budget"
