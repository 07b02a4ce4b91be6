"""``characterize`` wall-clock budget: the CI equivalence matrix's workloads.

This is the call a user waits for, ``characterize(entry, engine="fast")``
— trace spec, batched trace generation, the fast engine, metrics — on the
six workloads of ``tests/uarch/test_fastpath.py``'s equivalence matrix,
one per behavioural family, with no cache.

The budget is 2× the time measured after the batched generator began to
emit one run per episode and the fast engine stopped decoding addresses
per batch: 1.05 s, best of three on a 2-core x86-64 box (1.30 s
before).  A noisy neighbour does not trip it; a hot path that has
doubled in cost does.

Two ratios ride along on one workload: the fast engine beats the
reference interpreter cold, and a ``SimCache`` hit is at least an order
of magnitude faster than the reference — the two reasons the fast path
and the cache exist.  Ratios, not seconds, so the machine cancels out.
"""

from __future__ import annotations

import time

from repro.core import DCBench, characterize
from repro.core.simcache import SimCache

#: One workload per behavioural family: streaming analytics, iterative ML,
#: latency-bound service, desktop, and two HPCC corners.
WORKLOADS = [
    "WordCount",
    "K-means",
    "Media Streaming",
    "SPECINT",
    "HPCC-STREAM",
    "HPCC-RandomAccess",
]
INSTRUCTIONS = 60_000
MEASURED_S = 1.05
BUDGET_S = 2 * MEASURED_S


def _run() -> tuple[float, list]:
    suite = DCBench.default()
    start = time.perf_counter()
    chars = [
        characterize(suite.entry(name), instructions=INSTRUCTIONS, engine="fast")
        for name in WORKLOADS
    ]
    return time.perf_counter() - start, chars


def test_characterize_wall_clock():
    runs = [_run() for _ in range(3)]
    best = min(seconds for seconds, _ in runs)
    print(
        f"\n{len(WORKLOADS)} x characterize({INSTRUCTIONS} μops): best of 3 "
        f"{best:.2f}s, measured {MEASURED_S:.2f}s (budget {BUDGET_S:.2f}s)"
    )
    for _, chars in runs:
        assert [c.name for c in chars] == WORKLOADS
        assert [c.result for c in chars] == [c.result for c in runs[0][1]]
    assert best < BUDGET_S, f"{best:.2f}s over the {BUDGET_S:.2f}s characterize budget"


#: The engine race's one workload (streaming analytics, the paper's
#: most common shape).
RACE_WORKLOAD = "WordCount"


def test_fast_beats_reference_and_a_cache_hit_beats_both(tmp_path):
    entry = DCBench.default().entry(RACE_WORKLOAD)

    def timed(**kwargs):
        start = time.perf_counter()
        char = characterize(entry, instructions=INSTRUCTIONS, **kwargs)
        return time.perf_counter() - start, char.result

    def best_of_two(engine):
        return min((timed(engine=engine) for _ in range(2)), key=lambda run: run[0])

    reference_s, reference = best_of_two("reference")
    fast_s, fast = best_of_two("fast")
    cache = SimCache(tmp_path, enabled=True)
    timed(engine="fast", cache=cache)
    hit_s, hit = timed(engine="fast", cache=cache)
    print(
        f"\n{RACE_WORKLOAD} ({INSTRUCTIONS} μops): reference {reference_s:.3f}s, "
        f"fast {fast_s:.3f}s ({reference_s / fast_s:.2f}x), "
        f"cache hit {hit_s * 1e3:.1f}ms ({reference_s / hit_s:.0f}x)"
    )
    assert (cache.hits, cache.misses) == (1, 1)
    assert fast == reference == hit
    assert fast_s < reference_s
    assert hit_s * 10 <= reference_s
