"""``characterize`` wall-clock budget: the CI equivalence matrix's workloads.

``test_bench_sim.py`` times the engines behind ``simulate``; this is the
call a user waits for, ``characterize(entry, engine="fast")`` — trace
spec, batched trace generation, the fast engine, metrics — on the six
workloads of ``tests/uarch/test_fastpath.py``'s equivalence matrix, one
per behavioural family, with no cache.

The budget is 2× the time measured after the batched generator began to
emit one run per episode and the fast engine stopped decoding addresses
per batch: 1.05 s, best of three on a 2-core x86-64 box (1.30 s
before).  A noisy neighbour does not trip it; a hot path that has
doubled in cost does.
"""

from __future__ import annotations

import time

from repro.core import DCBench, characterize

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
