"""Cluster engine micro-benchmarks: reference vs fast vs warm-cache.

A scaled-down ``bench-cluster`` run (the CLI twin is ``python -m repro
bench-cluster``, which times the full pinned matrix and writes the
repo-root ``BENCH_cluster.json``).  The equivalence rows shrink so the
perf tier stays quick, but the headline row runs at full pinned scale —
a day-long 100k-job trace on 1000 simulated nodes — and asserts the
wall-clock budget the fast path exists to meet:

* every engine comparison in the report is bit-identical,
* the fast engine beats the reference engine cold,
* the 100k-job scale row dispatches in tens of seconds cold and
  replays from the mix cache in under a second (asserted with slack
  for CI machine noise).
"""

from __future__ import annotations

import json

import pytest

from conftest import run_once
from repro.perf.clusterbench import (
    DEFAULT_SCALE_JOBS,
    DEFAULT_SCALE_NODES,
    MixSpec,
    _mix_capacity,
    _mix_fair,
    _mix_faults,
    _mix_fifo,
    _mix_scale,
    run_cluster_bench,
    write_cluster_report,
)

#: The pinned regimes at perf-tier size; the scale row stays full-size.
SMOKE_MATRIX = [
    MixSpec("fifo-contended", "fifo", 400, 32, _mix_fifo),
    MixSpec("fair-preemption", "fair", 60, 8, _mix_fair),
    MixSpec("capacity-chains", "capacity", 48, 8, _mix_capacity),
    MixSpec("faults-speculation", "faults", 48, 8, _mix_faults),
    MixSpec(
        "scale-day-trace",
        "scale",
        DEFAULT_SCALE_JOBS,
        DEFAULT_SCALE_NODES,
        _mix_scale,
        compare_reference=False,
    ),
]


@pytest.fixture(scope="module")
def cluster_report(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("bench-cluster-cache")
    return run_cluster_bench(matrix=SMOKE_MATRIX, cache_root=str(cache_root))


def test_bench_cluster_report(benchmark, cluster_report, tmp_path):
    """Write and sanity-check a BENCH_cluster.json from the sampled run."""
    path = run_once(
        benchmark,
        lambda: write_cluster_report(
            cluster_report, str(tmp_path / "BENCH_cluster.json")
        ),
    )
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["schema"] == 1
    assert payload["totals"]["mixes"] == len(SMOKE_MATRIX)
    for row in payload["mixes"]:
        assert row["bit_identical"], f"{row['name']}: engines disagree"
        assert row["jobs_per_sec_fast"] > 0
    totals = payload["totals"]
    print(
        f"\nengine speedup (cold) {totals['engine_speedup_cold']:.2f}x, "
        f"fast path (warm cache) {totals['fastpath_speedup_warm']:.1f}x, "
        f"scale row {totals['scale_jobs']} jobs / {totals['scale_nodes']} "
        f"nodes: {totals['scale_fast_seconds']:.1f}s cold, "
        f"{totals['scale_warm_seconds']:.2f}s warm"
    )


def test_fast_engine_not_slower(cluster_report):
    totals = cluster_report.totals()
    assert totals["bit_identical"]
    assert totals["engine_speedup_cold"] > 1.0, totals


def test_scale_row_wall_clock(cluster_report):
    """The headline claim: 1000 nodes / 100k jobs in seconds.

    Budgets carry ~4x slack over measured times (cold ~18s, warm ~0.6s
    on the pinned matrix: key + columnar entry load, no dispatch) so
    only a real perf regression trips them.
    """
    totals = cluster_report.totals()
    assert totals["scale_jobs"] == DEFAULT_SCALE_JOBS
    assert totals["scale_nodes"] == DEFAULT_SCALE_NODES
    assert totals["scale_fast_seconds"] < 75.0, totals
    assert totals["scale_warm_seconds"] < 2.5, totals
    assert totals["scale_jobs_per_sec"] >= 1000, totals


def test_warm_cache_pays_off(cluster_report):
    totals = cluster_report.totals()
    assert totals["fastpath_speedup_warm"] >= 5.0, totals
    # Each mix probes the cache twice: the populating miss, then a hit.
    assert totals["cache_hit_rate"] == pytest.approx(0.5)
