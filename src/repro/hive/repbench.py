"""Redbench-style repetition benchmark for the materialization cache.

Redbench's headline: production warehouse users differ enormously in how
repetitive their query streams are, and the payoff of query/result
caching grows with that repetitiveness.  This harness reproduces the
shape of that result on the mini-Hive engine:

* build one warehouse (rankings + uservisits) per repetitiveness
  *bucket*;
* synthesize a query stream per bucket with a target repeat rate — each
  query is either a verbatim resubmission of an earlier statement
  (probability = the bucket's rate) or a freshly parameterized template
  draw from Hive-bench-shaped statements;
* run every stream through a :class:`~repro.hive.MaterializationCache`
  and report per-bucket hit rates and simulated latency wins.

The contract (pinned in ``tests/hive/test_repbench.py`` and enforced
by the ``rep-bench`` CLI): hit rate is monotonically non-decreasing in
the bucket's repetition rate, and the most-repetitive bucket shows a
strictly positive latency win.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.cluster import make_cluster
from repro.hive.engine import HiveSession, MaterializationCache
from repro.mapreduce.engine import LocalEngine
from repro.workloads import datagen

__all__ = [
    "REPBENCH_TEMPLATES",
    "BucketReport",
    "RepetitionBenchReport",
    "run_repetition_benchmark",
]

#: Hive-bench-shaped statement templates; ``{p}`` is the varied literal.
#: Parameter ranges are wide enough that two independent fresh draws of
#: the same template almost never collide into an accidental repeat.
REPBENCH_TEMPLATES = (
    "SELECT pageURL, pageRank FROM rankings WHERE pageRank > {p}",
    "SELECT sourceIP, SUM(adRevenue) AS totalRevenue FROM uservisits "
    "WHERE sourceIP LIKE '%.{p}' GROUP BY sourceIP",
    "SELECT searchWord, COUNT(*) AS hits FROM uservisits "
    "WHERE searchWord LIKE '%{p}%' GROUP BY searchWord",
    "SELECT uv.sourceIP, SUM(uv.adRevenue) AS totalRevenue FROM rankings r "
    "JOIN uservisits uv ON r.pageURL = uv.destURL "
    "WHERE r.pageRank > {p} GROUP BY uv.sourceIP ORDER BY totalRevenue DESC LIMIT 5",
)

#: default target repeat rates, least to most repetitive (Redbench's
#: cluster axis compressed to five points)
DEFAULT_BUCKETS = (0.0, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class BucketReport:
    """Cache payoff measured for one repetitiveness bucket."""

    bucket: str
    target_rate: float
    queries: int
    hits: int
    misses: int
    saved_s: float
    executed_s: float

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def mean_effective_s(self) -> float:
        """Mean simulated latency per query with the cache in play."""
        return self.executed_s / self.queries if self.queries else 0.0

    @property
    def mean_cold_s(self) -> float:
        """What the mean latency would have been with every query cold."""
        return (
            (self.executed_s + self.saved_s) / self.queries if self.queries else 0.0
        )

    def to_dict(self) -> dict:
        return {
            "bucket": self.bucket,
            "target_rate": self.target_rate,
            "queries": self.queries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "saved_s": self.saved_s,
            "executed_s": self.executed_s,
            "mean_effective_s": self.mean_effective_s,
            "mean_cold_s": self.mean_cold_s,
        }


@dataclass(frozen=True)
class RepetitionBenchReport:
    """All buckets, least to most repetitive."""

    buckets: tuple[BucketReport, ...]
    cache_enabled: bool
    seed: int

    def hit_rates_monotone(self) -> bool:
        """Redbench's shape: payoff never shrinks as repetitiveness grows."""
        rates = [b.hit_rate for b in self.buckets]
        return all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))

    @property
    def top_bucket(self) -> BucketReport:
        return self.buckets[-1]

    def contract_holds(self) -> bool:
        """Monotone hit rates + a real latency win where repeats dominate."""
        if not self.cache_enabled:
            return True  # nothing to claim with the cache off
        return self.hit_rates_monotone() and self.top_bucket.saved_s > 0

    def to_dict(self) -> dict:
        return {
            "cache_enabled": self.cache_enabled,
            "seed": self.seed,
            "buckets": [b.to_dict() for b in self.buckets],
        }

    def summary_lines(self) -> list[str]:
        lines = [
            f"{'bucket':>8} {'queries':>8} {'hits':>6} {'hit_rate':>9} "
            f"{'saved_s':>9} {'mean_cold':>10} {'mean_eff':>9}"
        ]
        for b in self.buckets:
            lines.append(
                f"{b.bucket:>8} {b.queries:>8} {b.hits:>6} {b.hit_rate:>9.2f} "
                f"{b.saved_s:>9.3f} {b.mean_cold_s:>10.4f} {b.mean_effective_s:>9.4f}"
            )
        return lines


def _bucket_label(rate: float) -> str:
    return f"{int(round(rate * 100))}%"


def _query_stream(
    rate: float, queries: int, rng: random.Random
) -> list[str]:
    """One bucket's statement stream with the target repeat rate."""
    history: list[str] = []
    stream = []
    for _ in range(queries):
        if history and rng.random() < rate:
            sql = rng.choice(history)
        else:
            template = rng.choice(REPBENCH_TEMPLATES)
            sql = template.format(p=rng.randrange(10, 5000))
        history.append(sql)
        stream.append(sql)
    return stream


def _fresh_warehouse(num_slaves: int, scale: float) -> HiveSession:
    """A small rankings/uservisits warehouse on its own cluster.

    Each bucket gets its own tables (fresh uids), so cache entries can
    never leak between buckets even though the cache object is shared
    for per-bucket accounting.
    """
    cluster = make_cluster(num_slaves=num_slaves, map_slots=4, reduce_slots=2,
                           block_size=64 * 1024)
    session = HiveSession(engine=LocalEngine(), cluster=cluster)
    session.create_table(
        "rankings",
        [("pageURL", "string"), ("pageRank", "int"), ("avgDuration", "int")],
    )
    session.create_table(
        "uservisits",
        [
            ("sourceIP", "string"),
            ("destURL", "string"),
            ("adRevenue", "double"),
            ("searchWord", "string"),
        ],
    )
    num_pages = max(2, int(60 * scale))
    session.load_rows("rankings", datagen.generate_rankings(num_pages))
    session.load_rows(
        "uservisits",
        datagen.generate_uservisits(max(2, int(240 * scale)), num_pages),
    )
    return session


def run_repetition_benchmark(
    buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    queries_per_bucket: int = 24,
    seed: int = 0,
    scale: float = 1.0,
    num_slaves: int = 2,
    use_cache: bool = True,
) -> RepetitionBenchReport:
    """Run the per-bucket cache-payoff measurement.

    One shared :class:`MaterializationCache` serves every bucket with
    :attr:`~MaterializationCache.bucket` set to the bucket label, so the
    per-bucket split exercises the cache's own accounting; tables are
    rebuilt per bucket, so streams stay independent.
    """
    if any(not 0.0 <= rate <= 1.0 for rate in buckets):
        raise ValueError("bucket rates must be in [0, 1]")
    if list(buckets) != sorted(buckets):
        raise ValueError("bucket rates must be sorted ascending")
    if queries_per_bucket <= 0:
        raise ValueError("queries_per_bucket must be positive")
    # use_cache=True still defers to the REPRO_RESULT_CACHE escape hatch;
    # use_cache=False (--no-result-cache) forces the cache off outright.
    cache = MaterializationCache(enabled=None if use_cache else False)
    reports = []
    for rate in buckets:
        label = _bucket_label(rate)
        cache.bucket = label
        session = _fresh_warehouse(num_slaves, scale)
        session.result_cache = cache
        rng = random.Random(f"repbench:{seed}:{label}")
        hits = misses = 0
        saved_s = executed_s = 0.0
        for sql in _query_stream(rate, queries_per_bucket, rng):
            execution = session.execute(sql)
            if execution.cached:
                hits += 1
                saved_s += execution.saved_s
            else:
                misses += 1
                executed_s += execution.total_duration_s()
        reports.append(
            BucketReport(
                bucket=label,
                target_rate=rate,
                queries=queries_per_bucket,
                hits=hits,
                misses=misses,
                saved_s=saved_s,
                executed_s=executed_s,
            )
        )
    cache.bucket = None
    return RepetitionBenchReport(
        buckets=tuple(reports),
        cache_enabled=cache.enabled,
        seed=seed,
    )
