"""Materialization cache: the observational-safety contract.

The cache must be invisible except for speed: a hit returns rows and
columns bit-identical to the cold run, any input-table change misses,
and the escape hatch (``REPRO_RESULT_CACHE=0`` / ``enabled=False``)
restores plain execution exactly.
"""

import random

import pytest

from repro.cluster import make_cluster
from repro.hive import HiveSession, MaterializationCache, result_cache_enabled
from repro.workloads.hive_bench import BENCH_QUERIES


def make_session(cache: MaterializationCache | None = None,
                 with_cluster: bool = False) -> HiveSession:
    cluster = (
        make_cluster(num_slaves=2, map_slots=4, reduce_slots=2,
                     block_size=64 * 1024)
        if with_cluster
        else None
    )
    s = HiveSession(cluster=cluster, result_cache=cache)
    s.create_table(
        "rankings",
        [("pageURL", "string"), ("pageRank", "int"), ("avgDuration", "int")],
    )
    s.create_table(
        "uservisits",
        [
            ("sourceIP", "string"),
            ("destURL", "string"),
            ("adRevenue", "double"),
            ("searchWord", "string"),
        ],
    )
    rng = random.Random(42)
    s.load_rows(
        "rankings",
        [(f"url{i}", rng.randrange(200), rng.randrange(10)) for i in range(80)],
    )
    s.load_rows(
        "uservisits",
        [
            (f"ip{rng.randrange(20)}", f"url{rng.randrange(80)}",
             round(rng.random(), 6), f"word{rng.randrange(30)}")
            for _ in range(300)
        ],
    )
    return s


class TestBitIdentity:
    @pytest.mark.parametrize("sql", BENCH_QUERIES)
    def test_hit_is_bit_identical_to_cold_run_on_every_bench_query(self, sql):
        cached = make_session(MaterializationCache(enabled=True))
        plain = make_session(cache=None)
        cold = cached.execute(sql)
        hit = cached.execute(sql)
        off = plain.execute(sql)
        assert hit.cached and not cold.cached
        assert hit.rows == cold.rows == off.rows
        assert hit.columns == cold.columns == off.columns

    def test_hit_rows_are_a_fresh_copy(self):
        session = make_session(MaterializationCache(enabled=True))
        sql = BENCH_QUERIES[1]
        session.execute(sql)
        first = session.execute(sql)
        first.rows.append(("tampered", 0))
        second = session.execute(sql)
        assert ("tampered", 0) not in second.rows

    def test_hit_carries_the_cold_cost_as_saved_s(self):
        session = make_session(MaterializationCache(enabled=True),
                               with_cluster=True)
        sql = BENCH_QUERIES[1]
        cold = session.execute(sql)
        hit = session.execute(sql)
        assert cold.total_duration_s() > 0
        assert hit.saved_s == cold.total_duration_s()
        assert hit.job_results == []  # nothing was scheduled


class TestInvalidation:
    def test_insert_invalidates(self):
        session = make_session(MaterializationCache(enabled=True))
        sql = BENCH_QUERIES[1]
        session.execute(sql)
        assert session.execute(sql).cached
        session.load_rows("rankings", [("urlX", 999, 1)])
        after = session.execute(sql)
        assert not after.cached
        assert ("urlX", 999) in after.rows

    def test_drop_and_recreate_never_serves_stale_rows(self):
        session = make_session(MaterializationCache(enabled=True))
        sql = "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100"
        session.execute(sql)
        session.execute_statement("DROP TABLE rankings")
        session.create_table(
            "rankings",
            [("pageURL", "string"), ("pageRank", "int"), ("avgDuration", "int")],
        )
        session.load_rows("rankings", [("only", 500, 1)])
        fresh = session.execute(sql)
        assert not fresh.cached
        assert fresh.rows == [("only", 500)]

    def test_unrelated_table_change_does_not_invalidate(self):
        session = make_session(MaterializationCache(enabled=True))
        sql = BENCH_QUERIES[1]  # touches rankings only
        session.execute(sql)
        session.load_rows("uservisits", [("ip", "url0", 0.5, "w")])
        assert session.execute(sql).cached


class TestEscapeHatch:
    def test_disabled_cache_never_hits(self):
        cache = MaterializationCache(enabled=False)
        session = make_session(cache)
        sql = BENCH_QUERIES[1]
        a = session.execute(sql)
        b = session.execute(sql)
        assert not a.cached and not b.cached
        assert len(cache) == 0

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        assert not result_cache_enabled()
        assert not MaterializationCache().enabled
        monkeypatch.setenv("REPRO_RESULT_CACHE", "1")
        assert result_cache_enabled()
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        assert result_cache_enabled()

    def test_no_cache_object_is_plain_execution(self):
        session = make_session(cache=None)
        assert not session.execute(BENCH_QUERIES[1]).cached


class TestAccounting:
    def test_stats_and_bucket_split(self):
        cache = MaterializationCache(enabled=True)
        session = make_session(cache)
        sql = BENCH_QUERIES[1]
        cache.bucket = "hot"
        session.execute(sql)
        session.execute(sql)
        cache.bucket = "cold"
        session.execute("SELECT pageURL, pageRank FROM rankings WHERE pageRank > 7")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.hit_rate() == pytest.approx(1 / 3)
        assert cache.by_bucket["hot"].hits == 1
        assert cache.by_bucket["hot"].misses == 1
        assert cache.by_bucket["cold"].misses == 1
        assert cache.by_bucket["cold"].hits == 0

    def test_procfs_warehouse_counters_on_the_master(self):
        cache = MaterializationCache(enabled=True)
        session = make_session(cache, with_cluster=True)
        sql = BENCH_QUERIES[1]
        session.execute(sql)
        session.execute(sql)
        procfs = session.cluster.master.procfs
        assert procfs.result_cache_hits == 1
        assert procfs.result_cache_misses == 1
        line = procfs.render("warehouse")
        assert "result_cache_hits 1" in line
        assert "result_cache_misses 1" in line

    def test_clear_empties_entries_but_keeps_stats(self):
        cache = MaterializationCache(enabled=True)
        session = make_session(cache)
        session.execute(BENCH_QUERIES[1])
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
