"""Hive session: tables + query execution over the MapReduce engine.

Alongside plain execution the session hosts an optional **query/result
materialization cache** (:class:`MaterializationCache`): production
warehouse traffic is dominated by recurring queries (Redbench, SNIPPETS),
so a recurring statement whose input tables have not changed can return
its materialised rows instead of recomputing the whole MapReduce stage
chain.  The cache rides the :mod:`repro.core.simcache` idioms —
content-addressed keys (:func:`~repro.hive.planner.plan_fingerprint`
over the literal-keeping canonical query plus every input table's
uid/version), hits required to be bit-identical to cold runs, and an
escape hatch (``REPRO_RESULT_CACHE=0`` or ``enabled=False``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from repro.cluster.cluster import HadoopCluster
from repro.hive.parser import (
    CreateTableAs,
    DropTable,
    parse_query,
    parse_statement,
    split_statements,
)
from repro.hive.planner import QueryPlan, plan_fingerprint, plan_query, template_digest
from repro.hive.schema import Column, Table
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.engine import JobResult, LocalEngine


@dataclass
class QueryExecution:
    """Result of one SQL statement.

    ``cached`` marks a materialization-cache hit: ``rows``/``columns``
    are bit-identical to a cold run, ``job_results`` is empty (nothing
    was scheduled) and ``saved_s`` carries the simulated duration the
    cold execution had cost.
    """

    sql: str
    columns: list[str]
    rows: list[tuple]
    plan: QueryPlan
    job_results: list[JobResult] = field(default_factory=list)
    cached: bool = False
    saved_s: float = 0.0

    @property
    def counters(self) -> JobCounters:
        """Counters merged across all stages."""
        merged = JobCounters()
        for result in self.job_results:
            merged.merge(result.counters)
        return merged

    def total_duration_s(self) -> float:
        return sum(
            r.timeline.duration_s for r in self.job_results if r.timeline is not None
        )


def result_cache_enabled(default: bool = True) -> bool:
    """Honour the ``REPRO_RESULT_CACHE`` escape hatch (0/false/off disable)."""
    value = os.environ.get("REPRO_RESULT_CACHE")
    if value is None:
        return default
    return value.strip().lower() not in {"0", "false", "off", "no", ""}


@dataclass
class CacheStats:
    """Hit/miss and latency-win accounting for one bucket (or overall)."""

    hits: int = 0
    misses: int = 0
    #: simulated seconds *not* re-run because a hit served the rows
    saved_s: float = 0.0
    #: simulated seconds actually spent executing on misses
    executed_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "saved_s": self.saved_s,
            "executed_s": self.executed_s,
        }


@dataclass(frozen=True)
class _CacheEntry:
    """One materialised result: immutable rows + the cold cost."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    cold_duration_s: float
    template: str


class MaterializationCache:
    """In-memory content-addressed cache of query results.

    Keys come from :func:`~repro.hive.planner.plan_fingerprint`, so a hit
    requires the same canonical statement (literals included) *and*
    unchanged input tables.  Results are stored as immutable tuples and
    copied out on every hit, so callers can never corrupt an entry.

    ``bucket`` is an accounting label (e.g. a Redbench repetitiveness
    bucket): while set, hits/misses/latency wins are also tallied
    per-bucket in :attr:`by_bucket`, which is how the per-bucket payoff
    curves are measured.
    """

    def __init__(self, enabled: bool | None = None) -> None:
        self.enabled = result_cache_enabled() if enabled is None else enabled
        self._entries: dict[str, _CacheEntry] = {}
        self.stats = CacheStats()
        self.bucket: str | None = None
        self.by_bucket: dict[str, CacheStats] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _tallies(self) -> list[CacheStats]:
        tallies = [self.stats]
        if self.bucket is not None:
            tallies.append(self.by_bucket.setdefault(self.bucket, CacheStats()))
        return tallies

    def lookup(self, key: str) -> _CacheEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            for stats in self._tallies():
                stats.hits += 1
                stats.saved_s += entry.cold_duration_s
        return entry

    def record_miss(self, executed_s: float) -> None:
        if not (math.isfinite(executed_s) and executed_s >= 0):
            raise ValueError("executed_s must be finite and non-negative")
        for stats in self._tallies():
            stats.misses += 1
            stats.executed_s += executed_s

    def store(self, key: str, execution: QueryExecution) -> None:
        self._entries[key] = _CacheEntry(
            columns=tuple(execution.columns),
            rows=tuple(tuple(row) for row in execution.rows),
            cold_duration_s=execution.total_duration_s(),
            template=template_digest(execution.plan.query),
        )

    def clear(self) -> int:
        """Explicit invalidation; returns the number of entries dropped."""
        count = len(self._entries)
        self._entries.clear()
        return count

    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def to_dict(self) -> dict:
        return {
            "entries": len(self._entries),
            "stats": self.stats.to_dict(),
            "by_bucket": {
                name: stats.to_dict() for name, stats in sorted(self.by_bucket.items())
            },
        }


class HiveSession:
    """A warehouse session: CREATE-like table registration plus SELECTs.

    With a :class:`~repro.cluster.cluster.HadoopCluster` attached, every
    compiled stage is also scheduled on the cluster, so Hive queries
    produce job timelines exactly like hand-written MapReduce jobs.
    """

    def __init__(
        self,
        engine: LocalEngine | None = None,
        cluster: HadoopCluster | None = None,
        result_cache: MaterializationCache | None = None,
    ):
        self.engine = engine or LocalEngine()
        self.cluster = cluster
        self.result_cache = result_cache
        self.tables: dict[str, Table] = {}

    # -- DDL-ish -------------------------------------------------------------

    def create_table(self, name: str, columns: list[Column | tuple[str, str]]) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        cols = [c if isinstance(c, Column) else Column(*c) for c in columns]
        table = Table(name, cols)
        self.tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        self.tables.pop(name, None)

    def load_rows(self, name: str, rows) -> None:
        self.table(name).extend(rows)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no such table: {name!r}") from None

    # -- queries -------------------------------------------------------------

    def explain(self, sql: str) -> str:
        query = parse_query(sql)
        return plan_query(query, self.tables).describe()

    def execute_statement(self, sql: str) -> QueryExecution | None:
        """Run one statement of any kind.

        SELECTs return a :class:`QueryExecution`; ``CREATE TABLE … AS``
        materialises the result as a new table (column types inferred
        from the first row) and returns the underlying execution; ``DROP
        TABLE`` returns None.
        """
        statement = parse_statement(sql)
        if isinstance(statement, DropTable):
            self.drop_table(statement.table)
            return None
        if isinstance(statement, CreateTableAs):
            execution = self._run_query(statement.query, sql)
            columns = [
                Column(_safe_column_name(name), _infer_type(execution.rows, index))
                for index, name in enumerate(execution.columns)
            ]
            table = self.create_table(statement.table, columns)
            table.extend(execution.rows)
            return execution
        return self._run_query(statement, sql)

    def execute_script(self, script: str) -> list[QueryExecution]:
        """Run a ;-separated script; returns the SELECT/CTAS executions."""
        executions = []
        for sql in split_statements(script):
            execution = self.execute_statement(sql)
            if execution is not None:
                executions.append(execution)
        return executions

    def execute(self, sql: str) -> QueryExecution:
        """Parse, plan and run one SELECT; return rows and job results."""
        query = parse_query(sql)
        return self._run_query(query, sql)

    def _run_query(self, query, sql: str) -> QueryExecution:
        plan = plan_query(query, self.tables)
        cache = self.result_cache
        key = None
        if cache is not None and cache.enabled:
            key = plan_fingerprint(query, self.tables)
            entry = cache.lookup(key)
            if entry is not None:
                self._record_cache(hit=True)
                return QueryExecution(
                    sql=sql,
                    columns=list(entry.columns),
                    rows=list(entry.rows),
                    plan=plan,
                    job_results=[],
                    cached=True,
                    saved_s=entry.cold_duration_s,
                )
        rows: list[tuple] | None = None
        job_results: list[JobResult] = []
        for stage in plan.stages:
            records = stage.input_builder(rows)
            result = self.engine.execute(stage.job, records, cluster=self.cluster)
            job_results.append(result)
            rows = [value for _key, value in result.output]
        assert rows is not None
        if query.order_by is not None and query.order_by.descending:
            rows = rows[::-1]
        if query.limit is not None:
            rows = rows[: query.limit]
        execution = QueryExecution(
            sql=sql,
            columns=plan.output_columns,
            rows=rows,
            plan=plan,
            job_results=job_results,
        )
        if key is not None:
            cache.record_miss(execution.total_duration_s())
            cache.store(key, execution)
            self._record_cache(hit=False)
        return execution

    def _record_cache(self, hit: bool) -> None:
        """Count a cache outcome on the attached cluster's master procfs."""
        if self.cluster is None:
            return
        master = getattr(self.cluster, "master", None)
        if master is None:  # e.g. a FaultyCluster wrapper
            master = getattr(getattr(self.cluster, "cluster", None), "master", None)
        if master is not None:
            if hit:
                master.procfs.result_cache_hits += 1
            else:
                master.procfs.result_cache_misses += 1


def _safe_column_name(name: str) -> str:
    """Make an output-column label a valid identifier (CTAS columns).

    Unaliased aggregates render as e.g. ``sum(adRevenue)``; Hive likewise
    rewrites them (``_c1``) — we keep the readable base instead.
    """
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = f"c_{cleaned}"
    return cleaned.strip("_") or "col"


def _infer_type(rows: list[tuple], index: int) -> str:
    """Infer a column type from the first non-None value."""
    for row in rows:
        value = row[index]
        if value is None:
            continue
        if isinstance(value, bool):
            return "int"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "double"
        return "string"
    return "string"
