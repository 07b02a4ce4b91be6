"""Mini data warehouse (Hive 0.6-flavoured) over the MapReduce engine.

The paper's Hive-bench workload runs "a series of representative SQL-like
statements" (the HIVE-396 benchmark: grep selection, rankings filter,
uservisits aggregation, rankings⋈uservisits join) on Hive, which compiles
each statement into MapReduce jobs.  This package does the same, end to
end:

* :mod:`repro.hive.schema` — tables with typed columns and rows;
* :mod:`repro.hive.parser` — a recursive-descent parser for the SQL subset
  the benchmark needs (SELECT / WHERE / LIKE / JOIN … ON / GROUP BY /
  aggregates / ORDER BY / LIMIT);
* :mod:`repro.hive.planner` — compiles the AST into one or more
  :class:`~repro.mapreduce.job.MapReduceJob` stages, exactly like Hive's
  plan: scan-filter-project is map-only, GROUP BY is map+combine+reduce,
  JOIN is a reduce-side join followed by downstream stages;
* :mod:`repro.hive.engine` — a session that owns tables, runs plans on a
  :class:`~repro.mapreduce.engine.LocalEngine`, and returns result rows
  (plus the job results for the cluster timing model);
* :mod:`repro.hive.repbench` — the Redbench-style repetition benchmark:
  the materialization cache's payoff per repetitiveness bucket.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "Column": "schema",
    "Table": "schema",
    "parse_query": "parser",
    "Query": "parser",
    "canonical_query": "planner",
    "plan_fingerprint": "planner",
    "plan_query": "planner",
    "query_digest": "planner",
    "template_digest": "planner",
    "QueryPlan": "planner",
    "CacheStats": "engine",
    "HiveSession": "engine",
    "MaterializationCache": "engine",
    "QueryExecution": "engine",
    "result_cache_enabled": "engine",
    "BucketReport": "repbench",
    "RepetitionBenchReport": "repbench",
    "run_repetition_benchmark": "repbench",
})
