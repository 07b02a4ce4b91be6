"""Query planner: compile a parsed :class:`~repro.hive.parser.Query` into
MapReduce stages.

The compilation mirrors Hive's classic plans:

* scan + WHERE + projection → a **map-only** job;
* JOIN … ON → a **reduce-side join**: both tables' mappers emit
  (join-key, tagged row), the reducer forms the cross product per key;
* GROUP BY / aggregates → a map+combine+reduce job with partial
  aggregation states (SUM/COUNT/AVG/MIN/MAX);
* ORDER BY [LIMIT] → a final single-reducer total-order job.

Each stage is a real :class:`~repro.mapreduce.job.MapReduceJob`; the
session executes them in order, feeding one stage's output records to the
next, so a Hive query exercises the full MapReduce code path the paper's
Hive-bench exercises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.hive.parser import (
    Aggregate,
    And,
    ColumnRef,
    Or,
    Predicate,
    Query,
    parse_query,
    condition_predicates,
)
from repro.hive.schema import Table
from repro.mapreduce.job import JobConf, MapReduceJob


class HivePlanError(ValueError):
    """Raised when a query cannot be planned against the given tables."""


@dataclass
class Stage:
    """One MapReduce stage of a plan."""

    name: str
    job: MapReduceJob
    #: builds this stage's input records; receives the previous stage's
    #: output rows (or None for the first stage).
    input_builder: Callable[[list | None], list[tuple[object, object]]]
    #: number of reduce tasks (0 = map-only), for plan description
    description: str = ""


@dataclass
class QueryPlan:
    """An ordered list of stages plus the output schema."""

    stages: list[Stage]
    output_columns: list[str]
    query: Query = None

    def describe(self) -> str:
        lines = [f"plan with {len(self.stages)} stage(s):"]
        for i, stage in enumerate(self.stages):
            lines.append(f"  stage {i + 1}: {stage.name} — {stage.description}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# canonicalization and fingerprints
# ---------------------------------------------------------------------------
#
# The materialization cache (repro.hive.engine) needs a *stable identity*
# for a query: it keys entries on the query digest (through
# plan_fingerprint) and tags each with its template.  Two granularities:
#
# * the **template digest** masks every literal — two statements that
#   differ only in parameter values (and whitespace, alias spelling,
#   AND/OR operand order) share a template, the unit Redbench clusters
#   users on;
# * the **query digest** keeps the literals — the semantic identity a
#   result cache must key on, since different parameters mean different
#   rows.


def _canonical_condition(condition, alias_map: dict, mask: bool) -> str:
    if isinstance(condition, Predicate):
        ref = _canonical_ref(condition.column, alias_map)
        if mask:
            return f"({ref} {condition.op} ?)"
        if condition.op == "in":
            values = ",".join(sorted(repr(v) for v in condition.value))
            return f"({ref} in ({values}))"
        return f"({ref} {condition.op} {condition.value!r})"
    connective = " and " if isinstance(condition, And) else " or "
    parts = sorted(
        _canonical_condition(child, alias_map, mask) for child in condition.children
    )
    return "(" + connective.join(parts) + ")"


def _canonical_ref(ref: ColumnRef, alias_map: dict) -> str:
    table = alias_map.get(ref.table, ref.table)
    return f"{table}.{ref.column}" if table else ref.column


def canonical_query(query: Query, mask_literals: bool = False) -> str:
    """A whitespace/alias/operand-order independent rendering of *query*.

    With ``mask_literals`` every predicate literal and the LIMIT count
    collapse to ``?`` — the Redbench notion of a query *template*.
    """
    alias_map = {}
    if query.table_alias:
        alias_map[query.table_alias] = query.table
    if query.join is not None and query.join.alias:
        alias_map[query.join.alias] = query.join.table
    items = []
    for item in query.items:
        expr = item.expr
        if isinstance(expr, Aggregate):
            arg = _canonical_ref(expr.arg, alias_map) if expr.arg else "*"
            rendered = f"{expr.func}({arg})"
        else:
            rendered = _canonical_ref(expr, alias_map)
        if item.output_name() != rendered:
            rendered += f" as {item.output_name()}"
        items.append(rendered)
    parts = [f"select {', '.join(items) if items else '*'}", f"from {query.table}"]
    if query.join is not None:
        join_keys = sorted(
            (
                _canonical_ref(query.join.left, alias_map),
                _canonical_ref(query.join.right, alias_map),
            )
        )
        parts.append(f"join {query.join.table} on {join_keys[0]} = {join_keys[1]}")
    if query.where is not None:
        parts.append(f"where {_canonical_condition(query.where, alias_map, mask_literals)}")
    if query.group_by:
        parts.append(
            "group by " + ", ".join(_canonical_ref(r, alias_map) for r in query.group_by)
        )
    if query.order_by is not None:
        direction = "desc" if query.order_by.descending else "asc"
        parts.append(f"order by {query.order_by.column} {direction}")
    if query.limit is not None:
        parts.append("limit ?" if mask_literals else f"limit {query.limit}")
    return " ".join(parts)


def template_digest(sql_or_query: str | Query) -> str:
    """Literal-masked template identity: same SQL modulo literals,
    whitespace, alias spelling and AND/OR operand order → same digest."""
    query = sql_or_query if isinstance(sql_or_query, Query) else parse_query(sql_or_query)
    canonical = canonical_query(query, mask_literals=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def query_digest(sql_or_query: str | Query) -> str:
    """Semantic identity with literals kept (the result-cache half-key)."""
    query = sql_or_query if isinstance(sql_or_query, Query) else parse_query(sql_or_query)
    canonical = canonical_query(query, mask_literals=False)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def plan_fingerprint(query: Query, tables: dict[str, Table]) -> str:
    """Cache key for one planned query: the literal-keeping query digest
    folded with the identity (uid) and mutation version of every input
    table, so any table change — or a drop-and-recreate under the same
    name — yields a fresh key."""
    digest = hashlib.sha256(canonical_query(query, mask_literals=False).encode())
    names = [query.table] + ([query.join.table] if query.join is not None else [])
    for name in sorted(set(names)):
        table = tables.get(name)
        if table is None:
            raise HivePlanError(f"unknown table {name!r}")
        digest.update(f"|{name}:{table.uid}:{table.version}".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# column resolution
# ---------------------------------------------------------------------------


class _Resolver:
    """Maps column references to (side, index) in the working row."""

    def __init__(self, query: Query, tables: dict[str, Table]):
        if query.table not in tables:
            raise HivePlanError(f"unknown table {query.table!r}")
        self.left = tables[query.table]
        self.left_names = {query.table, query.table_alias or query.table}
        self.right = None
        self.right_names: set[str] = set()
        if query.join is not None:
            if query.join.table not in tables:
                raise HivePlanError(f"unknown table {query.join.table!r}")
            self.right = tables[query.join.table]
            self.right_names = {query.join.table, query.join.alias or query.join.table}
        self.left_width = len(self.left.columns)

    def resolve(self, ref: ColumnRef) -> int:
        """Index of *ref* within the combined working row."""
        side, index = self.resolve_side(ref)
        return index if side == "L" else self.left_width + index

    def resolve_side(self, ref: ColumnRef) -> tuple[str, int]:
        if ref.table is not None:
            if ref.table in self.left_names:
                return "L", self.left.column_index(ref.column)
            if ref.table in self.right_names:
                if self.right is None:
                    raise HivePlanError(f"no joined table named {ref.table!r}")
                return "R", self.right.column_index(ref.column)
            raise HivePlanError(f"unknown table qualifier {ref.table!r}")
        in_left = self.left.has_column(ref.column)
        # `is not None`, not truthiness: an empty Table has len() == 0.
        in_right = self.right.has_column(ref.column) if self.right is not None else False
        if in_left and in_right:
            raise HivePlanError(f"ambiguous column {ref.column!r}; qualify it")
        if in_left:
            return "L", self.left.column_index(ref.column)
        if in_right:
            return "R", self.right.column_index(ref.column)
        raise HivePlanError(f"unknown column {ref.column!r}")

    @property
    def working_columns(self) -> list[str]:
        cols = [c.name for c in self.left.columns]
        if self.right is not None:
            cols += [c.name for c in self.right.columns]
        return cols


# ---------------------------------------------------------------------------
# predicate evaluation
# ---------------------------------------------------------------------------


def _like_matcher(pattern: str) -> Callable[[object], bool]:
    """SQL LIKE with % wildcards (the Hive-bench grep pattern shape)."""
    parts = pattern.split("%")
    if len(parts) == 1:
        return lambda v: isinstance(v, str) and v == pattern

    def match(value) -> bool:
        if not isinstance(value, str):
            return False
        pos = 0
        if parts[0]:
            if not value.startswith(parts[0]):
                return False
            pos = len(parts[0])
        for part in parts[1:-1]:
            if part:
                found = value.find(part, pos)
                if found < 0:
                    return False
                pos = found + len(part)
        if parts[-1]:
            return value.endswith(parts[-1]) and len(value) - len(parts[-1]) >= pos
        return True

    return match


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _compile_predicate(pred: Predicate, index: int) -> Callable[[tuple], bool]:
    if pred.op == "like":
        matcher = _like_matcher(str(pred.value))
        return lambda row: matcher(row[index])
    if pred.op == "between":
        low, high = pred.value
        return lambda row: row[index] is not None and low <= row[index] <= high
    if pred.op == "in":
        allowed = set(pred.value)
        return lambda row: row[index] in allowed
    compare = _COMPARATORS[pred.op]
    value = pred.value
    return lambda row: row[index] is not None and compare(row[index], value)


def _compile_condition(condition, resolver: "_Resolver") -> Callable[[tuple], bool]:
    """Compile a Predicate/And/Or tree into a combined-row checker."""
    if isinstance(condition, Predicate):
        return _compile_predicate(condition, resolver.resolve(condition.column))
    if isinstance(condition, And):
        checks = [_compile_condition(c, resolver) for c in condition.children]
        return lambda row: all(check(row) for check in checks)
    if isinstance(condition, Or):
        checks = [_compile_condition(c, resolver) for c in condition.children]
        return lambda row: any(check(row) for check in checks)
    raise HivePlanError(f"unknown condition node {type(condition).__name__}")


def _conjuncts(condition) -> list:
    """Split a condition into top-level AND conjuncts."""
    if condition is None:
        return []
    if isinstance(condition, And):
        return list(condition.children)
    return [condition]


# ---------------------------------------------------------------------------
# aggregation machinery
# ---------------------------------------------------------------------------


def _agg_init(func: str, value):
    if func == "count":
        return 1
    if func == "avg":
        return (value, 1) if value is not None else (0.0, 0)
    return value


def _agg_merge(func: str, a, b):
    if func == "count":
        return a + b
    if func == "sum":
        return (a or 0) + (b or 0)
    if func == "avg":
        return (a[0] + b[0], a[1] + b[1])
    if func == "min":
        return b if a is None or (b is not None and b < a) else a
    if func == "max":
        return b if a is None or (b is not None and b > a) else a
    raise HivePlanError(f"unknown aggregate {func!r}")


def _agg_final(func: str, state):
    if func == "avg":
        total, count = state
        return total / count if count else None
    return state


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------


def plan_query(query: Query, tables: dict[str, Table]) -> QueryPlan:
    """Compile *query* against *tables* into a :class:`QueryPlan`."""
    resolver = _Resolver(query, tables)
    stages: list[Stage] = []

    # ---- stage 1: scan (+ filter) or reduce-side join ----
    if query.join is None:
        stages.append(_scan_stage(query, resolver))
    else:
        stages.append(_join_stage(query, resolver))

    # ---- stage 2: aggregation ----
    if query.has_aggregation:
        stage, output_columns = _aggregate_stage(query, resolver)
        stages.append(stage)
    else:
        output_columns, projector = _projection(query, resolver)
        if projector is not None:
            stages.append(_projection_stage(query, projector))

    # ---- stage 3: order by / limit ----
    if query.order_by is not None:
        if query.order_by.column not in output_columns:
            raise HivePlanError(
                f"ORDER BY column {query.order_by.column!r} is not in the output "
                f"columns {output_columns}"
            )
        stages.append(_order_stage(query, output_columns))

    return QueryPlan(stages=stages, output_columns=output_columns, query=query)


def _split_join_conjuncts(query: Query, resolver: _Resolver):
    """Partition WHERE conjuncts for a join: pushable to the left table,
    to the right table, or evaluated post-join (conjuncts spanning both
    sides, e.g. under an OR)."""
    left, right, post = [], [], []
    for conjunct in _conjuncts(query.where):
        sides = {
            resolver.resolve_side(pred.column)[0]
            for pred in condition_predicates(conjunct)
        }
        compiled = _compile_condition(conjunct, resolver)
        if sides == {"L"}:
            left.append(compiled)
        elif sides == {"R"}:
            right.append(compiled)
        else:
            post.append(compiled)
    return left, right, post


def _scan_stage(query: Query, resolver: _Resolver) -> Stage:
    check = _compile_condition(query.where, resolver) if query.where is not None else None

    def mapper(_key, row):
        if check is not None and not check(row):
            return
        yield None, row

    job = MapReduceJob(
        mapper, None, JobConf(name=f"scan-{query.table}", num_reduces=0)
    )
    table = resolver.left

    def input_builder(_prev):
        return [(i, row) for i, row in enumerate(table.rows)]

    return Stage(
        name="scan",
        job=job,
        input_builder=input_builder,
        description=(
            f"map-only scan of {query.table} with "
            f"{len(query.predicates)} predicate(s)"
        ),
    )


def _join_stage(query: Query, resolver: _Resolver) -> Stage:
    left_side, left_idx = resolver.resolve_side(query.join.left)
    right_side, right_idx = resolver.resolve_side(query.join.right)
    if left_side == right_side:
        raise HivePlanError("JOIN condition must reference both tables")
    if left_side == "R":
        left_idx, right_idx = right_idx, left_idx
    left_checks, right_checks, post_checks = _split_join_conjuncts(query, resolver)
    right_pad = (None,) * (len(resolver.right.columns) if resolver.right is not None else 0)

    def mapper(tag, row):
        if tag == "L":
            for check in left_checks:
                if not check(row + right_pad):
                    return
            yield row[left_idx], ("L", row)
        else:
            combined_offset_row = (None,) * resolver.left_width + row
            for check in right_checks:
                if not check(combined_offset_row):
                    return
            yield row[right_idx], ("R", row)

    def reducer(_key, tagged_rows):
        lefts = [row for tag, row in tagged_rows if tag == "L"]
        rights = [row for tag, row in tagged_rows if tag == "R"]
        for lrow in lefts:
            for rrow in rights:
                combined = lrow + rrow
                # Conjuncts spanning both tables (e.g. under an OR) run
                # against the joined row.
                if all(check(combined) for check in post_checks):
                    yield None, combined

    job = MapReduceJob(
        mapper,
        reducer,
        JobConf(name=f"join-{query.table}-{query.join.table}", num_reduces=4, sort_keys=True),
    )
    left_table, right_table = resolver.left, resolver.right

    def input_builder(_prev):
        records = [("L", row) for row in left_table.rows]
        records += [("R", row) for row in right_table.rows]
        return records

    return Stage(
        name="join",
        job=job,
        input_builder=input_builder,
        description=(
            f"reduce-side join {query.table} ⋈ {query.join.table} on "
            f"{query.join.left} = {query.join.right}"
        ),
    )


def _aggregate_stage(query: Query, resolver: _Resolver) -> tuple[Stage, list[str]]:
    group_indices = [resolver.resolve(ref) for ref in query.group_by]
    aggs = query.aggregates
    agg_specs = [
        (agg.func, resolver.resolve(agg.arg) if agg.arg is not None else None) for agg in aggs
    ]
    # Validate select list: non-aggregate items must be group-by columns.
    group_set = {resolver.resolve(ref) for ref in query.group_by}
    plain_items = [item for item in query.items if isinstance(item.expr, ColumnRef)]
    for item in plain_items:
        if resolver.resolve(item.expr) not in group_set:
            raise HivePlanError(
                f"column {item.expr} must appear in GROUP BY or inside an aggregate"
            )

    def mapper(_key, row):
        key = tuple(row[i] for i in group_indices)
        states = tuple(
            _agg_init(func, row[idx] if idx is not None else None) for func, idx in agg_specs
        )
        yield key, states

    def combiner(key, states_list):
        merged = list(states_list[0])
        for states in states_list[1:]:
            for i, (func, _) in enumerate(agg_specs):
                merged[i] = _agg_merge(func, merged[i], states[i])
        yield key, tuple(merged)

    def reducer(key, states_list):
        merged = list(states_list[0])
        for states in states_list[1:]:
            for i, (func, _) in enumerate(agg_specs):
                merged[i] = _agg_merge(func, merged[i], states[i])
        finals = tuple(
            _agg_final(func, merged[i]) for i, (func, _) in enumerate(agg_specs)
        )
        yield None, key + finals

    job = MapReduceJob(
        mapper,
        reducer,
        JobConf(name=f"groupby-{query.table}", num_reduces=4, sort_keys=True),
        combiner=combiner,
    )

    # Output schema: group columns in declared order, then aggregates —
    # but honour the select-list order when it covers everything.
    output_columns = [str(ref.column) for ref in query.group_by]
    output_columns += [agg.default_name() for agg in aggs]

    def input_builder(prev):
        if prev is None:
            raise HivePlanError("aggregate stage needs an upstream stage")
        return [(None, row) for row in prev]

    stage = Stage(
        name="aggregate",
        job=job,
        input_builder=input_builder,
        description=(
            f"group by {', '.join(map(str, query.group_by)) or '()'} computing "
            f"{', '.join(a.default_name() for a in aggs) or 'nothing'}"
        ),
    )
    return stage, output_columns


def _projection(query: Query, resolver: _Resolver):
    """Output columns + an optional row projector for non-aggregate queries."""
    if query.select_star:
        return resolver.working_columns, None
    indices = [resolver.resolve(item.expr) for item in query.items]
    names = [item.output_name() for item in query.items]

    def projector(row):
        return tuple(row[i] for i in indices)

    return names, projector


def _projection_stage(query: Query, projector) -> Stage:
    def mapper(_key, row):
        yield None, projector(row)

    job = MapReduceJob(mapper, None, JobConf(name="project", num_reduces=0))

    def input_builder(prev):
        if prev is None:
            raise HivePlanError("projection stage needs an upstream stage")
        return [(None, row) for row in prev]

    return Stage(
        name="project",
        job=job,
        input_builder=input_builder,
        description=f"project {len(query.items)} column(s)",
    )


def _order_stage(query: Query, output_columns: list[str]) -> Stage:
    order_index = output_columns.index(query.order_by.column)
    descending = query.order_by.descending
    limit = query.limit

    def mapper(_key, row):
        yield row[order_index], row

    def reducer(_key, rows):
        for row in rows:
            yield None, row

    job = MapReduceJob(
        mapper,
        reducer,
        JobConf(name="orderby", num_reduces=1, sort_keys=True),
    )

    def input_builder(prev):
        if prev is None:
            raise HivePlanError("order stage needs an upstream stage")
        return [(None, row) for row in prev]

    stage = Stage(
        name="order",
        job=job,
        input_builder=input_builder,
        description=(
            f"total order by {query.order_by.column} "
            f"{'desc' if descending else 'asc'}"
            + (f" limit {limit}" if limit is not None else "")
        ),
    )
    return stage
