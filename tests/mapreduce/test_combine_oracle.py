"""The combiner path of ``LocalEngine`` against the code it replaced.

``OracleEngine`` keeps the map-side combine as it was before combining
on emit: build every ``(key, value)`` record of a split, size them all,
stable-sort the split by key, regroup it with ``groupby`` and call the
combiner per group.  The engine must match it on everything a job
reports — output (key and value types, and which key object leads a
group), every ``JobCounters`` field and the ``JobWork`` — and must raise
the same exception (type and message) wherever the oracle raises.

The cases are the ones where grouping in a dict can differ from
``sorted`` + ``groupby``: equal keys of different types and sizes
(``1`` / ``1.0`` / ``True``, ``('a', 1)`` / ``('a', True)``), NaN keys,
keys with no mutual order, unhashable keys, and the order of values
within a group.
"""

import itertools
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import make_cluster
from repro.mapreduce import JobConf, LocalEngine, MapReduceJob
from repro.mapreduce.io import record_sizes

_record_key = operator.itemgetter(0)


class OracleEngine(LocalEngine):
    """``LocalEngine`` with the map side as it was before combine on emit."""

    def _run_map_split(self, job, records, counters):
        """Map (+ combine) one split: ``(records out, their sizes)``."""
        out: list[tuple[object, object]] = []
        mapper = job.mapper
        for key, value in records:
            for out_key, out_value in mapper(key, value):
                out.append((out_key, out_value))
        out_sizes = record_sizes(out)
        counters.map_output_records += len(out)
        counters.map_output_bytes += sum(out_sizes)
        if job.combiner is not None and out:
            out = self._combine(job, out, counters)
            out_sizes = record_sizes(out)
        return out, out_sizes

    def _combine(self, job, records, counters):
        counters.combine_input_records += len(records)
        grouped = self._group(records, job.conf.sort_keys)
        combined: list[tuple[object, object]] = []
        for key, values in grouped:
            combined.extend(job.combiner(key, values))
        counters.combine_output_records += len(combined)
        return combined

    @staticmethod
    def _group(records, sort_keys: bool):
        """Group records by key, sorted when the job requests it."""
        if sort_keys:
            ordered = sorted(records, key=_record_key)
        else:
            # Stable grouping without a total order on keys.
            buckets: dict[object, list] = {}
            for key, value in records:
                buckets.setdefault(key, []).append(value)
            return [(key, values) for key, values in buckets.items()]
        grouped = []
        for key, group in itertools.groupby(ordered, key=_record_key):
            grouped.append((key, [value for _, value in group]))
        return grouped


# -- jobs ---------------------------------------------------------------------
#
# Input records are ``(record_id, [(key, value), ...])``: the mapper emits
# the listed pairs, so the key *objects* come from the input and the two
# engines see the very same ones (a NaN's identity, which of ``1`` and
# ``True`` was emitted first).  An input record cannot hold a value that
# cannot be sized (the input is sized first), so the mapper turns the
# value ``UNSIZABLE`` into a fresh ``object()``.

UNSIZABLE = "<unsizable>"


def emit_map(_record_id, pairs):
    for key, value in pairs:
        yield key, object() if value == UNSIZABLE else value


def tuple_combine(key, values):
    yield key, tuple(values)


def count_combine(key, values):
    yield key, len(values)


def varying_combine(key, values):
    """Yields no record for an even-sized group and two for an odd one."""
    if len(values) % 2:
        yield key, values[0]
        yield key, values[-1]


def tuple_reduce(key, values):
    yield key, tuple(values)


COMBINERS = {"tuple": tuple_combine, "count": count_combine, "varying": varying_combine}


def make_job(combiner, sort_keys, num_reduces=2):
    return MapReduceJob(
        emit_map,
        tuple_reduce,
        JobConf("combine-oracle", num_reduces=num_reduces, sort_keys=sort_keys),
        combiner=combiner,
    )


def execute(engine_cls, job, records, splits, cluster=False):
    """``(result, None)`` or ``(None, (exception type, message))``."""
    engine = engine_cls(default_splits=splits)
    try:
        if cluster:
            return engine.execute(job, records, cluster=make_cluster(num_slaves=2)), None
        return engine.execute(job, records), None
    except Exception as exc:  # the comparison is the point: any type
        return None, (type(exc), str(exc))


def typed(value):
    """A view of *value* that tells ``1``, ``1.0`` and ``True`` apart and
    names each NaN by its identity (``nan != nan``)."""
    if isinstance(value, float) and math.isnan(value):
        return ("nan", id(value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(typed(v) for v in value))
    return (type(value).__name__, value)


def key_identities(result):
    return [[id(key) for key, _ in part] for part in result.reducer_outputs] + [
        [id(key) for key, _ in result.output]
    ]


def assert_same(records, combiner, sort_keys, splits=1, num_reduces=2, cluster=False):
    job = make_job(combiner, sort_keys, num_reduces)
    got, got_error = execute(LocalEngine, job, records, splits, cluster)
    want, want_error = execute(OracleEngine, job, records, splits, cluster)
    assert got_error == want_error
    if want is None:
        return None
    assert typed(got.output) == typed(want.output)
    assert [typed(part) for part in got.reducer_outputs] == [
        typed(part) for part in want.reducer_outputs
    ]
    assert key_identities(got) == key_identities(want)
    assert got.counters == want.counters
    assert got.work == want.work
    return got


def one_split(*pairs):
    """A single input record whose map emits *pairs* in order."""
    return [("r0", list(pairs))]


BOTH_ORDERS = pytest.mark.parametrize("sort_keys", [True, False], ids=["sorted", "unsorted"])
ALL_COMBINERS = pytest.mark.parametrize("combiner", list(COMBINERS.values()), ids=list(COMBINERS))


@BOTH_ORDERS
@ALL_COMBINERS
class TestEqualKeysOfDifferentTypes:
    """Equal keys share a group led by the first emitted, but each record
    is sized by its own key: ``True`` is 1 byte, ``1`` and ``1.0`` are 8."""

    @pytest.mark.parametrize(
        "keys",
        list(itertools.permutations([1, 1.0, True])),
        ids=lambda keys: "-".join(type(k).__name__ for k in keys),
    )
    def test_numbers(self, keys, combiner, sort_keys):
        records = one_split(*[(key, i) for i, key in enumerate(keys)], (2, 9), (0, 8))
        assert_same(records, combiner, sort_keys)

    @pytest.mark.parametrize(
        "first, other", [(1, True), (True, 1)], ids=["int-first", "bool-first"]
    )
    def test_tuples(self, first, other, combiner, sort_keys):
        records = one_split((("a", first), "x"), (("a", other), "y"), (("b", 2), "z"))
        result = assert_same(records, combiner, sort_keys)
        assert result.counters.map_output_records == 3

    def test_tuple_key_bytes_are_per_record(self, combiner, sort_keys):
        # ("a", 1) / ("a", True) with str values: 4 + 11 + 1, 4 + 4 + 1, ...
        records = one_split((("a", 1), "x"), (("a", True), "y"), (("a", 1), "z"))
        result = assert_same(records, combiner, sort_keys)
        assert result.counters.map_output_bytes == 16 + 9 + 16

    def test_across_splits(self, combiner, sort_keys):
        records = [
            ("r0", [(1, "a"), (True, "b")]),
            ("r1", [(1.0, "c"), (2, "d")]),
            ("r2", [(True, "e"), (2.0, "f"), (1, "g")]),
        ]
        assert_same(records, combiner, sort_keys, splits=2)


@BOTH_ORDERS
class TestNaNKeys:
    def test_distinct_nan_objects(self, sort_keys):
        nans = [float("nan") for _ in range(3)]
        records = one_split(*[(nan, i) for i, nan in enumerate(nans)])
        assert_same(records, tuple_combine, sort_keys)

    def test_one_nan_object_twice(self, sort_keys):
        nan = float("nan")
        assert_same(one_split((nan, 1), (nan, 2)), tuple_combine, sort_keys)

    def test_one_nan_object_among_numbers(self, sort_keys):
        nan = float("nan")
        records = one_split((2.0, "a"), (nan, "b"), (1, "c"), (nan, "d"), (2, "e"))
        assert_same(records, tuple_combine, sort_keys)

    def test_nan_inside_tuple_keys(self, sort_keys):
        nan, other = float("nan"), float("nan")
        records = one_split((("a", nan), 1), (("a", nan), 2), (("a", other), 3), (("b", 0), 4))
        assert_same(records, tuple_combine, sort_keys)


@BOTH_ORDERS
class TestUnorderableAndUnhashableKeys:
    def test_str_and_int_keys(self, sort_keys):
        records = one_split(("a", 1), (2, 2), ("a", 3))
        _, sorted_error = execute(OracleEngine, make_job(tuple_combine, True), records, 1)
        assert sorted_error is not None and sorted_error[0] is TypeError
        assert_same(records, tuple_combine, sort_keys)

    def test_str_and_int_keys_in_a_later_split(self, sort_keys):
        records = [("r0", [("a", 1), ("b", 2)]), ("r1", [("a", 3), (4, 4)])]
        assert_same(records, tuple_combine, sort_keys, splits=2)

    def test_one_unorderable_key_emitted_twice(self, sort_keys):
        # Sorting two records compares their keys, and None < None raises.
        assert_same(one_split((None, 1), (None, 2)), tuple_combine, sort_keys)
        assert_same(one_split((1j, 1), (1j, 2)), tuple_combine, sort_keys)

    def test_one_unorderable_key_emitted_once(self, sort_keys):
        assert_same(one_split((None, 1)), tuple_combine, sort_keys)

    def test_list_keys(self, sort_keys):
        # Sorted, list keys group like any sequence; unsorted, they cannot
        # be dict keys and the job raises ``unhashable type: 'list'``.
        records = one_split((["b"], 1), (["a"], 2), (["b"], 3))
        result = assert_same(records, tuple_combine, sort_keys, num_reduces=1)
        assert (result is not None) == sort_keys

    def test_list_keys_unsized_value(self, sort_keys):
        records = one_split((["a"], UNSIZABLE))
        assert_same(records, tuple_combine, sort_keys)

    def test_unsizable_value(self, sort_keys):
        records = one_split(("a", 1), ("b", UNSIZABLE))
        _, error = execute(OracleEngine, make_job(tuple_combine, sort_keys), records, 1)
        assert error == (TypeError, "cannot size value of type object")
        assert_same(records, tuple_combine, sort_keys)


def failing_map(record_id, pairs):
    yield from emit_map(record_id, pairs)
    if record_id == "boom":
        raise ValueError("mapper failed")


@BOTH_ORDERS
class TestMapperErrors:
    def test_mapper_error_after_unorderable_keys(self, sort_keys):
        # The oracle maps the whole split before it sizes or sorts, so the
        # mapper's error wins over a sort error from earlier records.
        job = MapReduceJob(
            failing_map,
            tuple_reduce,
            JobConf("combine-oracle", num_reduces=1, sort_keys=sort_keys),
            combiner=tuple_combine,
        )
        records = [("r0", [("a", 1), (2, 2), ("c", UNSIZABLE)]), ("boom", [("d", 4)])]
        got = execute(LocalEngine, job, records, 1)[1]
        want = execute(OracleEngine, job, records, 1)[1]
        assert got == want == (ValueError, "mapper failed")


@BOTH_ORDERS
@ALL_COMBINERS
class TestGroupShape:
    def test_value_order_within_a_group(self, combiner, sort_keys):
        records = [
            ("r0", [("b", 1), ("a", 2), ("b", 3)]),
            ("r1", [("a", 4), ("c", 5), ("b", 6), ("a", 7)]),
        ]
        assert_same(records, combiner, sort_keys)
        assert_same(records, combiner, sort_keys, num_reduces=0)

    def test_empty_split(self, combiner, sort_keys):
        records = [("r0", []), ("r1", [("a", 1)]), ("r2", [])]
        assert_same(records, combiner, sort_keys, splits=3)
        assert_same([], combiner, sort_keys)

    def test_on_a_cluster(self, combiner, sort_keys):
        records = [(f"r{i}", [(f"w{i % 5}", i), (f"k{i % 3}", "v")]) for i in range(40)]
        assert_same(records, combiner, sort_keys, cluster=True)


def test_combiner_called_per_group_in_oracle_order():
    """The combiner sees the same (key, values) calls in the same order."""

    def calls_of(engine_cls, sort_keys):
        calls = []

        def recording_combine(key, values):
            calls.append((typed(key), id(key), typed(values)))
            yield key, len(values)

        records = one_split((2, "a"), (1.0, "b"), (0, "c"), (True, "d"), (2.0, "e"), (1, "f"))
        execute(engine_cls, make_job(recording_combine, sort_keys), records, 1)
        return calls

    for sort_keys in (True, False):
        calls = calls_of(LocalEngine, sort_keys)
        assert len(calls) == 3
        assert calls == calls_of(OracleEngine, sort_keys)


@pytest.mark.parametrize(
    "sort_keys, expected",
    [(True, [("a", [2]), ("b", [1, 3])]), (False, [("b", [1, 3]), ("a", [2])])],
    ids=["sorted", "unsorted"],
)
def test_combiner_groups_by_hand(sort_keys, expected):
    calls = []

    def recording_combine(key, values):
        calls.append((key, list(values)))
        yield key, len(values)

    job = make_job(recording_combine, sort_keys)
    LocalEngine(default_splits=1).execute(job, one_split(("b", 1), ("a", 2), ("b", 3)))
    assert calls == expected


# -- a property over mixed-type keys ------------------------------------------
#
# Keys are drawn from one family per example, so that most splits sort
# (numbers mixed with NaN, tuples with equal members of different types)
# rather than raise at the first str/int comparison.  ``None`` and ``1j``
# hash but have no order, not even with themselves; the last family mixes
# everything.

_NAN = float("nan")

numbers = st.one_of(
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, _NAN]),  # one shared NaN object
    st.builds(float, st.just("nan")),  # a fresh NaN object per draw
)
strings = st.text(alphabet="ab", max_size=2)
tuples = st.tuples(st.sampled_from(["a", "b"]), numbers)
lists = st.lists(st.integers(0, 1), max_size=2)
KEY_FAMILIES = {
    "numbers": numbers,
    "strings": strings,
    "tuples": tuples,
    "lists": lists,
    "unorderable": st.one_of(st.none(), st.just(1j), strings),
    "mixed": st.one_of(numbers, strings, tuples, lists, st.none()),
}


def splits_of(keys):
    return st.lists(
        st.lists(st.tuples(keys, st.integers(0, 9)), max_size=8), min_size=1, max_size=3
    )


@settings(max_examples=400, deadline=None)
@given(
    splits=st.sampled_from(sorted(KEY_FAMILIES)).flatmap(
        lambda family: splits_of(KEY_FAMILIES[family])
    ),
    sort_keys=st.booleans(),
    combiner=st.sampled_from(sorted(COMBINERS)),
    num_reduces=st.integers(0, 2),
)
def test_matches_oracle_on_mixed_type_keys(splits, sort_keys, combiner, num_reduces):
    records = [(f"r{i}", pairs) for i, pairs in enumerate(splits)]
    assert_same(
        records, COMBINERS[combiner], sort_keys, splits=len(records), num_reduces=num_reduces
    )
