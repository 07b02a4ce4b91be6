"""Tests for the MapReduce engine: functional semantics and counters."""

import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import make_cluster
from repro.mapreduce import (
    DistributedInput,
    JobConf,
    LocalEngine,
    MapReduceJob,
    hash_partitioner,
    make_range_partitioner,
    record_bytes,
)
from repro.mapreduce.io import records_bytes, value_bytes


def wc_map(key, value):
    for word in value.split():
        yield word, 1


def wc_reduce(key, values):
    yield key, sum(values)


def identity_map(key, value):
    yield key, value


def identity_reduce(key, values):
    for value in values:
        yield key, value


def wordcount_job(reduces=4, combiner=False):
    return MapReduceJob(
        wc_map,
        wc_reduce,
        JobConf("wordcount", num_reduces=reduces),
        combiner=wc_reduce if combiner else None,
    )


class TestWordCountSemantics:
    DOCS = [("d%d" % i, "the quick brown fox the dog the end") for i in range(10)]

    def test_matches_collections_counter(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        expected = collections.Counter(
            word for _, text in self.DOCS for word in text.split()
        )
        assert dict(result.output) == dict(expected)

    def test_combiner_does_not_change_result(self):
        plain = LocalEngine().execute(wordcount_job(combiner=False), self.DOCS)
        combined = LocalEngine().execute(wordcount_job(combiner=True), self.DOCS)
        assert dict(plain.output) == dict(combined.output)

    def test_combiner_shrinks_shuffle(self):
        plain = LocalEngine().execute(wordcount_job(combiner=False), self.DOCS)
        combined = LocalEngine().execute(wordcount_job(combiner=True), self.DOCS)
        assert combined.counters.shuffle_bytes < plain.counters.shuffle_bytes

    def test_single_reducer(self):
        result = LocalEngine().execute(wordcount_job(reduces=1), self.DOCS)
        assert len(result.reducer_outputs) == 1
        assert dict(result.output)["the"] == 30

    def test_each_key_in_exactly_one_partition(self):
        result = LocalEngine().execute(wordcount_job(reduces=4), self.DOCS)
        seen = collections.Counter()
        for part in result.reducer_outputs:
            for key, _ in part:
                seen[key] += 1
        assert all(count == 1 for count in seen.values())


class TestCounters:
    DOCS = [("d", "a b c a"), ("e", "b c")]

    def test_map_input_records(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert result.counters.map_input_records == 2

    def test_map_output_records(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert result.counters.map_output_records == 6

    def test_reduce_input_equals_spill_without_combiner(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert result.counters.reduce_input_records == result.counters.spilled_records

    def test_reduce_groups_equals_distinct_keys(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert result.counters.reduce_input_groups == 3

    def test_output_records_counted(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert result.counters.reduce_output_records == 3

    def test_shuffle_bytes_sum_per_reducer(self):
        result = LocalEngine().execute(wordcount_job(), self.DOCS)
        assert sum(result.counters.reduce_shuffle_bytes) == result.counters.shuffle_bytes

    def test_counters_merge(self):
        a = LocalEngine().execute(wordcount_job(), self.DOCS).counters
        b = LocalEngine().execute(wordcount_job(), self.DOCS).counters
        before = a.map_input_records
        a.merge(b)
        assert a.map_input_records == 2 * before

    def test_as_dict_has_hadoop_names(self):
        counters = LocalEngine().execute(wordcount_job(), self.DOCS).counters
        d = counters.as_dict()
        assert "Map input records" in d
        assert "Reduce shuffle bytes" in d


class TestMapOnlyJobs:
    def test_map_only_output(self):
        job = MapReduceJob(wc_map, None, JobConf("grep-like", num_reduces=0))
        result = LocalEngine().execute(job, [("d", "x y")])
        assert sorted(result.output) == [("x", 1), ("y", 1)]
        assert result.work.reduces == []

    def test_reducerless_with_reduces_rejected(self):
        with pytest.raises(ValueError):
            MapReduceJob(wc_map, None, JobConf("bad", num_reduces=2))


class TestSorting:
    def test_range_partitioned_total_order(self):
        rng = random.Random(7)
        records = [(rng.randrange(10**6), None) for _ in range(5000)]
        partitioner = make_range_partitioner([k for k, _ in records[:500]], 8)
        job = MapReduceJob(
            identity_map,
            identity_reduce,
            JobConf("sort", num_reduces=8),
            partitioner=partitioner,
        )
        result = LocalEngine().execute(job, records)
        keys = [k for k, _ in result.output]
        assert keys == sorted(k for k, _ in records)

    def test_sort_is_permutation(self):
        rng = random.Random(8)
        records = [(rng.randrange(100), i) for i in range(1000)]
        job = MapReduceJob(identity_map, identity_reduce, JobConf("s", num_reduces=4))
        result = LocalEngine().execute(job, records)
        assert collections.Counter(v for _, v in result.output) == collections.Counter(
            v for _, v in records
        )

    def test_unsorted_grouping_without_total_order(self):
        # Keys of mixed types cannot be sorted; sort_keys=False must work.
        records = [((1, "a"), 1), (("b",), 2), ((1, "a"), 3)]
        job = MapReduceJob(
            identity_map,
            wc_reduce,
            JobConf("group", num_reduces=1, sort_keys=False),
        )
        result = LocalEngine().execute(job, records)
        assert dict(result.output) == {(1, "a"): 4, ("b",): 2}


class TestPartitioners:
    def test_hash_partitioner_stable(self):
        assert hash_partitioner("abc", 8) == hash_partitioner("abc", 8)

    def test_hash_partitioner_range(self):
        for key in ("a", "b", 42, (1, 2)):
            assert 0 <= hash_partitioner(key, 5) < 5

    def test_hash_partitioner_rejects_zero(self):
        with pytest.raises(ValueError):
            hash_partitioner("a", 0)

    def test_range_partitioner_monotone(self):
        part = make_range_partitioner(list(range(100)), 4)
        parts = [part(k, 4) for k in range(100)]
        assert parts == sorted(parts)
        assert max(parts) <= 3

    def test_range_partitioner_single_reduce(self):
        part = make_range_partitioner([1, 2, 3], 1)
        assert part(99, 1) == 0

    def test_range_partitioner_empty_sample(self):
        part = make_range_partitioner([], 4)
        assert part(5, 4) == 0

    @given(st.lists(st.integers(), min_size=2, max_size=300), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_range_partitioner_preserves_order_property(self, keys, reduces):
        part = make_range_partitioner(keys, reduces)
        ordered = sorted(keys)
        parts = [part(k, reduces) for k in ordered]
        assert parts == sorted(parts)


class TestRecordSizing:
    @pytest.mark.parametrize(
        "value,size",
        [
            (None, 1),
            (True, 1),
            (7, 8),
            (3.14, 8),
            ("abc", 3),
            (b"abcd", 4),
            ((1, 2), 18),
            ([1.0], 10),
            ({"a": 1}, 11),
        ],
    )
    def test_value_bytes(self, value, size):
        assert value_bytes(value) == size

    def test_record_bytes_includes_framing(self):
        assert record_bytes("ab", 1) == 4 + 2 + 8

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            value_bytes(object())

    def test_numpy_arrays_sized(self):
        import numpy as np

        assert value_bytes(np.zeros(4)) == 32


class TestByteAccountingAgainstRecordBytes:
    """Every byte counter equals an independent sum of ``record_bytes``.

    The engine sizes each record once and derives all its byte figures
    from those sizes; here each figure is recomputed from scratch out of
    the job's own inputs and outputs, split and partitioned by hand.
    """

    SPLITS = 3
    REDUCES = 4
    DOCS = [
        ("d%02d" % i, " ".join(["alpha", "beta", "gamma", "naïve", "w%d" % (i % 5)] * (1 + i % 4)))
        for i in range(17)
    ]

    def split_docs(self):
        n = len(self.DOCS)
        return [
            self.DOCS[n * i // self.SPLITS: n * (i + 1) // self.SPLITS]
            for i in range(self.SPLITS)
        ]

    @staticmethod
    def size(records):
        return sum(record_bytes(k, v) for k, v in records)

    def run(self, **kwargs):
        conf_args = {"num_reduces": self.REDUCES}
        combiner = kwargs.pop("combiner", None)
        conf_args.update(kwargs)
        job = MapReduceJob(
            wc_map,
            wc_reduce if conf_args["num_reduces"] else None,
            JobConf("wc", **conf_args),
            combiner=combiner,
        )
        return LocalEngine(default_splits=self.SPLITS).execute(job, self.DOCS)

    def spills(self, combine: bool):
        """What each map task spills, per split."""
        spills = []
        for docs in self.split_docs():
            emitted = [(word, 1) for _, text in docs for word in text.split()]
            if combine:
                counts = collections.Counter(word for word, _ in emitted)
                emitted = sorted(counts.items())
            spills.append(emitted)
        return spills

    def partitioned(self, spills):
        parts = [[] for _ in range(self.REDUCES)]
        for spill in spills:
            for key, value in spill:
                parts[hash_partitioner(key, self.REDUCES)].append((key, value))
        return parts

    def check(self, result, spills, ratio=1.0):
        counters = result.counters
        emitted = [(word, 1) for _, text in self.DOCS for word in text.split()]
        assert counters.map_input_bytes == self.size(self.DOCS)
        assert counters.map_output_bytes == self.size(emitted)
        assert counters.spilled_records == sum(len(spill) for spill in spills)
        assert counters.spilled_bytes == sum(int(self.size(s) * ratio) for s in spills)
        assert [m.output_bytes for m in result.work.maps] == [
            int(self.size(s) * ratio) for s in spills
        ]
        assert [m.input_bytes for m in result.work.maps] == [
            self.size(docs) for docs in self.split_docs()
        ]

    def check_reduce_side(self, result, spills, ratio=1.0):
        counters = result.counters
        per_reducer = [int(self.size(part) * ratio) for part in self.partitioned(spills)]
        assert counters.reduce_shuffle_bytes == per_reducer
        assert counters.shuffle_bytes == sum(counters.reduce_shuffle_bytes) == sum(per_reducer)
        assert [r.shuffle_bytes for r in result.work.reduces] == per_reducer
        assert counters.reduce_output_bytes == self.size(result.output)
        assert [r.output_bytes for r in result.work.reduces] == [
            self.size(out) for out in result.reducer_outputs
        ]

    def test_plain_job(self):
        result = self.run()
        spills = self.spills(combine=False)
        self.check(result, spills)
        self.check_reduce_side(result, spills)
        # without a combiner the spill *is* the map output
        assert result.counters.spilled_bytes == result.counters.map_output_bytes

    def test_combiner_job(self):
        result = self.run(combiner=wc_reduce)
        spills = self.spills(combine=True)
        self.check(result, spills)
        self.check_reduce_side(result, spills)
        assert result.counters.combine_output_records == result.counters.spilled_records
        assert result.counters.spilled_bytes < result.counters.map_output_bytes

    def test_map_only_job(self):
        result = self.run(num_reduces=0)
        spills = self.spills(combine=False)
        self.check(result, spills)
        counters = result.counters
        assert counters.shuffle_bytes == sum(counters.reduce_shuffle_bytes) == 0
        assert counters.reduce_output_bytes == self.size(result.output)
        assert counters.reduce_output_bytes == counters.map_output_bytes
        assert result.output == [record for spill in spills for record in spill]

    def test_compressed_job(self):
        ratio = 0.37
        result = self.run(compress_map_output=True, compression_ratio=ratio)
        spills = self.spills(combine=False)
        self.check(result, spills, ratio)
        self.check_reduce_side(result, spills, ratio)
        # compression shrinks the wire, not the logical map output or result
        assert result.counters.map_output_bytes == self.size(
            [record for spill in spills for record in spill]
        )
        codec = result.work.maps[0].cpu_seconds - self.run().work.maps[0].cpu_seconds
        assert codec == pytest.approx(self.size(spills[0]) * JobConf("x").compression_cost_per_byte)

    def test_compressed_combiner_job_on_a_cluster(self):
        cluster = make_cluster(2, block_size=256)
        job = MapReduceJob(
            wc_map, wc_reduce,
            JobConf("wc", num_reduces=self.REDUCES, compress_map_output=True),
            combiner=wc_reduce,
        )
        result = LocalEngine().execute(job, self.DOCS, cluster=cluster, input_name="docs")
        counters = result.counters
        assert len(result.work.maps) > 1
        assert counters.map_input_bytes == self.size(self.DOCS)
        assert sum(m.input_bytes for m in result.work.maps) == self.size(self.DOCS)
        assert counters.spilled_bytes == sum(m.output_bytes for m in result.work.maps)
        assert counters.shuffle_bytes == sum(counters.reduce_shuffle_bytes)
        assert counters.reduce_output_bytes == self.size(result.output)


class TestClusterIntegration:
    def test_timeline_attached_with_cluster(self):
        cluster = make_cluster(2, block_size=4096)
        result = LocalEngine().execute(
            wordcount_job(), [("d%d" % i, "lorem ipsum " * 50) for i in range(20)],
            cluster=cluster, input_name="docs",
        )
        assert result.timeline is not None
        assert result.timeline.duration_s > 0
        assert result.timeline.map_tasks == result.work.maps.__len__()

    def test_distributed_input_splits_follow_blocks(self):
        cluster = make_cluster(2, block_size=1024)
        records = [("k%05d" % i, "v" * 50) for i in range(200)]
        dist = DistributedInput.put(cluster.hdfs, "f", records)
        assert dist.num_splits == len(dist.hfile.blocks)
        reassembled = [r for i in range(dist.num_splits) for r in dist.split(i)]
        assert reassembled == records

    def test_split_bytes_total_matches_file(self):
        cluster = make_cluster(2, block_size=1024)
        records = [("k%05d" % i, "v" * 50) for i in range(100)]
        dist = DistributedInput.put(cluster.hdfs, "f", records)
        total = sum(dist.split_bytes(i) for i in range(dist.num_splits))
        assert total == dist.size_bytes == records_bytes(records)

    def test_auto_input_names_unique(self):
        cluster = make_cluster(2)
        engine = LocalEngine()
        engine.execute(wordcount_job(), [("a", "x")], cluster=cluster)
        engine.execute(wordcount_job(), [("a", "x")], cluster=cluster)  # must not clash

    def test_work_byte_accounting_consistent(self):
        result = LocalEngine().execute(wordcount_job(), [("d", "w " * 100)])
        total_map_out = sum(m.output_bytes for m in result.work.maps)
        total_shuffle = sum(r.shuffle_bytes for r in result.work.reduces)
        assert total_map_out == result.counters.spilled_bytes
        assert total_shuffle == result.counters.shuffle_bytes


class TestEngineProperties:
    @given(
        st.lists(
            st.tuples(st.text(max_size=5), st.integers(0, 100)), min_size=1, max_size=200
        ),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_and_sum_equals_counter(self, records, reduces):
        job = MapReduceJob(identity_map, wc_reduce, JobConf("sum", num_reduces=reduces))
        result = LocalEngine().execute(job, records)
        expected = collections.defaultdict(int)
        for key, value in records:
            expected[key] += value
        assert dict(result.output) == dict(expected)

    @given(st.integers(1, 16))
    @settings(max_examples=16, deadline=None)
    def test_output_independent_of_split_count(self, splits):
        docs = [("d%d" % i, "alpha beta gamma alpha") for i in range(12)]
        result = LocalEngine(default_splits=splits).execute(wordcount_job(), docs)
        assert dict(result.output) == {"alpha": 24, "beta": 12, "gamma": 12}
