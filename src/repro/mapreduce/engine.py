"""The local MapReduce engine: functional execution + work derivation.

``LocalEngine.execute`` runs a :class:`~repro.mapreduce.job.MapReduceJob`
over real records through the full Hadoop pipeline —

    map → combine → partition → sort → shuffle → merge → reduce

— collecting :class:`~repro.mapreduce.counters.JobCounters` along the way,
and (when given a cluster) derives the per-task
:class:`~repro.cluster.cluster.JobWork` and schedules it for a timeline.
Functional output and timing therefore describe the *same* execution.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from repro.cluster.cluster import HadoopCluster, JobTimeline, JobWork, MapWork, ReduceWork
from repro.cluster.faults import FaultyCluster
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.io import (
    _SIZERS,
    DistributedInput,
    _chain_bytes,
    even_split_ranges,
    record_sizes,
    records_bytes,
    split_sums,
)
from repro.mapreduce.job import MapReduceJob

#: The sort and grouping key of a ``(key, value)`` record.
_record_key = operator.itemgetter(0)


@dataclass
class JobResult:
    """Everything one job execution produced.

    When the job was scheduled through a :class:`FaultyCluster`, the
    timeline is a :class:`FaultyTimeline` carrying the resilience
    accounting alongside the usual timing fields.
    """

    job_name: str
    output: list[tuple[object, object]]
    reducer_outputs: list[list[tuple[object, object]]]
    counters: JobCounters
    work: JobWork
    timeline: JobTimeline | None = None

    def output_dict(self) -> dict:
        return dict(self.output)


@dataclass(frozen=True)
class EngineCheckpoint:
    """Restorable snapshot of a :class:`LocalEngine`'s mutable state."""

    default_splits: int
    next_auto_input: int


class LocalEngine:
    """Executes jobs in-process, one split at a time."""

    def __init__(self, default_splits: int = 8) -> None:
        if default_splits <= 0:
            raise ValueError("default_splits must be positive")
        self.default_splits = default_splits
        self._next_auto_input = 0

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Snapshot the engine so an experiment can resume deterministically.

        The engine's only cross-job state is the auto-input name counter;
        restoring it makes re-executed jobs reuse the same HDFS input
        names (paired with :meth:`HadoopCluster.checkpoint
        <repro.cluster.cluster.HadoopCluster.checkpoint>`, which restores
        the files those names refer to).
        """
        return EngineCheckpoint(
            default_splits=self.default_splits,
            next_auto_input=self._next_auto_input,
        )

    def restore(self, cp: EngineCheckpoint) -> None:
        self.default_splits = cp.default_splits
        self._next_auto_input = cp.next_auto_input

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        job: MapReduceJob,
        inputs,
        cluster: HadoopCluster | FaultyCluster | None = None,
        input_name: str | None = None,
    ) -> JobResult:
        """Run *job* over *inputs*.

        ``inputs`` is a :class:`DistributedInput` or a plain sequence of
        ``(key, value)`` records.  With a cluster, plain records are first
        put into its HDFS (under ``input_name`` or an auto name) so map
        splits get block placement; the returned result then carries the
        scheduled :class:`JobTimeline`.  A :class:`FaultyCluster` works in
        place of a plain cluster: the functional output is unchanged while
        the timeline reflects the injected faults (and may raise
        :class:`~repro.cluster.attempts.JobFailedError` when a task
        exhausts its attempts).
        """
        dist = self._as_distributed(inputs, cluster, input_name)
        counters = JobCounters()
        num_reduces = job.conf.num_reduces
        # mapred.compress.map.output: intermediate bytes shrink on the
        # wire/disk; compression work is charged to the CPU cost model.
        conf = job.conf
        wire_ratio = conf.compression_ratio if conf.compress_map_output else 1.0
        codec_cost = conf.compression_cost_per_byte if conf.compress_map_output else 0.0

        # Byte accounting is single-pass: each record is sized once, when
        # it comes into being (input at put time, map output per split,
        # reduce output per partition), and every counter and work figure
        # below is a sum over those sizes.

        # ---- map phase (+ combine + partition) ----
        partitioner = job.partitioner
        partitions: list[list[tuple[object, object]]] = [[] for _ in range(num_reduces)]
        partition_bytes = [0] * num_reduces
        map_only_output: list[tuple[object, object]] = []
        map_works: list[MapWork] = []
        for split_index in range(dist.num_splits):
            records = dist.split(split_index)
            counters.map_input_records += len(records)
            counters.map_input_bytes += dist.split_record_bytes(split_index)
            out, out_sizes = self._run_map_split(job, records, counters)
            split_output_bytes = sum(out_sizes)
            if num_reduces == 0:
                map_only_output.extend(out)
                counters.reduce_output_bytes += split_output_bytes
            else:
                for record, size in zip(out, out_sizes):
                    index = partitioner(record[0], num_reduces)
                    partitions[index].append(record)
                    partition_bytes[index] += size
            wire_bytes = int(split_output_bytes * wire_ratio)
            counters.spilled_records += len(out)
            counters.spilled_bytes += wire_bytes
            input_bytes = dist.split_bytes(split_index)
            map_works.append(
                MapWork(
                    input_bytes=input_bytes,
                    cpu_seconds=(
                        len(records) * conf.map_cost_per_record
                        + input_bytes * conf.map_cost_per_byte
                        + split_output_bytes * codec_cost
                    ),
                    output_bytes=wire_bytes,
                    preferred_nodes=dist.split_locations(split_index),
                    split=dist.split_ref(split_index),
                )
            )

        # ---- reduce phase ----
        reducer_outputs: list[list[tuple[object, object]]] = []
        reduce_works: list[ReduceWork] = []
        if num_reduces:
            for partition, raw_bytes in zip(partitions, partition_bytes):
                shuffle_bytes = int(raw_bytes * wire_ratio)
                counters.shuffle_bytes += shuffle_bytes
                counters.reduce_shuffle_bytes.append(shuffle_bytes)
                out = self._run_reduce_partition(job, partition, counters)
                out_bytes = records_bytes(out)
                counters.reduce_output_bytes += out_bytes
                reducer_outputs.append(out)
                reduce_works.append(
                    ReduceWork(
                        shuffle_bytes=shuffle_bytes,
                        cpu_seconds=(
                            len(partition) * conf.reduce_cost_per_record
                            + raw_bytes * conf.reduce_cost_per_byte
                            + raw_bytes * codec_cost  # decompression
                        ),
                        output_bytes=out_bytes,
                    )
                )
            output = [record for part in reducer_outputs for record in part]
        else:
            output = map_only_output

        work = JobWork(name=job.conf.name, maps=map_works, reduces=reduce_works)
        timeline = cluster.run_job(work) if cluster is not None else None
        return JobResult(
            job_name=job.conf.name,
            output=output,
            reducer_outputs=reducer_outputs,
            counters=counters,
            work=work,
            timeline=timeline,
        )

    # -- internals ------------------------------------------------------------

    def _as_distributed(self, inputs, cluster, input_name) -> DistributedInput:
        if isinstance(inputs, DistributedInput):
            return inputs
        records = list(inputs)
        if cluster is not None:
            if input_name is None:
                input_name = f"auto-input-{self._next_auto_input}"
                self._next_auto_input += 1
            return DistributedInput.put(cluster.hdfs, input_name, records)
        return _LocalChunks(records, self.default_splits)

    def _run_map_split(self, job, records, counters: JobCounters):
        """Map (+ combine) one split: ``(records out, their sizes)``."""
        if job.combiner is not None:
            combined = self._combine_on_emit(job, records, counters)
            if combined is not None:
                return combined, record_sizes(combined)
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

    @staticmethod
    def _combine_on_emit(job, records, counters: JobCounters):
        """Map and combine one split without materialising its records.

        Each emitted value goes straight into its key's list, and the
        record is sized as it is emitted (by its own key: ``1`` and
        ``True`` share a group but not a size).  Only the distinct keys
        are sorted.  The combiner then sees exactly the groups that
        ``sorted`` + ``groupby`` over the whole split would give: the
        first-emitted key object, its values in emission order.

        Returns ``None``, having touched no counter, where that could
        differ: a failure of any kind (an unhashable key, a value that
        cannot be sized, the mapper's own error) and, for a sorted job,
        keys with no strict order (NaN, unorderable or mutually
        incomparable keys).  The caller then re-runs the split's map on
        the record-list path, which raises or groups as it always has.
        Map functions are re-runnable by contract, as Hadoop re-executes
        map attempts.
        """
        mapper = job.mapper
        sort_keys = job.conf.sort_keys
        groups: dict[object, list] = {}
        get = groups.get
        sizer = _SIZERS.get
        key_value_bytes = 0
        try:
            for key, value in records:
                for out_key, out_value in mapper(key, value):
                    values = get(out_key)
                    if values is None:
                        groups[out_key] = [out_value]
                    else:
                        values.append(out_value)
                    key_value_bytes += (
                        len(out_key) if (kind := type(out_key)) is str and out_key.isascii()
                        else 8 if kind is int or kind is float
                        else sizer(kind, _chain_bytes)(out_key)
                    ) + (
                        len(out_value) if (kind := type(out_value)) is str and out_value.isascii()
                        else 8 if kind is int or kind is float
                        else sizer(kind, _chain_bytes)(out_value)
                    )
            emitted = sum(map(len, groups.values()))
            keys = sorted(groups) if sort_keys else groups
            # A split of one distinct key still compares it with itself
            # when it holds two records: ``None < None`` raises there.
            if sort_keys and emitted > 1 and (
                keys[0] < keys[0] or not all(map(operator.lt, keys, keys[1:]))
            ):
                return None
        except Exception:
            return None
        combiner = job.combiner
        combined: list[tuple[object, object]] = []
        for key in keys:
            combined.extend(combiner(key, groups[key]))
        counters.map_output_records += emitted
        counters.map_output_bytes += 4 * emitted + key_value_bytes
        counters.combine_input_records += emitted
        counters.combine_output_records += len(combined)
        return combined

    def _combine(self, job, records, counters: JobCounters):
        counters.combine_input_records += len(records)
        grouped = self._group(records, job.conf.sort_keys)
        combined: list[tuple[object, object]] = []
        for key, values in grouped:
            combined.extend(job.combiner(key, values))
        counters.combine_output_records += len(combined)
        return combined

    def _run_reduce_partition(self, job, partition, counters: JobCounters):
        counters.reduce_input_records += len(partition)
        grouped = self._group(partition, job.conf.sort_keys)
        out: list[tuple[object, object]] = []
        for key, values in grouped:
            counters.reduce_input_groups += 1
            out.extend(job.reducer(key, values))
        counters.reduce_output_records += len(out)
        return out

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


class _LocalChunks:
    """DistributedInput-shaped wrapper for engine runs without a cluster."""

    def __init__(self, records, num_splits: int) -> None:
        self.records = records
        self.num_splits = max(1, min(num_splits, len(records)) if records else 1)
        self._split_ranges = even_split_ranges(len(records), self.num_splits)
        self._split_bytes = split_sums(record_sizes(records), self._split_ranges)

    def split(self, index: int):
        start, end = self._split_ranges[index]
        return self.records[start:end]

    def split_bytes(self, index: int) -> int:
        return self._split_bytes[index]

    # No blocks: a local split is read as exactly its records.
    split_record_bytes = split_bytes

    def split_locations(self, index: int) -> tuple[str, ...]:
        return ()

    def split_ref(self, index: int) -> tuple[str, int] | None:
        return None
