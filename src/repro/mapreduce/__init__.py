"""Hadoop-like MapReduce engine.

This is the substrate the paper's eleven workloads run on.  Jobs are real:
the engine executes the user's map / combine / reduce functions over real
records, with hash or range partitioning, per-partition sorting and
merging, and full Hadoop-style counters.  From the measured record/byte
counts it derives the :class:`~repro.cluster.cluster.JobWork` that the
cluster timing model schedules, so functional results and timing both come
from the same execution.

Typical use::

    from repro.mapreduce import JobConf, MapReduceJob, LocalEngine

    def mapper(key, value):
        for word in value.split():
            yield word, 1

    def reducer(key, values):
        yield key, sum(values)

    job = MapReduceJob(mapper, reducer, JobConf(name="wordcount", num_reduces=4))
    result = LocalEngine().execute(job, [("doc0", "a b a")])
    dict(result.output)  # {'a': 2, 'b': 1}
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "JobConf": "job",
    "MapReduceJob": "job",
    "JobCounters": "counters",
    "hash_partitioner": "partitioner",
    "make_range_partitioner": "partitioner",
    "DistributedInput": "io",
    "record_bytes": "io",
    "JobResult": "engine",
    "LocalEngine": "engine",
})
