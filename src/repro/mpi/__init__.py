"""MPI-style programming model over the cluster substrate.

The paper's §V: "we also notice the significant effects of different
programming models, e.g., MPI vs. MapReduce, on the application
behaviors ... so we also include the implementation of DCBench with
different programming models on our homepage."

This package is that second programming model: a bulk-synchronous
message-passing runtime (:mod:`repro.mpi.runtime`) with tree-structured
collectives timed on the same NIC/switch models the Hadoop shuffle uses,
plus MPI implementations of three DCBench workloads
(:mod:`repro.mpi.programs`) that produce results identical to their
MapReduce twins — which makes the programming-model comparison
(`examples/programming_models.py`) apples-to-apples: same algorithm, same
data, same network, different execution model (in-memory iteration versus
per-job HDFS materialisation).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "MpiRuntime": "runtime",
    "MpiStats": "runtime",
    "mpi_kmeans": "programs",
    "mpi_pagerank": "programs",
    "mpi_wordcount": "programs",
})
