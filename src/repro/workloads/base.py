"""Workload interface, metadata and registry.

Every workload couples three things:

1. **Metadata** (:class:`WorkloadInfo`): the paper's Table I row (input
   data size and retired-instruction count on the real cluster, source of
   the implementation) and Table II application scenarios.
2. **Real execution** (:meth:`DataAnalysisWorkload.run`): the algorithm
   implemented on the MapReduce/Hive substrate, returning outputs, merged
   Hadoop counters and (with a cluster) job timelines.  This is what the
   speedup (Figure 2) and disk-write (Figure 5) experiments measure.
3. **Micro-architectural profile** (:meth:`DataAnalysisWorkload.uarch_profile`):
   the declared TraceSpec characteristics — instruction mix, code
   footprint, working-set structure, branch regularity, kernel share —
   from which the core simulator produces the Figure 3–12 counters.  Each
   workload documents *why* its profile looks the way it does.

All eleven workloads run on the JVM inside the Hadoop/Mahout framework in
the paper, so they share framework-level profile defaults
(:data:`HADOOP_FRAMEWORK_PROFILE`): a multi-hundred-KB hot instruction
footprint (JIT-compiled framework + library code — the front-end pressure
of Figures 6–8), moderate branch regularity, and a few percent of
kernel-mode work from HDFS I/O.  Individual workloads override the parts
the algorithm changes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.cluster import HadoopCluster, JobTimeline
from repro.cluster.faults import FaultyCluster
from repro.mapreduce.counters import JobCounters
from repro.mapreduce.engine import JobResult, LocalEngine
from repro.uarch.trace import MemoryRegion, TraceSpec


@dataclass(frozen=True)
class WorkloadInfo:
    """Table I + Table II metadata for one workload."""

    name: str
    input_description: str          # Table I "Input Data"
    input_gb_low: int               # paper input size (GB)
    retired_instructions_1e9: int   # Table I "#Retired Instructions (Billions)"
    source: str                     # Table I "Source"
    scenarios: tuple[tuple[str, str], ...] = ()  # Table II (domain, scenario)
    table1_row: int = 0


@dataclass
class WorkloadRun:
    """Result of one real workload execution."""

    name: str
    output: Any
    counters: JobCounters
    job_results: list[JobResult] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def timelines(self) -> list[JobTimeline]:
        return [r.timeline for r in self.job_results if r.timeline is not None]

    @property
    def duration_s(self) -> float:
        """Total simulated wall time across the workload's jobs."""
        return sum(t.duration_s for t in self.timelines)

    def disk_writes_per_second(self) -> float:
        """Cluster-average disk write ops/s over the workload's jobs
        (the Figure 5 metric).  Requires a clustered run."""
        timelines = self.timelines
        if not timelines:
            raise ValueError("disk rates need a clustered run (pass cluster= to run())")
        # Aggregate: total writes across slaves / total duration.
        per_node: dict[str, float] = {}
        for timeline in timelines:
            for node_name, rate in timeline.disk_writes_per_second.items():
                per_node[node_name] = per_node.get(node_name, 0.0) + rate * timeline.duration_s
        total_time = self.duration_s
        if total_time <= 0:
            return 0.0
        return sum(per_node.values()) / len(per_node) / total_time


#: Framework-level profile shared by all Hadoop/Mahout workloads: the
#: JVM + Hadoop stack dominates the instruction footprint regardless of
#: the algorithm ("large binary size complicated by high-level language
#: and third-party libraries", §IV-C).
HADOOP_FRAMEWORK_PROFILE: dict[str, Any] = {
    # Hadoop + JVM hot code: several hundred KB (framework, serialization,
    # compression, JIT stubs) — drives the ~23 L1I MPKI the paper measures.
    "code_footprint": 640 * 1024,
    "hot_code_fraction": 0.25,
    "hot_code_weight": 0.92,
    "call_fraction": 0.16,
    "indirect_fraction": 0.04,     # virtual dispatch in JVM code
    "indirect_targets": 3,
    "mean_block_len": 7.0,
    # Framework loops are regular; data-dependent branches are the minority
    # ("simple algorithms chosen for big data", §IV-E).
    "loop_branch_fraction": 0.5,
    "mean_trip_count": 24.0,
    "branch_regularity": 0.97,
    "taken_bias": 0.55,
    # Managed-runtime ILP: short dependency chains through object headers.
    "dep_mean": 3.5,
    "dep_density": 0.7,
    "partial_register_ratio": 0.06,
    # HDFS I/O syscalls: ~4 % kernel instructions on average (Figure 4).
    "kernel_fraction": 0.04,
    "kernel_episode_len": 150,
    "kernel_code_footprint": 160 * 1024,
    "kernel_buffer_bytes": 1 << 20,
}


class DataAnalysisWorkload(ABC):
    """Base class: metadata + execution + micro-architectural profile."""

    info: WorkloadInfo

    # -- real execution -------------------------------------------------------

    @abstractmethod
    def run(
        self,
        scale: float = 1.0,
        cluster: HadoopCluster | FaultyCluster | None = None,
        engine: LocalEngine | None = None,
    ) -> WorkloadRun:
        """Execute the workload for real at *scale* (1.0 = default MB-scale
        input).  With a cluster, job timelines are attached; with a
        :class:`FaultyCluster` they carry resilience accounting too."""

    # -- micro-architecture ----------------------------------------------------

    @abstractmethod
    def uarch_profile(self) -> dict[str, Any]:
        """TraceSpec overrides for this workload (on top of the framework
        profile).  Every override carries a justification comment in the
        workload module."""

    def trace_spec(self, instructions: int, seed: int | None = None) -> TraceSpec:
        """Build the workload's TraceSpec at paper-scale footprints.

        A shared JVM allocation region (TLAB bump-pointer allocation over a
        reused young generation) is prepended to every workload's declared
        regions: Table I shows these jobs retire 20–30 instructions per
        input byte, so the bulk of their memory traffic is framework heap
        churn with strong locality, not the input scan itself.
        """
        params = dict(HADOOP_FRAMEWORK_PROFILE)
        params.update(self.uarch_profile())
        regions = params.get("regions", ())
        params["regions"] = (
            MemoryRegion("jvm-tlab", 4 << 20, 1.0, "sequential"),
        ) + tuple(regions)
        if seed is not None:
            params["seed"] = seed
        else:
            params.setdefault("seed", 20130730 + self.info.table1_row)
        return TraceSpec(name=self.info.name, instructions=instructions, **params)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _merge_results(name: str, results: list[JobResult], output, **details) -> WorkloadRun:
        counters = JobCounters()
        for result in results:
            counters.merge(result.counters)
        return WorkloadRun(
            name=name, output=output, counters=counters, job_results=list(results),
            details=details,
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, type[DataAnalysisWorkload]] = {}

#: Table I order.
WORKLOAD_NAMES = [
    "Sort",
    "WordCount",
    "Grep",
    "Naive Bayes",
    "SVM",
    "K-means",
    "Fuzzy K-means",
    "IBCF",
    "HMM",
    "PageRank",
    "Hive-bench",
]


def register(cls: type[DataAnalysisWorkload]) -> type[DataAnalysisWorkload]:
    """Class decorator: add a workload to the registry."""
    name = cls.info.name
    if name in _REGISTRY:
        raise ValueError(f"workload {name!r} already registered")
    _REGISTRY[name] = cls
    return cls


def workload(name: str) -> DataAnalysisWorkload:
    """Instantiate a registered workload by its Table I name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def all_workloads() -> list[DataAnalysisWorkload]:
    """All eleven workloads in Table I order."""
    _ensure_loaded()
    return [workload(name) for name in WORKLOAD_NAMES]


def _ensure_loaded() -> None:
    """Import the workload modules so their @register decorators run."""
    from repro.workloads import (  # noqa: F401
        fuzzy_kmeans,
        grep,
        hive_bench,
        hmm,
        ibcf,
        kmeans,
        naive_bayes,
        pagerank,
        sort,
        svm,
        wordcount,
    )
