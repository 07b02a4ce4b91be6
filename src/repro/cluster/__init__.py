"""Data-center cluster model.

The paper runs its workloads on a 5-node Hadoop cluster (one master, four
slaves; two Xeon E5645 per node, 1 GbE interconnect, 24 map / 12 reduce
slots per slave).  This package models that substrate at the level the
paper measures it:

* :mod:`repro.cluster.disk` — disk devices with bandwidth and per-operation
  accounting into the simulated ``/proc`` (Figure 5's disk writes/s);
* :mod:`repro.cluster.network` — 1 GbE NICs with serialised transfers
  (optionally two-tier: per-rack ToR switches over an oversubscribed core);
* :mod:`repro.cluster.topology` — the failure-domain map (nodes → racks)
  behind rack-aware placement, rack-local scheduling and rack-level faults;
* :mod:`repro.cluster.node` — a node bundling slots, disk, NIC;
* :mod:`repro.cluster.hdfs` — block placement with replication, locality
  queries, datanode loss and background re-replication, plus end-to-end
  CRC32 checksums, bad-block reporting and the DataBlockScanner scrubber;
* :mod:`repro.cluster.cluster` — the cluster itself plus the discrete-event
  timeline executor for MapReduce jobs (map waves, shuffle, reduce);
* :mod:`repro.cluster.attempts` — the task-attempt state machine
  (retries, backoff, blacklisting, typed job aborts);
* :mod:`repro.cluster.journal` — the control plane's durable state: the
  namenode's edit log + fsimage checkpoints (``replay`` rebuilds the
  namespace exactly) and the jobtracker's job-history journal;
* :mod:`repro.cluster.faults` — the resilience scheduler: task/node/
  shuffle/replica/master fault injection with Hadoop-1.x countermeasures;
* :mod:`repro.cluster.chaos` — seeded chaos schedules over real workload
  runs, asserting outputs survive every fault class (including losing
  the master mid-job under both recovery modes);
* :mod:`repro.cluster.scheduler` — multi-tenant job scheduling: pluggable
  FIFO / Fair (pools, delay scheduling, preemption) / Capacity schedulers
  and the :class:`MultiJobCluster` that interleaves many jobs over the
  shared slot/disk/network/HDFS models;
* :mod:`repro.cluster.tenancy` — trace-driven workload mixes: seeded
  Poisson arrivals over a heavy-tailed job-size distribution, named
  users/pools, fairness metrics, and shared-LLC co-location reports;
* :mod:`repro.cluster.serve` — open-loop service traffic: seeded
  Poisson/diurnal/bursty arrivals over a server bank with graceful
  degradation (admission control, load shedding, deadlines, bounded
  retries) and p50/p95/p99/p999 latency reporting;
* :mod:`repro.cluster.eventbus` — the deterministic typed event bus the
  multi-job dispatch loop and the workflow orchestrator publish to,
  with a replayable delivery log;
* :mod:`repro.cluster.workflow` — event-driven DAG workflows over the
  multi-job cluster: stages with data dependencies (HDFS paths),
  bounded stage retries, lineage-based recomputation after total
  replica loss, downstream-cone failure propagation, and journal
  checkpoints a restarted JobTracker resumes from.
"""

from repro.cluster.disk import Disk
from repro.cluster.network import Network, Nic
from repro.cluster.topology import Topology
from repro.cluster.node import Node
from repro.cluster.hdfs import (
    Block,
    ChecksumError,
    DataBlockScanner,
    Hdfs,
    HdfsFile,
)
from repro.cluster.cluster import (
    ClusterCheckpoint,
    HadoopCluster,
    JobTimeline,
    JobWork,
    MapWork,
    NodeCheckpoint,
    ReduceWork,
    StaleClusterError,
    make_cluster,
)
from repro.cluster.journal import (
    EditLog,
    EditOp,
    FsImage,
    JobHistoryEvent,
    JobHistoryJournal,
    NameNodeJournal,
    replay,
    restore_into,
    snapshot,
)
from repro.cluster.attempts import (
    AttemptState,
    CommitFence,
    DataLossError,
    JobFailedError,
    NodeBlacklist,
    NodeGraylist,
    RetryPolicy,
    TaskAttempt,
    TaskAttempts,
)
from repro.cluster.faults import FaultPlan, FaultyCluster, FaultyTimeline
from repro.cluster.chaos import (
    ChaosResult,
    FailSlowChaosResult,
    IntegrityChaosResult,
    MasterCrashResult,
    OverloadChaosResult,
    RackChaosResult,
    chaos_plan,
    integrity_chaos_plan,
    run_chaos,
    run_fail_slow_chaos,
    run_integrity_chaos,
    run_master_crash_chaos,
    run_overload_chaos,
    run_rack_chaos,
)
from repro.cluster.serve import (
    ArrivalProcess,
    RequestClass,
    RequestRecord,
    ServePolicy,
    ServeReport,
    default_request_classes,
    percentile,
    request_classes_from_trace,
    run_service,
)
from repro.cluster.scheduler import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
    JobReport,
    MixFaultAccounting,
    MixOutcome,
    MultiJobCluster,
    PoolConfig,
    QueueConfig,
    Scheduler,
    jain_index,
    make_scheduler,
)
from repro.cluster.eventbus import (
    EVENT_TYPES,
    Event,
    EventBus,
)
from repro.cluster.eventbus import replay as replay_events
from repro.cluster.workflow import (
    Stage,
    StagePolicy,
    StageReport,
    Workflow,
    WorkflowAccounting,
    WorkflowCheckpoint,
    WorkflowFaultPlan,
    WorkflowResult,
    WorkflowRunner,
    build_workflow,
    diamond_workflow,
    hive_chain_workflow,
    kmeans_workflow,
    pagerank_workflow,
    workflow_from_chain,
    WORKFLOW_DAGS,
)
from repro.cluster.journal import WorkflowJournal, WorkflowStageRecord
from repro.cluster.chaos import WorkflowChaosResult, run_workflow_chaos
from repro.cluster.tenancy import (
    ColocationReport,
    MixResult,
    TenantJobReport,
    TraceJob,
    WorkloadTrace,
    characterize_colocation,
    default_pools,
    default_queues,
    generate_trace,
    run_mix,
    solo_run,
)

__all__ = [
    "Disk",
    "Network",
    "Nic",
    "Node",
    "Topology",
    "Hdfs",
    "HdfsFile",
    "Block",
    "ChecksumError",
    "DataBlockScanner",
    "ClusterCheckpoint",
    "HadoopCluster",
    "JobTimeline",
    "JobWork",
    "MapWork",
    "NodeCheckpoint",
    "ReduceWork",
    "StaleClusterError",
    "make_cluster",
    "EditLog",
    "EditOp",
    "FsImage",
    "JobHistoryEvent",
    "JobHistoryJournal",
    "NameNodeJournal",
    "replay",
    "restore_into",
    "snapshot",
    "AttemptState",
    "CommitFence",
    "DataLossError",
    "JobFailedError",
    "NodeBlacklist",
    "NodeGraylist",
    "RetryPolicy",
    "TaskAttempt",
    "TaskAttempts",
    "FaultPlan",
    "FaultyCluster",
    "FaultyTimeline",
    "ChaosResult",
    "FailSlowChaosResult",
    "IntegrityChaosResult",
    "MasterCrashResult",
    "OverloadChaosResult",
    "RackChaosResult",
    "chaos_plan",
    "integrity_chaos_plan",
    "run_chaos",
    "run_fail_slow_chaos",
    "run_integrity_chaos",
    "run_master_crash_chaos",
    "run_overload_chaos",
    "run_rack_chaos",
    "ArrivalProcess",
    "RequestClass",
    "RequestRecord",
    "ServePolicy",
    "ServeReport",
    "default_request_classes",
    "percentile",
    "request_classes_from_trace",
    "run_service",
    "Scheduler",
    "FifoScheduler",
    "FairScheduler",
    "CapacityScheduler",
    "PoolConfig",
    "QueueConfig",
    "jain_index",
    "make_scheduler",
    "JobReport",
    "MixFaultAccounting",
    "MixOutcome",
    "MultiJobCluster",
    "TraceJob",
    "WorkloadTrace",
    "generate_trace",
    "default_pools",
    "default_queues",
    "TenantJobReport",
    "MixResult",
    "run_mix",
    "solo_run",
    "ColocationReport",
    "characterize_colocation",
    "Event",
    "EventBus",
    "EVENT_TYPES",
    "replay_events",
    "Stage",
    "StagePolicy",
    "StageReport",
    "Workflow",
    "WorkflowAccounting",
    "WorkflowCheckpoint",
    "WorkflowFaultPlan",
    "WorkflowResult",
    "WorkflowRunner",
    "WorkflowJournal",
    "WorkflowStageRecord",
    "WorkflowChaosResult",
    "run_workflow_chaos",
    "build_workflow",
    "workflow_from_chain",
    "hive_chain_workflow",
    "kmeans_workflow",
    "pagerank_workflow",
    "diamond_workflow",
    "WORKFLOW_DAGS",
]
