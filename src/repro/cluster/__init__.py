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
* :mod:`repro.cluster.chaos` — the chaos table: one row per fault regime
  (mixed fail-stop faults, gray failures, a master crash, a rack outage,
  a limping node, workflow faults), each replaying a real workload, mix
  or DAG under seeded plans against its fault-free baseline
  (:func:`run_chaos`);
* :mod:`repro.cluster.scheduler` — multi-tenant job scheduling: pluggable
  FIFO / Fair (pools, delay scheduling, preemption) / Capacity schedulers
  and the :class:`MultiJobCluster` that interleaves many jobs over the
  shared slot/disk/network/HDFS models;
* :mod:`repro.cluster.tenancy` — trace-driven workload mixes: seeded
  Poisson arrivals over a heavy-tailed job-size distribution, named
  users/pools and fairness metrics;
* :mod:`repro.cluster.eventbus` — the deterministic typed event bus the
  workflow orchestrator publishes to, with a replayable delivery log,
  and the ``check_event`` rules the multi-job dispatch loop's event log
  applies too;
* :mod:`repro.cluster.workflow` — event-driven DAG workflows over the
  multi-job cluster: stages with data dependencies (HDFS paths),
  bounded stage retries, lineage-based recomputation after total
  replica loss, downstream-cone failure propagation, and journal
  checkpoints a restarted JobTracker resumes from.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "Disk": "disk",
    "Network": "network",
    "Nic": "network",
    "Node": "node",
    "Topology": "topology",
    "Hdfs": "hdfs",
    "HdfsFile": "hdfs",
    "Block": "hdfs",
    "ChecksumError": "hdfs",
    "DataBlockScanner": "hdfs",
    "ClusterCheckpoint": "cluster",
    "HadoopCluster": "cluster",
    "JobTimeline": "cluster",
    "JobWork": "cluster",
    "MapWork": "cluster",
    "NodeCheckpoint": "cluster",
    "ReduceWork": "cluster",
    "StaleClusterError": "cluster",
    "make_cluster": "cluster",
    "EditLog": "journal",
    "EditOp": "journal",
    "FsImage": "journal",
    "JobHistoryEvent": "journal",
    "JobHistoryJournal": "journal",
    "NameNodeJournal": "journal",
    "replay": "journal",
    "restore_into": "journal",
    "snapshot": "journal",
    "AttemptState": "attempts",
    "CommitFence": "attempts",
    "DataLossError": "attempts",
    "JobFailedError": "attempts",
    "NodeBlacklist": "attempts",
    "NodeGraylist": "attempts",
    "RetryPolicy": "attempts",
    "TaskAttempt": "attempts",
    "TaskAttempts": "attempts",
    "FaultPlan": "faults",
    "FaultyCluster": "faults",
    "FaultCounters": "faults",
    "FaultyTimeline": "faults",
    "ChaosResult": "chaos",
    "chaos_plan": "chaos",
    "integrity_chaos_plan": "chaos",
    "run_chaos": "chaos",
    "Scheduler": "scheduler",
    "FifoScheduler": "scheduler",
    "FairScheduler": "scheduler",
    "CapacityScheduler": "scheduler",
    "PoolConfig": "scheduler",
    "QueueConfig": "scheduler",
    "jain_index": "scheduler",
    "make_scheduler": "scheduler",
    "JobReport": "scheduler",
    "MixFaultAccounting": "scheduler",
    "MixOutcome": "scheduler",
    "MultiJobCluster": "scheduler",
    "TraceJob": "tenancy",
    "WorkloadTrace": "tenancy",
    "generate_trace": "tenancy",
    "default_pools": "tenancy",
    "default_queues": "tenancy",
    "TenantJobReport": "tenancy",
    "MixResult": "tenancy",
    "run_mix": "tenancy",
    "solo_run": "tenancy",
    "Event": "eventbus",
    "EventBus": "eventbus",
    "EVENT_TYPES": "eventbus",
    "replay_events": "eventbus:replay",
    "Stage": "workflow",
    "StagePolicy": "workflow",
    "StageReport": "workflow",
    "Workflow": "workflow",
    "WorkflowAccounting": "workflow",
    "WorkflowCheckpoint": "workflow",
    "WorkflowFaultPlan": "workflow",
    "WorkflowResult": "workflow",
    "WorkflowRunner": "workflow",
    "WorkflowJournal": "journal",
    "WorkflowStageRecord": "journal",
    "build_workflow": "workflow",
    "workflow_from_chain": "workflow",
    "hive_chain_workflow": "workflow",
    "kmeans_workflow": "workflow",
    "pagerank_workflow": "workflow",
    "diamond_workflow": "workflow",
    "WORKFLOW_DAGS": "workflow",
})
