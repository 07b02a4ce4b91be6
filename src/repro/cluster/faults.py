"""The resilience subsystem: faults, retries, crashes, and recovery.

Hadoop 1.x survives a whole taxonomy of everyday pathologies, and the
paper's runtimes (Figure 2 speedups, Figure 5 disk writes) are measured on
a scheduler that is permanently ready for them:

* **task failures** — an attempt dies (bad disk sector, JVM OOM); the
  jobtracker re-executes it with exponential backoff, preferring a node
  that has not yet failed this task, up to ``mapred.map.max.attempts`` /
  ``mapred.reduce.max.attempts`` failures before the job aborts;
* **stragglers** — a degraded node runs tasks far slower than its
  siblings; *speculative execution* launches backup attempts elsewhere
  (for maps and reduces) and takes whichever finishes first;
* **node loss** — a tasktracker stops heartbeating; after
  ``mapred.tasktracker.expiry.interval`` it is declared dead, its running
  attempts are killed and rescheduled, and its *completed map outputs*
  are re-executed (they lived on the dead node's local disks);
* **shuffle-fetch failures** — a reducer's copy of one map output fails;
  it retries with backoff, and after enough failures reports the output
  to the jobtracker, which re-runs the map;
* **repeatedly-failing nodes** are blacklisted for the job
  (``mapred.max.tracker.failures``);
* **HDFS replica loss** — splits on a dead datanode are re-read from
  surviving replicas while the namenode re-replicates in the background
  (or the job dies with :class:`~repro.cluster.attempts.DataLossError`
  when every replica is gone);
* **gray failures** — data that rots *silently*: at-rest bit flips and
  in-flight transfer corruption are caught by HDFS's end-to-end
  checksums (:class:`~repro.cluster.hdfs.ChecksumError`); the reader
  fails over to another replica and reports the bad block, the namenode
  drops the rotten copy (never the last one) and re-replicates from a
  good replica, and a background
  :class:`~repro.cluster.hdfs.DataBlockScanner` scrubs replicas nobody
  read.  Flaky links retransmit lost segments with TCP-like cost, and
  timed *network partitions* isolate a tasktracker without killing it:
  its tasks are rescheduled after the heartbeat timeout, and when the
  node rejoins, its zombie attempts are fenced at commit time
  (``canCommit`` — :class:`~repro.cluster.attempts.CommitFence`) and
  the flapping node is graylisted for a window instead of being
  blacklisted outright;
* **master loss** — the co-located JobTracker/NameNode crashes; after
  ``master_downtime_s`` of control-plane downtime the master restarts and
  either re-submits in-flight jobs from scratch (stock 1.x,
  ``mapred.jobtracker.restart.recover=false``) or *resumes* them from the
  persisted job-history journal (``recover=true``): completed map outputs
  on live tasktrackers are reused and only in-flight attempts are
  rescheduled.  The namespace itself is reconstructable from the
  NameNode's edit log (:mod:`repro.cluster.journal`).

:class:`FaultPlan` describes a deterministic (seeded) fault schedule for
one job; :class:`FaultyCluster` wraps a
:class:`~repro.cluster.cluster.HadoopCluster` and schedules jobs through
the full attempt state machine in :mod:`repro.cluster.attempts`.  With an
empty plan the scheduler reproduces the stock cluster's timeline exactly,
so the paper's fault-free figures are untouched.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, fields, replace

from repro.cluster.journal import JobHistoryJournal
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
from repro.cluster.hdfs import DataBlockScanner
from repro.cluster.cluster import (
    HadoopCluster,
    JobTimeline,
    JobWork,
    MapWork,
    TASK_LOG_BYTES,
)
from repro.cluster.node import Node


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for one job execution.

    Attributes:
        map_failures: indices of map tasks whose first attempt fails at
            ``failure_point`` of their runtime.
        reduce_failures: like ``map_failures`` for reduce tasks.
        map_failure_counts: ``(map_index, n)`` pairs — the task's first
            *n* attempts all fail (set ``n >= max_attempts`` to exhaust
            the task and abort the job).
        reduce_failure_counts: like ``map_failure_counts`` for reduces.
        map_failure_rate: probability (seeded by ``seed``) that any given
            map attempt fails — Chen et al.'s "permanently degraded"
            production regime.
        reduce_failure_rate: like ``map_failure_rate`` for reduce attempts.
        straggler_nodes: node names running at ``straggler_factor`` speed.
        failure_point: fraction of an attempt's runtime spent before its
            failure is detected.
        straggler_factor: slowdown multiplier for straggler nodes.
        speculative_execution: launch backup attempts for straggler tasks
            (``mapred.map.tasks.speculative.execution`` and its reduce
            twin).
        node_crashes: ``(node_name, crash_time_s)`` pairs — the node stops
            heartbeating at ``crash_time_s`` after the first job's start
            and stays dead for the cluster's lifetime.
        master_crash_time: simulated time (relative to the first job's
            start, like ``node_crashes``) at which the co-located
            JobTracker/NameNode crashes; ``None`` disables master loss.
        master_recovery: what the restarted JobTracker does with the job
            that was in flight — ``"restart"`` re-submits it from scratch
            (stock 1.x) or ``"resume"`` recovers it from the job-history
            journal (``mapred.jobtracker.restart.recover=true``).
        master_downtime_s: control-plane downtime — no task is scheduled
            between the crash and the master's return.
        shuffle_failures: ``(reduce_index, map_index, times)`` triples —
            that reducer's fetch of that map output fails ``times``
            consecutive times before succeeding (or escalating to a map
            re-run once ``max_fetch_retries`` is reached).
        lost_replicas: ``(map_index, node_name)`` pairs — that input
            split's replica on that node is gone (latent disk corruption).
        corruption_rate: probability that any given HDFS block replica
            has silently rotted at rest before the job reads it (sampled
            once per replica from a stream independent of the
            task-failure rng, so adding corruption never perturbs the
            other fault draws).  Injection is bounded: a block's last
            good replica is never corrupted, so a checksum-verifying
            reader always completes.
        transfer_corruption_rate: probability that one network transfer
            of split data flips bits in flight; the receiver's checksum
            catches it and the transfer is re-requested.
        corrupt_replicas: explicit ``(map_index, node_name)`` pairs —
            that input split's replica on that node is rotten at rest.
        link_loss_rate: segment-drop probability applied to every
            network link (TCP-like retransmits charged to NICs/fabric).
        lossy_links: ``(src_node, dst_node, rate)`` per-link overrides.
        partitions: ``(node_name, start_s, duration_s)`` triples — the
            node is unreachable in that window (relative to the first
            job's start, like ``node_crashes``) but *keeps running*; it
            rejoins afterwards and sits out
            ``policy.graylist_window_s`` on the graylist.
        scrub: run a full DataBlockScanner sweep after each job, so
            at-rest corruption is caught even on replicas no task read.
        limping_nodes: ``(node_name, factor)`` pairs — fail-slow CPUs:
            the node's compute runs ``factor`` times slower (thermal
            throttling, a dying VRM).  Unlike ``straggler_nodes`` (an
            attempt-level stretch applied only by the single-job fault
            scheduler), limp factors live on the device models, so every
            charge — map, reduce, shuffle, replication — sees them, and
            the multi-job mix executor honours them too.
        limping_disks: ``(node_name, factor)`` pairs — that node's disk
            serves every request ``factor`` times slower (sector
            remapping, firmware retry storms).
        limping_nics: ``(node_name, factor)`` pairs — that node's NIC
            runs at ``1/factor`` of its negotiated bandwidth.
        fail_slow_rate: probability (from a dedicated seeded stream, so
            enabling it never perturbs the other fault draws) that any
            given node resource — CPU, disk or NIC, sampled
            independently — limps, with a factor drawn uniformly from
            ``fail_slow_factor_range``.
        fail_slow_factor_range: ``(lo, hi)`` bounds for rate-drawn limp
            factors, ``1 <= lo <= hi``.
        rack_outages: ``(rack_name, time_s)`` pairs — a rack power drop:
            every node in the rack crashes at once (correlated
            fail-stop).  Needs a multi-rack topology on the cluster.
        tor_failures: ``(rack_name, start_s, duration_s)`` triples — the
            rack's top-of-rack switch dies for the window: every member
            becomes a timed network partition (the nodes keep running
            behind the dark switch and rejoin when it is replaced).
        correlated_disk_failures: ``(rack_name, count)`` pairs — a bad
            batch of disks in one rack: ``count`` replicas on the rack's
            nodes rot at rest, chosen by a dedicated seeded stream
            (``rackdisk:<seed>``).  Injection is bounded like
            ``corruption_rate``: a block's last good replica is never
            corrupted.
        seed: seed for the rate-based injections.
        policy: the :class:`~repro.cluster.attempts.RetryPolicy` knobs.
    """

    map_failures: tuple[int, ...] = ()
    reduce_failures: tuple[int, ...] = ()
    map_failure_counts: tuple[tuple[int, int], ...] = ()
    reduce_failure_counts: tuple[tuple[int, int], ...] = ()
    map_failure_rate: float = 0.0
    reduce_failure_rate: float = 0.0
    straggler_nodes: tuple[str, ...] = ()
    failure_point: float = 0.5
    straggler_factor: float = 4.0
    speculative_execution: bool = True
    node_crashes: tuple[tuple[str, float], ...] = ()
    master_crash_time: float | None = None
    master_recovery: str = "resume"
    master_downtime_s: float = 0.75
    shuffle_failures: tuple[tuple[int, int, int], ...] = ()
    lost_replicas: tuple[tuple[int, str], ...] = ()
    corruption_rate: float = 0.0
    transfer_corruption_rate: float = 0.0
    corrupt_replicas: tuple[tuple[int, str], ...] = ()
    link_loss_rate: float = 0.0
    lossy_links: tuple[tuple[str, str, float], ...] = ()
    partitions: tuple[tuple[str, float, float], ...] = ()
    scrub: bool = False
    limping_nodes: tuple[tuple[str, float], ...] = ()
    limping_disks: tuple[tuple[str, float], ...] = ()
    limping_nics: tuple[tuple[str, float], ...] = ()
    fail_slow_rate: float = 0.0
    fail_slow_factor_range: tuple[float, float] = (2.0, 4.0)
    rack_outages: tuple[tuple[str, float], ...] = ()
    tor_failures: tuple[tuple[str, float, float], ...] = ()
    correlated_disk_failures: tuple[tuple[str, int], ...] = ()
    seed: int = 0
    policy: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_point <= 1.0:
            raise ValueError("failure_point must be in [0, 1]")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        for rate, label in (
            (self.map_failure_rate, "map_failure_rate"),
            (self.reduce_failure_rate, "reduce_failure_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        for index in self.map_failures + self.reduce_failures:
            if index < 0:
                raise ValueError("task indices must be non-negative")
        for index, count in self.map_failure_counts + self.reduce_failure_counts:
            if index < 0 or count < 1:
                raise ValueError("failure counts need index >= 0 and count >= 1")
        for _name, at in self.node_crashes:
            if at < 0:
                raise ValueError("crash times must be non-negative")
        if self.master_crash_time is not None and not (
            self.master_crash_time >= 0 and math.isfinite(self.master_crash_time)
        ):
            raise ValueError("master_crash_time must be finite and non-negative")
        if self.master_recovery not in ("restart", "resume"):
            raise ValueError("master_recovery must be 'restart' or 'resume'")
        if not (self.master_downtime_s >= 0 and math.isfinite(self.master_downtime_s)):
            raise ValueError("master_downtime_s must be finite and non-negative")
        for r_index, m_index, times in self.shuffle_failures:
            if r_index < 0 or m_index < 0 or times < 1:
                raise ValueError(
                    "shuffle failures need indices >= 0 and times >= 1"
                )
        for m_index, _node in self.lost_replicas:
            if m_index < 0:
                raise ValueError("lost replica map indices must be non-negative")
        for rate, label in (
            (self.corruption_rate, "corruption_rate"),
            (self.transfer_corruption_rate, "transfer_corruption_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        if not 0.0 <= self.link_loss_rate < 1.0:
            raise ValueError("link_loss_rate must be in [0, 1)")
        for _src, _dst, rate in self.lossy_links:
            if not 0.0 <= rate < 1.0:
                raise ValueError("per-link loss rates must be in [0, 1)")
        for m_index, _node in self.corrupt_replicas:
            if m_index < 0:
                raise ValueError(
                    "corrupt replica map indices must be non-negative"
                )
        for _node, p_start, duration in self.partitions:
            if not (p_start >= 0 and math.isfinite(p_start)):
                raise ValueError(
                    "partition starts must be finite and non-negative"
                )
            if not (duration > 0 and math.isfinite(duration)):
                raise ValueError(
                    "partition durations must be finite and positive"
                )
        for name, factor in (
            self.limping_nodes + self.limping_disks + self.limping_nics
        ):
            if not name:
                raise ValueError("limping resource node names must be non-empty")
            if not (factor >= 1.0 and math.isfinite(factor)):
                raise ValueError("limp factors must be finite and >= 1")
        if not 0.0 <= self.fail_slow_rate <= 1.0:
            raise ValueError("fail_slow_rate must be in [0, 1]")
        lo, hi = self.fail_slow_factor_range
        if not (1.0 <= lo <= hi and math.isfinite(hi)):
            raise ValueError(
                "fail_slow_factor_range needs 1 <= lo <= hi, both finite"
            )
        for rack, at in self.rack_outages:
            if not rack:
                raise ValueError("rack outage rack names must be non-empty")
            if not (at >= 0 and math.isfinite(at)):
                raise ValueError("rack outage times must be finite and non-negative")
        for rack, t_start, duration in self.tor_failures:
            if not rack:
                raise ValueError("ToR failure rack names must be non-empty")
            if not (t_start >= 0 and math.isfinite(t_start)):
                raise ValueError("ToR failure starts must be finite and non-negative")
            if not (duration > 0 and math.isfinite(duration)):
                raise ValueError("ToR failure durations must be finite and positive")
        for rack, count in self.correlated_disk_failures:
            if not rack:
                raise ValueError("correlated disk failure rack names must be non-empty")
            if count < 1:
                raise ValueError("correlated disk failure counts must be >= 1")

    @property
    def injects_fail_slow(self) -> bool:
        """True when any fail-slow (limping-hardware) class is configured."""
        return bool(
            self.limping_nodes
            or self.limping_disks
            or self.limping_nics
            or self.fail_slow_rate
        )

    def resolve_fail_slow(
        self, node_names: tuple[str, ...]
    ) -> dict[str, dict[str, float]]:
        """Effective per-node limp factors: ``{node: {cpu, disk, nic}}``.

        A ``limping_nodes`` entry limps the whole machine — CPU, disk
        and NIC together, the thermal-throttled / misconfigured-host
        presentation — while ``limping_disks`` / ``limping_nics`` limp
        one device.  Explicit entries apply first; ``fail_slow_rate``
        then samples each (node, resource) pair from its own seeded
        stream (``failslow:<seed>``), so turning it on never perturbs
        the task-failure or gray-failure draws.  Factors combine by
        ``max`` — the worse diagnosis wins.
        """
        factors = {
            name: {"cpu": 1.0, "disk": 1.0, "nic": 1.0} for name in node_names
        }
        for resources, pairs in (
            (("cpu", "disk", "nic"), self.limping_nodes),
            (("disk",), self.limping_disks),
            (("nic",), self.limping_nics),
        ):
            for name, factor in pairs:
                if name not in factors:
                    raise ValueError(f"unknown limping node {name!r}")
                for resource in resources:
                    factors[name][resource] = max(
                        factors[name][resource], factor
                    )
        if self.fail_slow_rate:
            rng = random.Random(f"failslow:{self.seed}")
            lo, hi = self.fail_slow_factor_range
            for name in node_names:
                for resource in ("cpu", "disk", "nic"):
                    if rng.random() < self.fail_slow_rate:
                        factors[name][resource] = max(
                            factors[name][resource], rng.uniform(lo, hi)
                        )
        return factors

    @property
    def injects_faults(self) -> bool:
        """True when any fault class is configured."""
        return bool(
            self.map_failures
            or self.reduce_failures
            or self.map_failure_counts
            or self.reduce_failure_counts
            or self.map_failure_rate
            or self.reduce_failure_rate
            or self.straggler_nodes
            or self.node_crashes
            or self.master_crash_time is not None
            or self.shuffle_failures
            or self.lost_replicas
            or self.corruption_rate
            or self.transfer_corruption_rate
            or self.corrupt_replicas
            or self.link_loss_rate
            or self.lossy_links
            or self.partitions
            or self.rack_outages
            or self.tor_failures
            or self.correlated_disk_failures
            or self.injects_fail_slow
        )

    @classmethod
    def random_plan(
        cls,
        num_maps: int,
        failure_rate: float = 0.05,
        seed: int = 0,
        **kwargs,
    ) -> "FaultPlan":
        """Sample a plan with roughly *failure_rate* of maps failing."""
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        rng = random.Random(seed)
        failures = tuple(
            i for i in range(num_maps) if rng.random() < failure_rate
        )
        kwargs.setdefault("seed", seed)
        return cls(map_failures=failures, **kwargs)


@dataclass(kw_only=True)
class FaultCounters:
    """One job's resilience tallies, each declared once, here.

    Field order is the accounting order; ``failed_attempts`` (map +
    reduce) is derived and reported first.  Float tallies are reported
    rounded to 6 places.  Across a run's jobs the tallies sum and the
    node-name tuples merge as sorted unions (:func:`aggregate_accounting`).
    Adding a counter means adding a field and incrementing it.
    """

    failed_map_attempts: int = 0
    failed_reduce_attempts: int = 0
    killed_attempts: int = 0
    speculative_attempts: int = 0
    speculative_wins: int = 0
    wasted_seconds: float = 0.0
    shuffle_fetch_failures: int = 0
    fetch_escalations: int = 0
    maps_reexecuted: int = 0
    re_replicated_bytes: int = 0
    blocks_lost: int = 0
    master_crashes: int = 0
    recovery_downtime_s: float = 0.0
    maps_recovered: int = 0
    jobs_restarted: int = 0
    jobs_resumed: int = 0
    corrupt_replicas_injected: int = 0
    checksum_failures: int = 0
    bad_blocks_reported: int = 0
    scrubbed_bytes: int = 0
    zombie_attempts_fenced: int = 0
    net_retransmits: int = 0
    net_retransmit_bytes: int = 0
    nodes_crashed: tuple[str, ...] = ()
    blacklisted_nodes: tuple[str, ...] = ()
    nodes_partitioned: tuple[str, ...] = ()
    graylisted_nodes: tuple[str, ...] = ()

    @property
    def failed_attempts(self) -> int:
        return self.failed_map_attempts + self.failed_reduce_attempts

    def accounting(self) -> dict[str, object]:
        """The resilience counters as a flat dict (CLI / report rendering)."""
        report: dict[str, object] = {"failed_attempts": self.failed_attempts}
        for f in fields(FaultCounters):
            value = getattr(self, f.name)
            report[f.name] = round(value, 6) if isinstance(f.default, float) else value
        return report


@dataclass(kw_only=True)
class FaultyTimeline(JobTimeline, FaultCounters):
    """A :class:`~repro.cluster.cluster.JobTimeline` carrying its job's
    resilience counters, so workloads and analyses accept it wherever a
    plain timeline goes."""

    recovery_mode: str = ""
    attempts: tuple[TaskAttempt, ...] = ()

    def to_dict(self) -> dict:
        """JSON-serializable report: the timeline plus resilience counters."""
        report = super().to_dict()
        report["resilience"] = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self.accounting().items()
        }
        return report


def aggregate_accounting(timelines) -> dict[str, object]:
    """Sum resilience counters across a run's timelines (plain ones are
    skipped); node names merge as sorted unions."""
    reports = [t.accounting() for t in timelines if isinstance(t, FaultyTimeline)]
    totals: dict[str, object] = {}
    for key, empty in FaultCounters().accounting().items():
        column = [report[key] for report in reports]
        if isinstance(empty, tuple):
            totals[key] = tuple(sorted(set().union(*column)))
        else:
            totals[key] = sum(column)
    return totals


class FaultyCluster:
    """A cluster that schedules jobs through the resilience subsystem.

    Wraps a :class:`HadoopCluster`; with an empty :class:`FaultPlan` the
    produced timeline is identical to the stock scheduler's.  The wrapper
    exposes the cluster surface the MapReduce engine needs (``hdfs``,
    ``run_job``, ``reset``), so it can be passed anywhere a plain cluster
    goes — including ``workload(...).run(cluster=...)``.

    Crash times in the plan are relative to the *first* job's start; a
    crashed node stays dead for every subsequent job until :meth:`reset`.
    The blacklist is per-job, like Hadoop 1.x's ``mapred.max.tracker.failures``:
    a tracker with too many failures stops getting *that job's* tasks but
    rejoins the pool for the next job.
    """

    def __init__(self, cluster: HadoopCluster, plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.policy = plan.policy
        if plan.rack_outages or plan.tor_failures or plan.correlated_disk_failures:
            topology = cluster.topology
            if topology is None or topology.is_flat:
                raise ValueError(
                    "rack_outages/tor_failures/correlated_disk_failures "
                    "need a multi-rack topology on the cluster"
                )
            known_racks = set(topology.racks)
            for rack, *_rest in (
                plan.rack_outages
                + plan.tor_failures
                + plan.correlated_disk_failures
            ):
                if rack not in known_racks:
                    raise ValueError(f"unknown rack {rack!r} in the fault plan")
        self.blacklist = NodeBlacklist(plan.policy.node_failure_threshold)
        #: the jobtracker's persisted job-history log for the running job
        #: (what `resume` recovery replays after a master restart).
        self.job_history = JobHistoryJournal()
        #: commit fence (canCommit) — replaced per jobtracker incarnation.
        self.fence = CommitFence()
        #: time-bounded exclusion of nodes that partitioned and rejoined.
        self.graylist = NodeGraylist(plan.policy.graylist_window_s)
        self._origin: float | None = None
        self._jobs_run = 0
        self._crash_at: dict[str, float] = {}
        self._crashes_processed: set[str] = set()
        self._master_crash_processed = False
        # Gray-failure state.  Corruption and transfer-flip draws come
        # from streams independent of the per-job task-failure rng, so
        # plans pinned on `seed` keep their schedules when gray-failure
        # rates are added.
        self._corruption_rng = random.Random(f"corruption:{plan.seed}")
        self._gray_rng = random.Random(f"gray:{plan.seed}")
        self._corruption_sampled: set[tuple[str, int, str]] = set()
        self._rack_disks_injected = False
        self._partition_windows: dict[str, list[tuple[float, float]]] = {}
        self._partitions_processed: set[tuple[str, float]] = set()
        self._limping_names: frozenset[str] = frozenset()
        #: every attempt of the running job, in record order.
        self._attempts: list[TaskAttempt] = []
        self._configure_gray_links()
        self._apply_fail_slow()

    def _apply_fail_slow(self) -> None:
        """Push the plan's limp factors onto the device models.

        A limping node behaves like a straggler to the jobtracker — its
        attempts are raced by speculative backups and it is skipped as a
        backup host — but unlike ``straggler_nodes`` the slowdown lives
        on the devices, so *everything* it serves (shuffle sources,
        replication targets) is slow, not just its own attempts.
        """
        plan = self.plan
        if not plan.injects_fail_slow:
            self._limping_names = frozenset()
            return
        factors = plan.resolve_fail_slow(
            tuple(node.name for node in self.cluster.slaves)
        )
        for node in self.cluster.slaves:
            per_resource = factors[node.name]
            node.slow_factor = per_resource["cpu"]
            node.disk.slow_factor = per_resource["disk"]
            node.nic.slow_factor = per_resource["nic"]
        self._limping_names = frozenset(
            name
            for name, per_resource in factors.items()
            if any(factor != 1.0 for factor in per_resource.values())
        )

    def _configure_gray_links(self) -> None:
        """Push the plan's link-loss model into the network fabric."""
        plan = self.plan
        if plan.link_loss_rate or plan.lossy_links:
            self.cluster.network.configure_loss(
                loss_rate=plan.link_loss_rate,
                link_loss={(s, d): r for s, d, r in plan.lossy_links},
                seed=plan.seed,
            )

    # -- cluster surface ------------------------------------------------------

    @property
    def hdfs(self):
        return self.cluster.hdfs

    @property
    def network(self):
        return self.cluster.network

    @property
    def slaves(self) -> list[Node]:
        return self.cluster.slaves

    @property
    def master(self) -> Node:
        return self.cluster.master

    @property
    def clock(self) -> float:
        return self.cluster.clock

    def reset(self) -> None:
        """Fresh experiment: clears cluster state and fault bookkeeping."""
        self.cluster.reset()
        self.blacklist = NodeBlacklist(self.plan.policy.node_failure_threshold)
        self.job_history = JobHistoryJournal()
        self.fence = CommitFence()
        self.graylist = NodeGraylist(self.plan.policy.graylist_window_s)
        self._origin = None
        self._jobs_run = 0
        self._crash_at = {}
        self._crashes_processed = set()
        self._master_crash_processed = False
        self._corruption_rng = random.Random(f"corruption:{self.plan.seed}")
        self._gray_rng = random.Random(f"gray:{self.plan.seed}")
        self._corruption_sampled = set()
        self._rack_disks_injected = False
        self._partition_windows = {}
        self._partitions_processed = set()
        self._apply_fail_slow()

    # -- job execution --------------------------------------------------------

    def run_job(self, work: JobWork) -> FaultyTimeline:
        cluster = self.cluster
        plan = self.plan
        policy = self.policy
        submitted = cluster.clock
        start = submitted
        if self._origin is None:
            self._origin = start
            self._crash_at = {
                name: self._origin + at for name, at in plan.node_crashes
            }
            # Correlated failure domains: a rack power outage fail-stops
            # every member at once; an earlier per-node crash time wins.
            for rack, at in plan.rack_outages:
                for member in cluster.topology.nodes_in(rack):
                    t = self._origin + at
                    if member not in self._crash_at or t < self._crash_at[member]:
                        self._crash_at[member] = t
            partitions = list(plan.partitions)
            # A dead ToR switch is a timed partition of the whole rack:
            # the nodes keep running behind the dark switch and rejoin
            # (via the graylist) when it is replaced.
            for rack, p_start, duration in plan.tor_failures:
                for member in cluster.topology.nodes_in(rack):
                    partitions.append((member, p_start, duration))
            for name, p_start, duration in partitions:
                window = (self._origin + p_start, self._origin + p_start + duration)
                self._partition_windows.setdefault(name, []).append(window)
                # The node will flap (vanish and rejoin): graylist it for
                # a window after each scheduled rejoin.
                self.graylist.record_flap(name, window[1])
            for windows in self._partition_windows.values():
                windows.sort()
        rng = random.Random(plan.seed + 1_000_003 * self._jobs_run)
        self._jobs_run += 1
        # Per-job blacklist (mapred.max.tracker.failures semantics) and
        # per-job job-history journal (jobtracker.info).
        self.blacklist = NodeBlacklist(policy.node_failure_threshold)
        self.job_history.clear()

        net_before = cluster.network.bytes_moved
        retrans_before = cluster.network.retransmits
        retrans_bytes_before = cluster.network.retransmit_bytes
        for node in cluster.slaves:
            node.procfs.sample(start)

        stats = FaultCounters()
        self._attempts = []
        self._inject_corruption(work, stats)
        crash = self._pending_master_crash()
        if crash is not None and crash <= start:
            # The master died between jobs: the next submission waits out
            # the control-plane restart.
            self._note_master_restart(stats)
            start = max(start, crash + plan.master_downtime_s)
            stats.recovery_downtime_s += start - submitted
            crash = None

        if crash is None:
            end, map_phase_end, map_nodes = self._execute_job(work, start, rng, stats)
        elif plan.master_recovery == "resume":
            end, map_phase_end, map_nodes = self._execute_job(
                work, start, rng, stats,
                master_crash=(crash, crash + plan.master_downtime_s),
            )
            if end > crash:
                # The crash actually hit this job: the restarted
                # jobtracker replayed the job history — every map output
                # journaled as complete on a still-live tasktracker was
                # reused rather than re-run.
                self._note_master_restart(stats)
                stats.jobs_resumed += 1
                stats.recovery_downtime_s += plan.master_downtime_s
                stats.maps_recovered += len({
                    event.task_id
                    for event in self.job_history.completed_maps_before(crash)
                    if not self._node_dead_at(event.node, crash)
                })
        else:
            end, map_phase_end, map_nodes = self._run_with_restart_recovery(
                work, start, crash, rng, stats
            )

        if plan.scrub:
            # Background DataBlockScanner sweep: its I/O lands on the
            # disks (pushing their busy timelines into the next job) but
            # does not extend the job's own timeline — scrubbing is a
            # daemon, not a task.
            self._scrub_pass(end, stats)
        stats.net_retransmits += cluster.network.retransmits - retrans_before
        stats.net_retransmit_bytes += (
            cluster.network.retransmit_bytes - retrans_bytes_before
        )
        for name in sorted(self._partition_windows):
            for w_start, _w_end in self._partition_windows[name]:
                if (name, w_start) in self._partitions_processed or w_start > end:
                    continue
                self._partitions_processed.add((name, w_start))
                stats.nodes_partitioned += (name,)

        stats.blacklisted_nodes = self.blacklist.nodes
        stats.graylisted_nodes = self.graylist.nodes
        return cluster._job_timeline(
            work, submitted, map_phase_end, end, net_before, map_nodes,
            FaultyTimeline,
            **vars(stats),
            recovery_mode=plan.master_recovery if stats.master_crashes else "",
            attempts=tuple(self._attempts),
        )

    # -- master (jobtracker/namenode) loss ------------------------------------

    def _pending_master_crash(self) -> float | None:
        """Absolute time of the not-yet-processed master crash, if any."""
        if self._master_crash_processed or self.plan.master_crash_time is None:
            return None
        assert self._origin is not None
        return self._origin + self.plan.master_crash_time

    def _note_master_restart(self, stats: FaultCounters) -> None:
        self._master_crash_processed = True
        stats.master_crashes += 1
        self.cluster.master.procfs.master_restarts += 1

    @staticmethod
    def _clamp_downtime(t: float, master_crash: tuple[float, float] | None) -> float:
        """No task is scheduled while the control plane is down."""
        if master_crash is None:
            return t
        crash, recovery = master_crash
        return recovery if crash <= t < recovery else t

    def _run_with_restart_recovery(
        self,
        work: JobWork,
        start: float,
        crash: float,
        rng: random.Random,
        stats: FaultCounters,
    ) -> tuple[float, float, list[Node]]:
        """Stock 1.x semantics (``mapred.jobtracker.restart.recover=false``).

        The restarted jobtracker has no memory of the in-flight job, so
        the job is re-submitted from scratch after the downtime — every
        task, completed or not, runs again.  Implemented on the cluster
        checkpoint API: a dry execution discovers what had happened by
        the crash instant, then the cluster is rolled back and the job is
        re-executed from the recovery time.  (The rollback also discards
        the pre-crash attempts' /proc traffic; their time is charged as
        wasted work below.)
        """
        cluster = self.cluster
        plan = self.plan
        cp = cluster.checkpoint()
        rng_state = rng.getstate()
        gray_state = self._gray_rng.getstate()
        crashes_before = set(self._crashes_processed)
        dry = FaultCounters()
        first_attempt = len(self._attempts)
        end, map_phase_end, map_nodes = self._execute_job(work, start, rng, dry)
        if end <= crash:
            # The job beat the crash — the dry run is the real run, and
            # the crash lands between jobs (handled on the next submission).
            for f in fields(FaultCounters):
                setattr(stats, f.name, getattr(stats, f.name) + getattr(dry, f.name))
            return end, map_phase_end, map_nodes
        dry_attempts = self._attempts[first_attempt:]
        del self._attempts[first_attempt:]

        cluster.restore(cp)
        rng.setstate(rng_state)
        self._gray_rng.setstate(gray_state)
        self._crashes_processed = crashes_before
        self.job_history.clear()  # lost with the jobtracker
        self.blacklist = NodeBlacklist(self.policy.node_failure_threshold)
        self._note_master_restart(stats)
        stats.jobs_restarted += 1
        stats.recovery_downtime_s += plan.master_downtime_s
        # Everything the first incarnation did really happened and is all
        # wasted: completed attempts lose their outputs with the job, and
        # in-flight attempts are orphaned at the crash instant.
        for attempt in dry_attempts:
            if attempt.end_s <= crash:
                self._attempts.append(attempt)
                stats.wasted_seconds += attempt.end_s - attempt.start_s
                if attempt.state is AttemptState.FAILED:
                    if attempt.task_id.startswith("m_"):
                        stats.failed_map_attempts += 1
                    else:
                        stats.failed_reduce_attempts += 1
                elif attempt.state is AttemptState.KILLED:
                    stats.killed_attempts += 1
            elif attempt.start_s < crash:
                self._attempts.append(replace(
                    attempt,
                    end_s=crash,
                    state=AttemptState.KILLED,
                    reason="jobtracker lost",
                ))
                stats.killed_attempts += 1
                stats.wasted_seconds += crash - attempt.start_s
        return self._execute_job(
            work, crash + plan.master_downtime_s, rng, stats
        )

    # -- the scheduling core ---------------------------------------------------

    def _execute_job(
        self,
        work: JobWork,
        start: float,
        rng: random.Random,
        stats: FaultCounters,
        master_crash: tuple[float, float] | None = None,
    ) -> tuple[float, float, list[Node]]:
        """Schedule *work* from *start* through the full attempt machinery.

        Returns ``(end, map_phase_end, map_nodes)``, *map_nodes* being
        each map's final placement.  With ``master_crash=(T,
        recovery)`` the control plane is down in ``[T, recovery)``:
        attempts in flight at ``T`` are killed and rescheduled, and
        nothing new is scheduled before ``recovery`` (the `resume`
        recovery path — completed work is kept).
        """
        plan = self.plan
        policy = self.policy
        # Fresh commit fence per jobtracker incarnation: a restarted
        # master has no memory of grants it handed out before the crash.
        self.fence = CommitFence()
        stragglers = set(plan.straggler_nodes)
        lost_replicas = set(plan.lost_replicas)
        map_fail_budget = {i: 1 for i in plan.map_failures}
        map_fail_budget.update(dict(plan.map_failure_counts))
        reduce_fail_budget = {i: 1 for i in plan.reduce_failures}
        reduce_fail_budget.update(dict(plan.reduce_failure_counts))
        shuffle_faults = {
            (r, m): times for r, m, times in plan.shuffle_failures
        }

        # ---- map phase through the attempt state machine ----
        map_end_times: list[float] = []
        map_nodes: list[Node] = []
        map_outputs: list[int] = []
        map_attempts: list[TaskAttempts] = []
        for m_index, task in enumerate(work.maps):
            attempts = TaskAttempts(f"m_{m_index:06d}", policy)
            end, node = self._run_map_to_success(
                task, m_index, attempts, start, stragglers, lost_replicas,
                map_fail_budget, rng, stats, master_crash=master_crash,
            )
            map_attempts.append(attempts)
            map_end_times.append(end)
            map_nodes.append(node)
            map_outputs.append(task.output_bytes)

        map_phase_end = max(map_end_times) if map_end_times else start

        # ---- node-loss recovery: detection, HDFS repair, map re-execution ----
        # Crashes sharing an instant are one *event* (a rack losing
        # power): the namenode sees every member dead before any repair
        # starts, so re-replication never copies from a machine that
        # died in the same event.  Singleton groups follow exactly the
        # historical one-crash-at-a-time path.
        crashes = sorted(self._crash_at.items(), key=lambda kv: kv[1])
        for crash_time, group in itertools.groupby(crashes, key=lambda kv: kv[1]):
            members = [
                name for name, _ in group
                if name not in self._crashes_processed
            ]
            if not members or crash_time > map_phase_end:
                continue
            detection = crash_time + policy.heartbeat_timeout_s
            repairs: list[list] = []
            for name in members:
                self._crashes_processed.add(name)
                stats.nodes_crashed += (name,)
                under_replicated, lost = self.cluster.hdfs.fail_node(name)
                stats.blocks_lost += len(lost)
                repairs.append(under_replicated)
            for under_replicated in repairs:
                self._repair_blocks(under_replicated, detection, stats)
            if work.reduces:
                # Completed maps whose output lived on a dead node must
                # re-run: reducers fetch from tasktracker-local disks.
                for name in members:
                    for m_index, (end, node) in enumerate(
                        zip(map_end_times, map_nodes)
                    ):
                        if node.name != name or end > crash_time:
                            continue
                        stats.maps_reexecuted += 1
                        stats.wasted_seconds += end - max(
                            a.start_s
                            for a in map_attempts[m_index].attempts
                            if a.state is AttemptState.SUCCEEDED
                        )
                        new_end, new_node = self._run_map_to_success(
                            work.maps[m_index], m_index, map_attempts[m_index],
                            detection, stragglers, lost_replicas, {}, rng, stats,
                            reason="map output lost with node",
                            master_crash=master_crash,
                        )
                        map_end_times[m_index] = new_end
                        map_nodes[m_index] = new_node
            map_phase_end = max(map_end_times) if map_end_times else start

        # ---- shuffle (reducers pull as maps finish), with fetch faults ----
        end = map_phase_end
        total_map_output = sum(map_outputs)
        placements = [
            self._pick_reduce_slot(i, start, map_phase_end)
            for i in range(len(work.reduces))
        ]
        shuffle_done_times: list[float] = []
        for r_index, ((node, _slot, ready), task) in enumerate(
            zip(placements, work.reduces)
        ):
            shuffle_done = max(ready, start)
            if total_map_output and task.shuffle_bytes:
                for m_index in range(len(work.maps)):
                    m_out = map_outputs[m_index]
                    segment = int(task.shuffle_bytes * (m_out / total_map_output))
                    if segment <= 0:
                        continue
                    done = self._fetch_segment(
                        r_index, m_index, segment, node, work,
                        map_end_times, map_nodes, map_attempts,
                        shuffle_faults, stragglers, lost_replicas, rng, stats,
                        master_crash=master_crash,
                    )
                    if done > shuffle_done:
                        shuffle_done = done
            shuffle_done_times.append(shuffle_done)
        map_phase_end = max(map_end_times) if map_end_times else start

        # ---- reduce execution through the attempt state machine ----
        for r_index, (placement, task, shuffle_done) in enumerate(
            zip(placements, work.reduces, shuffle_done_times)
        ):
            attempts = TaskAttempts(f"r_{r_index:06d}", policy)
            reduce_end = self._run_reduce_to_success(
                task, r_index, attempts, placement, shuffle_done,
                map_phase_end, stragglers, reduce_fail_budget, rng, stats,
                master_crash=master_crash,
            )
            if reduce_end > end:
                end = reduce_end

        return end, map_phase_end, map_nodes

    # -- map attempts ---------------------------------------------------------

    def _run_map_to_success(
        self,
        task: MapWork,
        m_index: int,
        attempts: TaskAttempts,
        not_before: float,
        stragglers: set[str],
        lost_replicas: set[tuple[int, str]],
        fail_budget: dict[int, int],
        rng: random.Random,
        stats: FaultCounters,
        reason: str = "task error",
        master_crash: tuple[float, float] | None = None,
    ) -> tuple[float, Node]:
        """Drive one map task's attempts until one succeeds (or the job dies)."""
        cluster = self.cluster
        plan = self.plan
        policy = self.policy
        t = not_before
        while True:
            exclude = set(self.blacklist.nodes)
            if policy.prefer_different_node:
                exclude |= attempts.tried_nodes
            node, slot, ready = self._pick_map_slot(task, t, exclude)
            attempt_start = self._clamp_downtime(max(ready, t), master_crash)
            window = self._partition_at(node.name, attempt_start)
            if window is not None:
                # Downtime clamping pushed the start into a partition
                # window; the tracker is unreachable — pick again after
                # it heals.
                t = window[1]
                continue
            attempt_no = len(attempts.attempts)
            self.fence.grant(attempts.task_id, attempt_no)
            # An attempt that might span the master crash is charged
            # against a checkpoint: if the crash orphans it, the cluster
            # is rolled back so its unfinished I/O does not keep occupying
            # the disk and NIC queues the retries will use.
            might_span = master_crash is not None and attempt_start < master_crash[0]
            cp = cluster.checkpoint() if might_span else None
            end = self._map_attempt_time(
                task, m_index, node, attempt_start, stragglers, lost_replicas,
                stats,
            )

            crash_time = self._crash_at.get(node.name)
            node_dies = crash_time is not None and attempt_start < crash_time < end
            master_dies = (
                master_crash is not None
                and attempt_start < master_crash[0] < end
            )
            if node_dies and (not master_dies or crash_time <= master_crash[0]):
                # The node dies under the attempt: killed, not failed.
                self._attempts.append(attempts.record(
                    node.name, attempt_start, crash_time,
                    AttemptState.KILLED, "node lost",
                ))
                stats.killed_attempts += 1
                stats.wasted_seconds += crash_time - attempt_start
                node.procfs.tasks_killed += 1
                node.map_slot_free[slot] = crash_time
                t = crash_time + policy.heartbeat_timeout_s
                continue
            if master_dies:
                # The jobtracker dies under the attempt: the orphaned task
                # is killed and rescheduled once the master is back.
                cluster.restore(cp)
                self._attempts.append(attempts.record(
                    node.name, attempt_start, master_crash[0],
                    AttemptState.KILLED, "jobtracker lost",
                ))
                stats.killed_attempts += 1
                stats.wasted_seconds += master_crash[0] - attempt_start
                node.procfs.tasks_killed += 1
                node.map_slot_free[slot] = master_crash[0]
                t = master_crash[1]
                continue
            p_window = self._partition_spanning(node.name, attempt_start, end)
            if p_window is not None:
                p_start, p_end = p_window
                if p_end - p_start <= policy.heartbeat_timeout_s:
                    # A blip shorter than the expiry interval goes
                    # unnoticed; the tracker reports completion when it
                    # rejoins.
                    end = max(end, p_end)
                else:
                    # The tracker went silent mid-attempt: the jobtracker
                    # declares it lost at the heartbeat timeout and
                    # reschedules.  The attempt *keeps running* on the
                    # isolated node (its I/O really happened), but when
                    # the node rejoins the zombie's commit is fenced by
                    # the canCommit check — a newer attempt owns the task.
                    lost_at = p_start + policy.heartbeat_timeout_s
                    self.fence.revoke(attempts.task_id, attempt_no)
                    self.fence.try_commit(attempts.task_id, attempt_no)
                    self._attempts.append(attempts.record(
                        node.name, attempt_start, end, AttemptState.KILLED,
                        "fenced zombie attempt (partitioned tasktracker rejoined)",
                    ))
                    stats.killed_attempts += 1
                    stats.zombie_attempts_fenced += 1
                    stats.wasted_seconds += end - attempt_start
                    node.procfs.tasks_killed += 1
                    node.map_slot_free[slot] = end
                    t = lost_at
                    continue

            fails = fail_budget.get(m_index, 0) > attempts.failures or (
                plan.map_failure_rate > 0.0
                and rng.random() < plan.map_failure_rate
            )
            if fails:
                failure_time = attempt_start + (end - attempt_start) * plan.failure_point
                self._attempts.append(attempts.record(
                    node.name, attempt_start, failure_time,
                    AttemptState.FAILED, reason,
                ))
                stats.failed_map_attempts += 1
                stats.wasted_seconds += failure_time - attempt_start
                node.procfs.tasks_failed += 1
                node.map_slot_free[slot] = failure_time
                self.blacklist.record_failure(node.name)
                attempts.check_exhausted(reason)
                t = attempts.next_retry_time(failure_time)
                continue

            # Success — possibly racing a speculative backup off a
            # straggler or a fail-slow (limping) node.
            node.map_slot_free[slot] = end
            if (
                plan.speculative_execution
                and (node.name in stragglers or node.name in self._limping_names)
                and len(cluster.slaves) > 1
            ):
                end, node = self._speculate_map(
                    task, m_index, node, slot, attempt_start, end,
                    stragglers, lost_replicas, stats, master_crash,
                )
            # canCommit: a tracker that never went silent still holds
            # its grant, so this always passes outside partitions.
            self.fence.try_commit(attempts.task_id, attempt_no)
            self._attempts.append(attempts.record(
                node.name, attempt_start, end, AttemptState.SUCCEEDED,
                reason if reason != "task error" else "",
            ))
            self.job_history.record_completion(
                "map", attempts.task_id, node.name, attempt_start, end
            )
            return end, node

    def _map_attempt_time(
        self,
        task: MapWork,
        m_index: int,
        node: Node,
        at: float,
        stragglers: set[str],
        lost_replicas: set[tuple[int, str]],
        stats: FaultCounters,
    ) -> float:
        """Charge one map attempt's I/O and CPU; return its finish time."""
        now = at
        if task.input_bytes:
            survivors = [
                name
                for name in task.preferred_nodes
                if (m_index, name) not in lost_replicas
                and not self._node_dead_at(name, now)
            ]
            if task.preferred_nodes and not survivors:
                raise DataLossError(
                    f"m_{m_index:06d}", 0,
                    "all replicas of the input split are gone",
                )
            if task.preferred_nodes:
                now = self._read_split_with_integrity(
                    task, m_index, node, now, survivors, stats
                )
            else:
                now = node.disk.read(now, task.input_bytes)
                node.procfs.record_checksum(
                    self.cluster.hdfs.checksum_chunks(task.input_bytes)
                )
        now += node.cpu_time(task.cpu_seconds)
        now = node.disk.write(now, task.output_bytes + TASK_LOG_BYTES)
        if node.name in stragglers:
            # A degraded node is slow across the board (thermal throttling,
            # dying disk): stretch the whole attempt.
            now = at + (now - at) * self.plan.straggler_factor
        return now

    def _read_split_with_integrity(
        self,
        task: MapWork,
        m_index: int,
        node: Node,
        at: float,
        survivors: list[str],
        stats: FaultCounters,
    ) -> float:
        """Read the map's input split, verifying checksums end to end.

        Candidates are tried in the stock scheduler's order (the local
        replica first when it survived, then the survivor list), so with
        no corruption or partitions the charged I/O is bit-identical to
        the plain path.  A replica that trips the CRC check costs its
        read time, is reported to the namenode (drop + re-replicate),
        and the reader fails over to the next candidate; an unreachable
        (partitioned) holder is skipped, waiting for the earliest heal
        only when no other candidate exists.
        """
        cluster = self.cluster
        hdfs = cluster.hdfs
        split = task.split
        if split is not None:
            file_name, b_index = split
            hfile = hdfs.files.get(file_name)
            if hfile is None or b_index >= len(hfile.blocks):
                # Prebuilt work aimed at another namespace: no block to
                # verify against, so read with plain accounting.
                split = None
        if node.name in survivors:
            candidates = [node.name] + [s for s in survivors if s != node.name]
        else:
            candidates = list(survivors)
        now = at
        remaining = list(candidates)
        for _round in range(4):
            heal_times: list[float] = []
            for name in list(remaining):
                src = node if name == node.name else cluster._slave_by_name.get(name)
                if src is None:
                    # Replica holder unknown to this cluster (prebuilt
                    # work): stock fallback is a local read.
                    done = node.disk.read(now, task.input_bytes)
                    node.procfs.record_checksum(
                        hdfs.checksum_chunks(task.input_bytes)
                    )
                    return done
                if src is not node:
                    window = self._partition_at(name, now)
                    if window is not None:
                        heal_times.append(window[1])
                        continue
                if src is node:
                    done = node.disk.read(now, task.input_bytes)
                else:
                    read_done = src.disk.read(now, task.input_bytes)
                    done = self._transfer_with_integrity(
                        src, node, read_done, task.input_bytes, stats
                    )
                node.procfs.record_checksum(
                    hdfs.checksum_chunks(task.input_bytes)
                )
                if split is not None and hdfs.is_replica_corrupt(
                    file_name, b_index, name
                ):
                    # End-to-end CRC catches at-rest rot: the wasted read
                    # time stays in the attempt, the bad replica is
                    # reported, and the reader fails over.
                    node.procfs.checksum_failures += 1
                    stats.checksum_failures += 1
                    self._report_bad_replica(
                        file_name, b_index, name, done, node, stats
                    )
                    now = done
                    remaining.remove(name)
                    continue
                return done
            if not remaining or not heal_times:
                break
            now = max(now, min(heal_times))
        raise DataLossError(
            f"m_{m_index:06d}", 0, "no readable replica of the input split"
        )

    def _transfer_with_integrity(
        self, src: Node, dst: Node, at: float, num_bytes: int, stats: FaultCounters
    ) -> float:
        """One network transfer, re-requested while in-flight bits flip."""
        plan = self.plan
        now = at
        done = now
        for _attempt in range(12):
            done = self.cluster.network.transfer(now, src.nic, dst.nic, num_bytes)
            if not (
                plan.transfer_corruption_rate > 0.0
                and self._gray_rng.random() < plan.transfer_corruption_rate
            ):
                return done
            # The receiver's CRC caught an in-flight flip: the payload is
            # discarded and re-requested from the same holder.
            dst.procfs.record_checksum(
                self.cluster.hdfs.checksum_chunks(num_bytes)
            )
            dst.procfs.checksum_failures += 1
            stats.checksum_failures += 1
            now = done
        # Pathological corruption rates: accept after bounded retries so
        # the simulation terminates (every flip above was still detected
        # and counted).
        return done

    def _report_bad_replica(
        self,
        file_name: str,
        index: int,
        node_name: str,
        at: float,
        reporter: Node,
        stats: FaultCounters,
    ) -> None:
        """Report a rotten replica: drop it and re-replicate from a good one.

        Mirrors ``DFSClient.reportBadBlocks`` feeding the namenode's
        ``CorruptReplicasMap``: the marked replica is invalidated (never
        the block's last copy — then the marker just sticks) and the
        block re-replicated from a surviving good replica, with the
        repair I/O charged to the donor and recipient.
        """
        cluster = self.cluster
        hdfs = cluster.hdfs
        stats.bad_blocks_reported += 1
        reporter.procfs.bad_block_reports += 1
        block = hdfs.report_bad_block(file_name, index, node_name)
        if block is None:
            return
        pair = hdfs.re_replicate_block(block)
        if pair is None:
            return
        src_name, dst_name = pair
        src = cluster._slave_by_name.get(src_name)
        dst = cluster._slave_by_name.get(dst_name)
        if src is None or dst is None or src is dst:
            return
        read_done = src.disk.read(at, block.size_bytes)
        sent = cluster.network.transfer(
            read_done, src.nic, dst.nic, block.size_bytes
        )
        dst.disk.write(sent, block.size_bytes)
        stats.re_replicated_bytes += block.size_bytes

    # -- partitions and scrubbing ---------------------------------------------

    def _partition_at(
        self, node_name: str, time_s: float
    ) -> tuple[float, float] | None:
        """The partition window covering *time_s* on *node_name*, if any."""
        for start, end in self._partition_windows.get(node_name, ()):
            if start <= time_s < end:
                return (start, end)
        return None

    def _partition_spanning(
        self, node_name: str, start_s: float, end_s: float
    ) -> tuple[float, float] | None:
        """The first partition window opening strictly inside the attempt."""
        for p_start, p_end in self._partition_windows.get(node_name, ()):
            if start_s < p_start < end_s:
                return (p_start, p_end)
        return None

    def _wait_out_partition(self, node_name: str, at: float) -> float:
        """Earliest time at/after *at* when *node_name* is reachable."""
        window = self._partition_at(node_name, at)
        while window is not None:
            at = window[1]
            window = self._partition_at(node_name, at)
        return at

    def _inject_corruption(self, work: JobWork, stats: FaultCounters) -> None:
        """Rot replicas per the plan, always sparing one good copy per block."""
        plan = self.plan
        hdfs = self.cluster.hdfs
        for m_index, node_name in plan.corrupt_replicas:
            if m_index >= len(work.maps):
                continue
            split = work.maps[m_index].split
            if split is None:
                continue
            if self._corrupt_if_safe(split[0], split[1], node_name):
                stats.corrupt_replicas_injected += 1
        if plan.correlated_disk_failures and not self._rack_disks_injected:
            # A bad disk batch delivered to one rack: a seeded one-shot
            # sweep rots `count` replicas on the rack's nodes.  The
            # stream is independent of every other fault rng, and the
            # last-good-copy bound still holds, so a checksum-verifying
            # reader always survives the batch.
            self._rack_disks_injected = True
            rng = random.Random(f"rackdisk:{plan.seed}")
            for rack, count in plan.correlated_disk_failures:
                members = set(self.cluster.topology.nodes_in(rack))
                candidates = [
                    (file_name, b_index, replica)
                    for file_name in sorted(hdfs.files)
                    for b_index, block in enumerate(hdfs.files[file_name].blocks)
                    for replica in block.replicas
                    if replica in members
                ]
                rng.shuffle(candidates)
                injected = 0
                for file_name, b_index, replica in candidates:
                    if injected >= count:
                        break
                    if self._corrupt_if_safe(file_name, b_index, replica):
                        stats.corrupt_replicas_injected += 1
                        injected += 1
        if plan.corruption_rate <= 0.0:
            return
        # Rate-based bit rot: every replica is sampled exactly once over
        # the cluster's lifetime (new files are sampled as they appear),
        # from a stream independent of the task-failure rng.
        for file_name in sorted(hdfs.files):
            hfile = hdfs.files[file_name]
            for b_index, block in enumerate(hfile.blocks):
                for replica in block.replicas:
                    key = (file_name, b_index, replica)
                    if key in self._corruption_sampled:
                        continue
                    self._corruption_sampled.add(key)
                    if self._corruption_rng.random() >= plan.corruption_rate:
                        continue
                    if self._corrupt_if_safe(file_name, b_index, replica):
                        stats.corrupt_replicas_injected += 1

    def _corrupt_if_safe(
        self, file_name: str, b_index: int, node_name: str
    ) -> bool:
        """Mark one replica rotten unless it is the block's last good copy."""
        hdfs = self.cluster.hdfs
        hfile = hdfs.files.get(file_name)
        if hfile is None or b_index >= len(hfile.blocks):
            return False
        block = hfile.blocks[b_index]
        if node_name not in block.replicas:
            return False
        good = [
            r
            for r in block.replicas
            if r != node_name
            and not hdfs.is_replica_corrupt(file_name, b_index, r)
        ]
        if not good:
            return False
        return hdfs.corrupt_replica(file_name, b_index, node_name)

    def _scrub_pass(self, at: float, stats: FaultCounters) -> float:
        """One DataBlockScanner sweep over every live datanode.

        The scanner reads the datanode's *local* disk, so a network
        partition does not stop the sweep — but a partitioned node's
        bad-block reports only reach the namenode once the link heals.
        """
        scanner = DataBlockScanner(self.cluster.hdfs)
        t_done = at
        for node in self.cluster.slaves:
            if self._node_dead_at(node.name, at):
                continue
            t, scanned, corrupt = scanner.scan_node(node, at)
            stats.scrubbed_bytes += scanned
            report_at = t
            window = self._partition_at(node.name, t)
            if window is not None:
                report_at = max(report_at, window[1])
            for block in corrupt:
                stats.checksum_failures += 1
                self._report_bad_replica(
                    block.file_name, block.index, node.name, report_at,
                    node, stats,
                )
            t_done = max(t_done, report_at if corrupt else t)
        return t_done

    def scrub(self, at: float | None = None) -> dict[str, float]:
        """Run one full scrub sweep now; returns a summary of the pass."""
        stats = FaultCounters()
        start = self.cluster.clock if at is None else at
        t_done = self._scrub_pass(start, stats)
        return {
            "scrubbed_bytes": stats.scrubbed_bytes,
            "corrupt_found": stats.checksum_failures,
            "bad_blocks_reported": stats.bad_blocks_reported,
            "re_replicated_bytes": stats.re_replicated_bytes,
            "finished_at_s": t_done,
        }

    def _speculate_map(
        self,
        task: MapWork,
        m_index: int,
        node: Node,
        slot: int,
        attempt_start: float,
        end: float,
        stragglers: set[str],
        lost_replicas: set[tuple[int, str]],
        stats: FaultCounters,
        master_crash: tuple[float, float] | None = None,
    ) -> tuple[float, Node]:
        """Launch a backup attempt on the fastest non-straggler node."""
        candidates = [
            n
            for n in self.cluster.slaves
            if n.name not in stragglers
            and n.name not in self._limping_names
            and not self.blacklist.is_blacklisted(n.name)
            and not self._node_dead_at(n.name, attempt_start)
            and self._partition_at(n.name, attempt_start) is None
            and not self.graylist.is_graylisted(n.name, attempt_start)
        ]
        if not candidates:
            return end, node
        stats.speculative_attempts += 1
        backup_node = min(
            candidates, key=lambda n: n.map_slot_free[n.earliest_map_slot()]
        )
        backup_slot = backup_node.earliest_map_slot()
        backup_start = self._clamp_downtime(
            max(backup_node.map_slot_free[backup_slot], attempt_start),
            master_crash,
        )
        might_span = master_crash is not None and backup_start < master_crash[0]
        cp = self.cluster.checkpoint() if might_span else None
        backup_end = self._map_attempt_time(
            task, m_index, backup_node, backup_start, stragglers, lost_replicas,
            stats,
        )
        if master_crash is not None and backup_start < master_crash[0] < backup_end:
            # The backup is orphaned by the jobtracker crash; the original
            # (which committed before the crash) stands.
            self.cluster.restore(cp)
            backup_node.procfs.tasks_speculative += 1
            stats.killed_attempts += 1
            stats.wasted_seconds += master_crash[0] - backup_start
            backup_node.procfs.tasks_killed += 1
            backup_node.map_slot_free[backup_slot] = master_crash[0]
            return end, node
        backup_node.procfs.tasks_speculative += 1
        if backup_end < end:
            # The jobtracker kills the slower original the moment the
            # backup commits — it does not run to completion.
            stats.speculative_wins += 1
            stats.killed_attempts += 1
            stats.wasted_seconds += max(0.0, backup_end - attempt_start)
            node.procfs.tasks_killed += 1
            backup_node.procfs.speculative_wins += 1
            backup_node.map_slot_free[backup_slot] = backup_end
            node.map_slot_free[slot] = backup_end
            return backup_end, backup_node
        stats.wasted_seconds += backup_end - backup_start
        backup_node.map_slot_free[backup_slot] = backup_end
        node.map_slot_free[slot] = end
        return end, node

    # -- shuffle --------------------------------------------------------------

    def _fetch_segment(
        self,
        r_index: int,
        m_index: int,
        segment: int,
        reduce_node: Node,
        work: JobWork,
        map_end_times: list[float],
        map_nodes: list[Node],
        map_attempts: list[TaskAttempts],
        shuffle_faults: dict[tuple[int, int], int],
        stragglers: set[str],
        lost_replicas: set[tuple[int, str]],
        rng: random.Random,
        stats: FaultCounters,
        master_crash: tuple[float, float] | None = None,
    ) -> float:
        """One reducer's copy of one map output, with bounded fetch retries.

        Each failed fetch still moves the bytes (the connection dies after
        the transfer — the pessimistic Hadoop case) and backs off before
        retrying; once ``max_fetch_retries`` fetches of the same output
        have failed, the reducer reports it and the jobtracker re-runs the
        map, after which the copy is served from the fresh output.
        """
        policy = self.policy
        faults = shuffle_faults.get((r_index, m_index), 0)
        fetch_at = map_end_times[m_index]
        failures = 0
        while faults > 0 and failures < policy.max_fetch_retries:
            done = self._transfer_segment(
                map_nodes[m_index], reduce_node, fetch_at, segment, stats
            )
            stats.shuffle_fetch_failures += 1
            stats.wasted_seconds += done - fetch_at
            reduce_node.procfs.fetch_failures += 1
            failures += 1
            faults -= 1
            fetch_at = done + policy.fetch_backoff_s(failures)
        if faults > 0:
            # Fetch-failure escalation: the jobtracker re-runs the map.
            stats.fetch_escalations += 1
            new_end, new_node = self._run_map_to_success(
                work.maps[m_index], m_index, map_attempts[m_index],
                fetch_at, stragglers, lost_replicas, {}, rng, stats,
                reason="too many fetch failures",
                master_crash=master_crash,
            )
            map_end_times[m_index] = new_end
            map_nodes[m_index] = new_node
            fetch_at = new_end
        return self._transfer_segment(
            map_nodes[m_index], reduce_node, fetch_at, segment, stats
        )

    def _transfer_segment(
        self, src: Node, dst: Node, at: float, segment: int, stats: FaultCounters
    ) -> float:
        if src is dst:
            return src.disk.read(at, segment)
        # A partitioned endpoint stalls the fetch until the link heals.
        at = self._wait_out_partition(src.name, at)
        at = self._wait_out_partition(dst.name, at)
        read_done = src.disk.read(at, segment)
        return self._transfer_with_integrity(src, dst, read_done, segment, stats)

    # -- reduce attempts ------------------------------------------------------

    def _run_reduce_to_success(
        self,
        task,
        r_index: int,
        attempts: TaskAttempts,
        placement: tuple[Node, int, float],
        shuffle_done: float,
        map_phase_end: float,
        stragglers: set[str],
        fail_budget: dict[int, int],
        rng: random.Random,
        stats: FaultCounters,
        master_crash: tuple[float, float] | None = None,
    ) -> float:
        cluster = self.cluster
        plan = self.plan
        policy = self.policy
        node, slot, _ready = placement
        t = 0.0
        while True:
            exec_start = self._clamp_downtime(
                max(shuffle_done, map_phase_end, node.reduce_slot_free[slot], t),
                master_crash,
            )
            window = self._partition_at(node.name, exec_start)
            if window is not None:
                # The chosen tracker is unreachable at launch time; pick
                # another slot once the partition heals.
                t = window[1]
                node, slot = self._pick_reduce_retry_slot(t, attempts.tried_nodes)
                continue
            attempt_no = len(attempts.attempts)
            self.fence.grant(attempts.task_id, attempt_no)
            might_span = master_crash is not None and exec_start < master_crash[0]
            cp = cluster.checkpoint() if might_span else None
            end = self._reduce_attempt_time(task, node, exec_start, stragglers)

            crash_time = self._crash_at.get(node.name)
            node_dies = crash_time is not None and exec_start < crash_time < end
            master_dies = (
                master_crash is not None and exec_start < master_crash[0] < end
            )
            if master_dies and not (node_dies and crash_time <= master_crash[0]):
                # The jobtracker dies under the reduce attempt: orphaned,
                # killed, and rescheduled once the master is back.
                cluster.restore(cp)
                self._attempts.append(attempts.record(
                    node.name, exec_start, master_crash[0],
                    AttemptState.KILLED, "jobtracker lost",
                ))
                stats.killed_attempts += 1
                stats.wasted_seconds += master_crash[0] - exec_start
                node.procfs.tasks_killed += 1
                node.reduce_slot_free[slot] = master_crash[0]
                t = master_crash[1]
                node, slot = self._pick_reduce_retry_slot(t, attempts.tried_nodes)
                continue
            if node_dies:
                self._attempts.append(attempts.record(
                    node.name, exec_start, crash_time,
                    AttemptState.KILLED, "node lost",
                ))
                stats.killed_attempts += 1
                stats.wasted_seconds += crash_time - exec_start
                node.procfs.tasks_killed += 1
                node.reduce_slot_free[slot] = crash_time
                if node.name not in self._crashes_processed:
                    self._crashes_processed.add(node.name)
                    stats.nodes_crashed += (node.name,)
                    self._re_replicate(
                        node.name, crash_time + policy.heartbeat_timeout_s, stats
                    )
                t = crash_time + policy.heartbeat_timeout_s
                node, slot = self._pick_reduce_retry_slot(t, attempts.tried_nodes)
                continue
            p_window = self._partition_spanning(node.name, exec_start, end)
            if p_window is not None:
                p_start, p_end = p_window
                if p_end - p_start <= policy.heartbeat_timeout_s:
                    # Unnoticed blip: completion reported at rejoin.
                    end = max(end, p_end)
                else:
                    # Zombie reduce on a partitioned tracker: rescheduled
                    # at the heartbeat timeout, fenced at commit when the
                    # node rejoins.
                    lost_at = p_start + policy.heartbeat_timeout_s
                    self.fence.revoke(attempts.task_id, attempt_no)
                    self.fence.try_commit(attempts.task_id, attempt_no)
                    self._attempts.append(attempts.record(
                        node.name, exec_start, end, AttemptState.KILLED,
                        "fenced zombie attempt (partitioned tasktracker rejoined)",
                    ))
                    stats.killed_attempts += 1
                    stats.zombie_attempts_fenced += 1
                    stats.wasted_seconds += end - exec_start
                    node.procfs.tasks_killed += 1
                    node.reduce_slot_free[slot] = end
                    t = lost_at
                    node, slot = self._pick_reduce_retry_slot(
                        t, attempts.tried_nodes
                    )
                    continue

            fails = fail_budget.get(r_index, 0) > attempts.failures or (
                plan.reduce_failure_rate > 0.0
                and rng.random() < plan.reduce_failure_rate
            )
            if fails:
                failure_time = exec_start + (end - exec_start) * plan.failure_point
                self._attempts.append(attempts.record(
                    node.name, exec_start, failure_time,
                    AttemptState.FAILED, "task error",
                ))
                stats.failed_reduce_attempts += 1
                stats.wasted_seconds += failure_time - exec_start
                node.procfs.tasks_failed += 1
                node.reduce_slot_free[slot] = failure_time
                self.blacklist.record_failure(node.name)
                attempts.check_exhausted("task error")
                t = attempts.next_retry_time(failure_time)
                exclude = attempts.tried_nodes if policy.prefer_different_node else set()
                node, slot = self._pick_reduce_retry_slot(t, exclude)
                continue

            # Success — possibly racing a speculative backup off a
            # straggler or a fail-slow (limping) node.
            if (
                plan.speculative_execution
                and (node.name in stragglers or node.name in self._limping_names)
                and len(cluster.slaves) > 1
            ):
                backup = self._speculate_reduce(
                    task, node, slot, exec_start, shuffle_done, map_phase_end,
                    end, stragglers, stats, master_crash,
                )
                if backup is not None:
                    end, node, slot = backup
            # canCommit for the reduce side (always passes outside
            # partitions — the tracker never went silent).
            self.fence.try_commit(attempts.task_id, attempt_no)
            self._attempts.append(attempts.record(
                node.name, exec_start, end, AttemptState.SUCCEEDED,
            ))
            end = self._replicate_output(task, node, end)
            node.reduce_slot_free[slot] = end
            self.job_history.record_completion(
                "reduce", attempts.task_id, node.name, exec_start, end
            )
            return end

    def _reduce_attempt_time(
        self, task, node: Node, exec_start: float, stragglers: set[str]
    ) -> float:
        now = exec_start + node.cpu_time(task.cpu_seconds)
        now = node.disk.write(now, task.output_bytes + TASK_LOG_BYTES)
        if node.name in stragglers:
            now = exec_start + (now - exec_start) * self.plan.straggler_factor
        return now

    def _speculate_reduce(
        self,
        task,
        node: Node,
        slot: int,
        exec_start: float,
        shuffle_done: float,
        map_phase_end: float,
        end: float,
        stragglers: set[str],
        stats: FaultCounters,
        master_crash: tuple[float, float] | None = None,
    ) -> tuple[float, Node, int] | None:
        """Backup reduce attempt on the fastest non-straggler node.

        The backup's shuffle is assumed to have run concurrently with the
        original's (reducers fetch eagerly), so only execution and output
        writing are charged to the backup node.
        """
        candidates = [
            n
            for n in self.cluster.slaves
            if n.name not in stragglers
            and n.name not in self._limping_names
            and not self.blacklist.is_blacklisted(n.name)
            and not self._node_dead_at(n.name, map_phase_end)
            and self._partition_at(n.name, map_phase_end) is None
            and not self.graylist.is_graylisted(n.name, map_phase_end)
        ]
        if not candidates:
            return None
        stats.speculative_attempts += 1
        backup_node = min(
            candidates,
            key=lambda n: n.reduce_slot_free[n.earliest_reduce_slot()],
        )
        backup_slot = backup_node.earliest_reduce_slot()
        backup_start = self._clamp_downtime(
            max(
                shuffle_done,
                map_phase_end,
                backup_node.reduce_slot_free[backup_slot],
            ),
            master_crash,
        )
        might_span = master_crash is not None and backup_start < master_crash[0]
        cp = self.cluster.checkpoint() if might_span else None
        backup_end = self._reduce_attempt_time(
            task, backup_node, backup_start, stragglers
        )
        if master_crash is not None and backup_start < master_crash[0] < backup_end:
            # The backup is orphaned by the jobtracker crash; the original
            # (which committed before the crash) stands.
            self.cluster.restore(cp)
            backup_node.procfs.tasks_speculative += 1
            stats.killed_attempts += 1
            stats.wasted_seconds += master_crash[0] - backup_start
            backup_node.procfs.tasks_killed += 1
            backup_node.reduce_slot_free[backup_slot] = master_crash[0]
            return None
        backup_node.procfs.tasks_speculative += 1
        if backup_end < end:
            # The jobtracker kills the slower original the moment the
            # backup commits — it does not run to completion.
            stats.speculative_wins += 1
            stats.killed_attempts += 1
            stats.wasted_seconds += max(0.0, backup_end - exec_start)
            node.procfs.tasks_killed += 1
            backup_node.procfs.speculative_wins += 1
            node.reduce_slot_free[slot] = backup_end
            return backup_end, backup_node, backup_slot
        stats.wasted_seconds += backup_end - backup_start
        backup_node.reduce_slot_free[backup_slot] = backup_end
        return None

    def _replicate_output(self, task, node: Node, now: float) -> float:
        """HDFS replication of the reduce output: pipeline to live slaves."""
        cluster = self.cluster
        if not task.output_bytes:
            return now
        live = [
            n
            for n in cluster.slaves
            if not self._node_dead_at(n.name, now)
            and self._partition_at(n.name, now) is None
        ]
        if node not in live:
            return now
        copies = min(cluster.hdfs.replication - 1, len(live) - 1)
        for c in range(copies):
            dst = live[(live.index(node) + 1 + c) % len(live)]
            sent = cluster.network.transfer(
                now, node.nic, dst.nic, task.output_bytes
            )
            now = max(now, dst.disk.write(sent, task.output_bytes))
        return now

    # -- node loss and HDFS repair --------------------------------------------

    def _node_dead_at(self, node_name: str, time_s: float) -> bool:
        crash_time = self._crash_at.get(node_name)
        return crash_time is not None and time_s >= crash_time

    def _re_replicate(self, node_name: str, at: float, stats: FaultCounters) -> None:
        """Namenode repair after datanode loss, charged to disks and NICs."""
        under_replicated, lost = self.cluster.hdfs.fail_node(node_name)
        stats.blocks_lost += len(lost)
        self._repair_blocks(under_replicated, at, stats)

    def _repair_blocks(self, under_replicated, at: float, stats: FaultCounters) -> None:
        """Re-replicate *under_replicated* blocks, charging disks and NICs."""
        cluster = self.cluster
        for block in under_replicated:
            pair = cluster.hdfs.re_replicate_block(block)
            if pair is None:
                continue
            src_name, dst_name = pair
            src = cluster._slave_by_name.get(src_name)
            dst = cluster._slave_by_name.get(dst_name)
            if src is None or dst is None or src is dst:
                continue
            read_done = src.disk.read(at, block.size_bytes)
            sent = cluster.network.transfer(
                read_done, src.nic, dst.nic, block.size_bytes
            )
            dst.disk.write(sent, block.size_bytes)
            stats.re_replicated_bytes += block.size_bytes

    # -- slot selection -------------------------------------------------------

    def _pick_map_slot(
        self, task: MapWork, at: float, exclude: set[str]
    ) -> tuple[Node, int, float]:
        """Stock slot policy, minus excluded/blacklisted/dead nodes.

        Falls back to ignoring the soft exclusions (tried nodes,
        blacklist) when they would leave no candidate; dead nodes are
        never eligible.
        """
        cluster = self.cluster
        preferred_racks = cluster._preferred_racks(task)
        for soft_pass, soft_exclude in ((True, exclude), (False, set())):
            best_node, best_slot, best_time = None, -1, float("inf")
            local_node, local_slot, local_time = None, -1, float("inf")
            rack_node, rack_slot, rack_time = None, -1, float("inf")
            for node in cluster.slaves:
                if node.name in soft_exclude:
                    continue
                slot = node.earliest_map_slot()
                t = max(node.map_slot_free[slot], at)
                if self._node_dead_at(node.name, t):
                    continue
                # A partitioned tracker is unreachable (hard); a freshly
                # rejoined one is merely dodgy (soft — skipped unless it
                # is the only option left).
                if self._partition_at(node.name, t) is not None:
                    continue
                if soft_pass and self.graylist.is_graylisted(node.name, t):
                    continue
                if t < best_time:
                    best_node, best_slot, best_time = node, slot, t
                if (
                    task.preferred_nodes
                    and node.name in task.preferred_nodes
                    and t < local_time
                ):
                    local_node, local_slot, local_time = node, slot, t
                if (
                    preferred_racks
                    and t < rack_time
                    and cluster.topology.has_node(node.name)
                    and cluster.topology.rack_of(node.name) in preferred_racks
                ):
                    rack_node, rack_slot, rack_time = node, slot, t
            if local_node is not None and local_time <= best_time + cluster.locality_wait_s:
                return local_node, local_slot, local_time
            if rack_node is not None and rack_time <= (
                best_time + cluster.locality_wait_s + cluster.rack_locality_wait_s
            ):
                return rack_node, rack_slot, rack_time
            if best_node is not None:
                return best_node, best_slot, best_time
        raise JobFailedError("cluster", 0, "no live nodes left to schedule on")

    def _pick_reduce_slot(
        self, r_index: int, job_start: float, map_phase_end: float
    ) -> tuple[Node, int, float]:
        """Stock round-robin placement over the nodes alive at reduce time."""
        live = [
            n
            for n in self.cluster.slaves
            if not self._node_dead_at(n.name, map_phase_end)
            and not self.blacklist.is_blacklisted(n.name)
            and self._partition_at(n.name, map_phase_end) is None
        ]
        steady = [
            n for n in live
            if not self.graylist.is_graylisted(n.name, map_phase_end)
        ]
        if steady:
            live = steady
        if not live:
            raise JobFailedError("cluster", 0, "no live nodes left for reduces")
        node = live[r_index % len(live)]
        slot = node.earliest_reduce_slot()
        return node, slot, max(node.reduce_slot_free[slot], job_start)

    def _pick_reduce_retry_slot(
        self, at: float, exclude: set[str]
    ) -> tuple[Node, int]:
        for soft_pass, soft_exclude in ((True, exclude), (False, set())):
            candidates = [
                n
                for n in self.cluster.slaves
                if n.name not in soft_exclude
                and not self.blacklist.is_blacklisted(n.name)
                and not self._node_dead_at(
                    n.name, max(at, n.reduce_slot_free[n.earliest_reduce_slot()])
                )
                and self._partition_at(
                    n.name, max(at, n.reduce_slot_free[n.earliest_reduce_slot()])
                ) is None
                and not (
                    soft_pass
                    and self.graylist.is_graylisted(
                        n.name,
                        max(at, n.reduce_slot_free[n.earliest_reduce_slot()]),
                    )
                )
            ]
            if candidates:
                node = min(
                    candidates,
                    key=lambda n: n.reduce_slot_free[n.earliest_reduce_slot()],
                )
                return node, node.earliest_reduce_slot()
        raise JobFailedError("cluster", 0, "no live nodes left for reduces")
