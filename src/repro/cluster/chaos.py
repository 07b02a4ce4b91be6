"""Chaos harness: one table of seeded fault plans over real executions.

Chen et al.'s cross-industry study (arXiv:1208.4174) shows production
MapReduce clusters run *permanently* degraded — tasks fail, nodes die,
fetches flake, disks rot, racks lose power, hardware limps — yet jobs
finish with correct output.  Each row of :data:`HARNESSES` pairs an
executor (one workload on a :class:`FaultyCluster`, a job trace through
``run_mix``, or a DAG through the :class:`WorkflowRunner`) with a plan
factory that maps the fault-free baseline and the row's seeded RNG to
``{label: plan}``.  :func:`run_chaos` returns one :class:`ChaosResult`:
the baseline plus one :class:`ChaosRun` per label, every run on a fresh
cluster of the row's fixed shape.  The contract each row must meet lives
as check predicates in ``tests/cluster/test_chaos.py``.  Everything is
seeded, so a chaos run is exactly reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from repro.cluster.attempts import JobFailedError, RetryPolicy
from repro.cluster.cluster import make_cluster, slave_names
from repro.cluster.faults import FaultPlan, FaultyCluster, aggregate_accounting
from repro.cluster.scheduler import make_scheduler
from repro.cluster.workflow import (
    _DAG_BLOCK_SIZE,
    WorkflowFaultPlan,
    WorkflowRunner,
    build_workflow,
)

#: every plan runs under the stock retry policy
_POLICY = RetryPolicy()


def chaos_plan(
    rng: random.Random,
    num_maps: int,
    num_reduces: int,
    node_names: list[str],
    map_window_s: float | None = None,
    seed: int = 0,
) -> FaultPlan:
    """Sample a mixed fault schedule for one job shape.

    Always injects at least one map failure; with RNG-dependent
    probability adds a reduce failure, one straggler node, one node crash
    during the map phase (needs *map_window_s*, the fault-free map-phase
    duration, to aim the crash), shuffle-fetch failures (sometimes enough
    to escalate into a map re-run) and the loss of one input replica.
    The mix is bounded so a healthy retry policy always completes the job.
    """
    if num_maps < 1:
        raise ValueError("chaos needs at least one map task")
    if not node_names:
        raise ValueError("chaos needs at least one node")
    plan: dict[str, object] = {"seed": seed}
    k = max(1, num_maps // 8)
    plan["map_failures"] = tuple(sorted(rng.sample(range(num_maps), min(k, num_maps))))
    if num_reduces and rng.random() < 0.7:
        plan["reduce_failures"] = (rng.randrange(num_reduces),)
    straggler: tuple[str, ...] = ()
    if len(node_names) > 1 and rng.random() < 0.6:
        plan["straggler_nodes"] = straggler = (rng.choice(node_names),)
        plan["straggler_factor"] = rng.uniform(2.0, 5.0)
    if map_window_s and len(node_names) > 2 and rng.random() < 0.5:
        victims = [n for n in node_names if n not in straggler]
        plan["node_crashes"] = (
            (rng.choice(victims), map_window_s * rng.uniform(0.3, 0.8)),
        )
    if num_reduces and rng.random() < 0.7:
        times = rng.choice([1, 2, _POLICY.max_fetch_retries + 1])
        plan["shuffle_failures"] = (
            (rng.randrange(num_reduces), rng.randrange(num_maps), times),
        )
    if rng.random() < 0.5:
        plan["lost_replicas"] = ((rng.randrange(num_maps), rng.choice(node_names)),)
    return FaultPlan(**plan)


def integrity_chaos_plan(
    rng: random.Random,
    node_names: list[str],
    map_window_s: float | None = None,
    seed: int = 0,
) -> FaultPlan:
    """Sample a gray-failure schedule: bit rot, flaky links, one partition.

    Unlike :func:`chaos_plan` (fail-stop faults), everything here fails
    *silently*: a quarter of replicas rot at rest, 5 % of transfers flip
    bits in flight, links drop 2 % of segments, and one tasktracker is
    partitioned during the map phase for longer than the heartbeat
    timeout — so it is declared lost, its tasks are rescheduled, and its
    zombie attempts must be fenced when it rejoins.  A post-job scrub is
    always on, so every injected corruption is detected by the end of
    the run.  The mix is bounded (a block's last good replica is never
    rotted) so a checksum-verifying scheduler always completes with
    correct output.
    """
    if not node_names:
        raise ValueError("chaos needs at least one node")
    partitions: tuple[tuple[str, float, float], ...] = ()
    if map_window_s and len(node_names) > 2:
        victim = rng.choice(node_names)
        p_start = map_window_s * rng.uniform(0.2, 0.6)
        # Longer than the heartbeat timeout, so the jobtracker notices
        # and the rejoining tracker produces fenceable zombies.
        duration = _POLICY.heartbeat_timeout_s * rng.uniform(2.0, 4.0)
        partitions = ((victim, p_start, duration),)
    return FaultPlan(
        corruption_rate=0.25,
        transfer_corruption_rate=0.05,
        link_loss_rate=0.02,
        partitions=partitions,
        scrub=True,
        seed=seed,
    )


@dataclass(frozen=True)
class ChaosRun:
    """One execution of a chaos subject: fault-free, or under one plan.

    ``duration_s`` is the job's duration (infinite when it aborted), a mix's
    p99 job turnaround (the tail fail-slow hardware inflates) or a
    workflow's end time.  ``result`` and ``cluster`` are the raw run
    result and the cluster it ran on (``None`` for a mix, which builds
    its own); they stay out of ``==`` and ``repr``.
    """

    plan: FaultPlan | WorkflowFaultPlan | None
    completed: bool
    duration_s: float
    identical_output: bool
    accounting: dict[str, object]
    result: object = field(default=None, compare=False, repr=False)
    cluster: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ChaosResult:
    """One subject's fault-free baseline and its run under every plan."""

    harness: str
    subject: str
    seed: int
    baseline: ChaosRun
    runs: dict[str, ChaosRun]


@dataclass(frozen=True)
class Harness:
    """One row of the chaos table: an executor, a plan factory, a shape.

    ``stream`` seeds the row's RNG (formatted with ``subject``,
    ``scheduler`` and ``seed``; ``None`` seeds it with the bare seed).
    ``twins`` maps labels that another executor runs to that executor.
    """

    execute: Callable[[_Job, object], ChaosRun]
    plans: Callable[[_Job, ChaosRun], dict[str, object]]
    stream: str | None
    scale: float
    slaves: int
    block_size: int
    racks: int = 1
    twins: dict[str, Callable[[_Job, object], ChaosRun]] = field(default_factory=dict)


@dataclass
class _Job:
    """One :func:`run_chaos` call; its solo run, trace and DAG build lazily."""

    row: Harness
    subject: str
    scale: float
    scheduler: str
    seed: int
    rng: random.Random
    baseline: ChaosRun | None = None

    @cached_property
    def solo(self) -> ChaosRun:
        """The subject workload alone on a healthy cluster of the row."""
        return _run_workload(self, None, self.row.racks)

    @cached_property
    def trace(self):
        """Five copies of the subject, spaced just past its solo duration:
        a healthy cluster keeps up, a limping one falls steadily behind,
        and mitigation has idle healthy slots to race on."""
        from repro.cluster.tenancy import TraceJob, WorkloadTrace

        arrival, jobs = 0.0, []
        for index in range(5):
            jobs.append(TraceJob(index, self.subject, self.scale, arrival,
                                 f"user{index % 3}", "batch", "small"))
            arrival += self.solo.duration_s * self.rng.uniform(1.05, 1.25)
        return WorkloadTrace(tuple(jobs), seed=self.seed, arrival_rate_per_s=0.0)

    @cached_property
    def workflow(self):
        return build_workflow(self.subject, scale=self.scale, num_slaves=self.row.slaves)


# -- executors -------------------------------------------------------------------


def _run_workload(job: _Job, plan: FaultPlan | None, racks: int) -> ChaosRun:
    from repro.workloads.base import workload

    cluster = make_cluster(job.row.slaves, block_size=job.row.block_size, racks=racks)
    if plan is not None:
        cluster = FaultyCluster(cluster, plan)
    try:
        result = workload(job.subject).run(scale=job.scale, cluster=cluster)
    except JobFailedError:  # includes DataLossError
        return ChaosRun(plan, False, math.inf, False, {}, None, cluster)
    if not result.timelines:
        raise ValueError("chaos needs a clustered workload run")
    reference = job.solo.result if plan is not None else result
    return ChaosRun(
        plan,
        True,
        result.duration_s,
        repr(result.output) == repr(reference.output),
        aggregate_accounting(result.timelines),
        result,
        cluster,
    )


def _single_job(job: _Job, plan: FaultPlan | None, racks: int | None = None) -> ChaosRun:
    """The subject workload alone, through a :class:`FaultyCluster`."""
    if plan is None:
        return job.solo
    return _run_workload(job, plan, job.row.racks if racks is None else racks)


def _mix(job: _Job, plan: FaultPlan | None) -> ChaosRun:
    """The subject's trace through ``run_mix`` on 4 map / 2 reduce slots."""
    from repro.cluster.serve import percentile
    from repro.cluster.tenancy import run_mix

    result = run_mix(
        job.trace,
        make_scheduler(job.scheduler),
        num_slaves=job.row.slaves,
        map_slots=4,
        reduce_slots=2,
        block_size=job.row.block_size,
        plan=plan,
    )
    reference = job.baseline.result if plan is not None else result
    acct = result.outcome.fault_accounting
    return ChaosRun(
        plan,
        all(r.status == "completed" for r in result.outcome.reports),
        percentile([r.turnaround_s for r in result.reports], 99.0),
        repr(result.outputs) == repr(reference.outputs),
        acct.to_dict() if acct is not None else {},
        result,
    )


def _workflow(job: _Job, plan: WorkflowFaultPlan | None) -> ChaosRun:
    """The subject DAG through a :class:`WorkflowRunner`.

    A run completes when every stage ends as its plan allows: a stage
    whose injected failures exceed its retry budget fails, exactly its
    downstream cone is cancelled, and every other stage completes.
    """
    workflow = job.workflow
    cluster = make_cluster(job.row.slaves, block_size=job.row.block_size)
    result = WorkflowRunner(cluster, scheduler=job.scheduler, plan=plan).run(workflow)
    expected = dict.fromkeys(workflow.order, "completed")
    for name, times in plan.fail_stages if plan is not None else ():
        if times > workflow.stage(name).policy.max_retries:
            expected.update(dict.fromkeys(workflow.downstream_cone(name), "cancelled"))
            expected[name] = "failed"
    reference = job.baseline.result if plan is not None else result
    return ChaosRun(
        plan,
        all(r.status == expected[r.stage] for r in result.reports),
        result.end_s,
        result.status == "completed"
        and repr(result.outputs) == repr(reference.outputs),
        result.accounting.to_dict(),
        result,
        cluster,
    )


# -- plan factories ---------------------------------------------------------------


def _job_shape(base: ChaosRun) -> dict:
    """The first job's task counts, slaves and map window, for aiming faults."""
    first = base.result.timelines[0]
    return dict(
        num_maps=first.map_tasks,
        num_reduces=first.reduce_tasks,
        node_names=[node.name for node in base.cluster.slaves],
        map_window_s=first.map_phase_end_s - first.start_s,
    )


def _mixed_plans(job: _Job, base: ChaosRun) -> dict[str, FaultPlan]:
    return {"mixed": chaos_plan(job.rng, **_job_shape(base), seed=job.seed)}


def _integrity_plans(job: _Job, base: ChaosRun) -> dict[str, FaultPlan]:
    shape = _job_shape(base)
    return {"integrity": integrity_chaos_plan(
        job.rng, shape["node_names"], shape["map_window_s"], seed=job.seed
    )}


def _master_crash_plans(job: _Job, base: ChaosRun) -> dict[str, FaultPlan]:
    """The master dies once, mid-workload: cold restart vs journal replay."""
    timelines = base.result.timelines
    span = timelines[-1].end_s - timelines[0].start_s
    crash_time = span * job.rng.uniform(0.2, 0.8)
    return {
        mode: FaultPlan(master_crash_time=crash_time, master_recovery=mode, seed=job.seed)
        for mode in ("restart", "resume")
    }


def _rack_plans(mode: str, job: _Job, base: ChaosRun) -> dict[str, FaultPlan]:
    """One whole rack fails in the map phase; a flat twin loses its members.

    ``power`` crashes every member at once, ``tor`` partitions the rack
    for longer than the heartbeat timeout.  The flat twin expresses the
    same event as correlated crashes of the same nodes: flat round-robin
    placement puts consecutive replicas on consecutive nodes, so some
    blocks live entirely inside the victim set and are lost.
    """
    rng, topology = job.rng, base.cluster.topology
    map_window_s = _job_shape(base)["map_window_s"]
    victim = rng.choice(list(topology.racks))
    at = map_window_s * rng.uniform(0.3, 0.8)
    if mode == "power":
        outage = FaultPlan(rack_outages=((victim, at),), seed=job.seed)
    else:
        duration = map_window_s * rng.uniform(0.8, 1.2) + 2 * _POLICY.heartbeat_timeout_s
        outage = FaultPlan(tor_failures=((victim, at, duration),), seed=job.seed)
    members = topology.nodes_in(victim)
    flat = FaultPlan(node_crashes=tuple((name, at) for name in members), seed=job.seed)
    return {"outage": outage, "flat": flat}


def _fail_slow_plans(job: _Job, base: ChaosRun) -> dict[str, FaultPlan | None]:
    """The last slave limps 3x: the mix with speculation off, then on, and
    the subject alone, healthy and limping."""
    limp = ((slave_names(job.row.slaves)[-1], 3.0),)
    plan = FaultPlan(limping_nodes=limp, seed=job.seed)
    return {
        "limping": FaultPlan(speculative_execution=False, limping_nodes=limp, seed=job.seed),
        "speculative": plan,
        "solo": None,
        "solo-limping": plan,
    }


def _workflow_plans(job: _Job, base: ChaosRun) -> dict[str, WorkflowFaultPlan]:
    """A node crash, a partition, a lost stage output, an exhausted stage."""
    rng, seed, workflow = job.rng, job.seed, job.workflow
    names = slave_names(job.row.slaves)
    end_s = base.duration_s
    crash = (names[rng.randrange(len(names))], end_s * rng.uniform(0.2, 0.6))
    partitioned = names[rng.randrange(len(names))]
    start = end_s * rng.uniform(0.1, 0.4)
    partition = (partitioned, start, max(1.0, end_s * rng.uniform(0.2, 0.5)))
    # only a stage with consumers has an output still needed downstream
    destroyed = rng.choice([n for n in workflow.order if workflow.consumers_of(n)])
    failed = rng.choice(list(workflow.order))
    budget = workflow.stage(failed).policy.max_retries
    return {
        "crash": WorkflowFaultPlan(node_crashes=(crash,), seed=seed),
        "partition": WorkflowFaultPlan(partitions=(partition,), seed=seed),
        "corruption": WorkflowFaultPlan(destroy_outputs=(destroyed,), seed=seed),
        "cascade": WorkflowFaultPlan(fail_stages=((failed, budget + 1),), seed=seed),
    }


_SINGLE = dict(scale=0.3, slaves=4, block_size=64 * 1024)
_RACK = dict(scale=0.3, slaves=6, block_size=8 * 1024, racks=2,
             twins={"flat": partial(_single_job, racks=1)})

#: the chaos table: harness name → its row
HARNESSES: dict[str, Harness] = {
    "mixed": Harness(_single_job, _mixed_plans, None, **_SINGLE),
    "integrity": Harness(_single_job, _integrity_plans, "integrity:{seed}", **_SINGLE),
    "master-crash": Harness(_single_job, _master_crash_plans, None, **_SINGLE),
    "rack-power": Harness(_single_job, partial(_rack_plans, "power"),
                          "rack-chaos:power:{seed}", **_RACK),
    "rack-tor": Harness(_single_job, partial(_rack_plans, "tor"),
                        "rack-chaos:tor:{seed}", **_RACK),
    "fail-slow": Harness(_mix, _fail_slow_plans, "failslow-chaos:{seed}",
                         scale=0.12, slaves=3, block_size=64 * 1024,
                         twins={"solo": _single_job, "solo-limping": _single_job}),
    "workflow": Harness(_workflow, _workflow_plans,
                        "workflow-chaos:{subject}:{scheduler}:{seed}",
                        scale=0.05, slaves=4, block_size=_DAG_BLOCK_SIZE),
}


def run_chaos(
    harness: str,
    subject: str,
    seed: int,
    *,
    scale: float | None = None,
    scheduler: str = "fifo",
) -> ChaosResult:
    """Run *subject* fault-free, then under each plan of the *harness* row.

    *subject* is a workload name, or a ``WORKFLOW_DAGS`` name for the
    ``workflow`` row; *scale* defaults to the row's.  *scheduler*
    (``fifo`` or ``fair``) drives the ``fail-slow`` and ``workflow`` rows.
    """
    if harness not in HARNESSES:
        raise ValueError(f"unknown chaos harness {harness!r} "
                         f"(have: {', '.join(HARNESSES)})")
    if scheduler not in ("fifo", "fair"):
        raise ValueError(f"chaos runs the fifo or fair scheduler, not {scheduler!r}")
    row = HARNESSES[harness]
    stream = seed if row.stream is None else row.stream.format(
        subject=subject, scheduler=scheduler, seed=seed
    )
    scale = row.scale if scale is None else scale
    job = _Job(row, subject, scale, scheduler, seed, random.Random(stream))
    job.baseline = row.execute(job, None)
    runs = {
        label: row.twins.get(label, row.execute)(job, plan)
        for label, plan in row.plans(job, job.baseline).items()
    }
    return ChaosResult(harness, subject, seed, job.baseline, runs)
