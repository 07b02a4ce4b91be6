"""Chaos harness: seeded fault schedules over real workload executions.

Chen et al.'s cross-industry study (arXiv:1208.4174) shows production
MapReduce clusters run *permanently* in a degraded regime — tasks fail,
nodes die, fetches flake — yet jobs finish with correct output.  The
chaos harness asserts our model has the same property: it runs a real
workload through the :class:`~repro.mapreduce.engine.LocalEngine` twice —
once on a healthy cluster, once through a :class:`FaultyCluster` with a
seeded schedule mixing every fault class (task failures, stragglers, a
node crash, shuffle-fetch failures, replica loss) — and checks that

* the functional output is bit-identical to the fault-free run,
* the simulated duration is no shorter than the fault-free baseline,
* the resilience accounting shows the injected faults were actually hit.

Everything is seeded (``random.Random``), so a chaos run is exactly
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.attempts import JobFailedError, RetryPolicy
from repro.cluster.cluster import make_cluster, slave_names
from repro.cluster.faults import FaultPlan, FaultyCluster, aggregate_accounting


def chaos_plan(
    seed: int,
    num_maps: int,
    num_reduces: int,
    node_names: list[str],
    map_window_s: float | None = None,
    policy: RetryPolicy | None = None,
) -> FaultPlan:
    """Sample a mixed fault schedule for one job shape.

    Always injects at least one map failure; with seed-dependent
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
    rng = random.Random(seed)
    policy = policy or RetryPolicy()

    k = max(1, num_maps // 8)
    map_failures = tuple(sorted(rng.sample(range(num_maps), min(k, num_maps))))

    reduce_failures: tuple[int, ...] = ()
    if num_reduces and rng.random() < 0.7:
        reduce_failures = (rng.randrange(num_reduces),)

    straggler_nodes: tuple[str, ...] = ()
    straggler_factor = 4.0
    if len(node_names) > 1 and rng.random() < 0.6:
        straggler_nodes = (rng.choice(node_names),)
        straggler_factor = rng.uniform(2.0, 5.0)

    node_crashes: tuple[tuple[str, float], ...] = ()
    if map_window_s and len(node_names) > 2 and rng.random() < 0.5:
        victims = [n for n in node_names if n not in straggler_nodes]
        node_crashes = (
            (rng.choice(victims), map_window_s * rng.uniform(0.3, 0.8)),
        )

    shuffle_failures: tuple[tuple[int, int, int], ...] = ()
    if num_reduces and rng.random() < 0.7:
        times = rng.choice([1, 2, policy.max_fetch_retries + 1])
        shuffle_failures = (
            (rng.randrange(num_reduces), rng.randrange(num_maps), times),
        )

    lost_replicas: tuple[tuple[int, str], ...] = ()
    if rng.random() < 0.5:
        lost_replicas = ((rng.randrange(num_maps), rng.choice(node_names)),)

    return FaultPlan(
        map_failures=map_failures,
        reduce_failures=reduce_failures,
        straggler_nodes=straggler_nodes,
        straggler_factor=straggler_factor,
        node_crashes=node_crashes,
        shuffle_failures=shuffle_failures,
        lost_replicas=lost_replicas,
        seed=seed,
        policy=policy,
    )


@dataclass(frozen=True)
class ChaosResult:
    """Outcome of one chaos run compared with its fault-free twin."""

    workload: str
    seed: int
    plan: FaultPlan
    baseline_duration_s: float
    chaotic_duration_s: float
    identical_output: bool
    accounting: dict[str, object]

    @property
    def slowdown(self) -> float:
        if self.baseline_duration_s <= 0:
            return 1.0
        return self.chaotic_duration_s / self.baseline_duration_s


def run_chaos(
    workload_name: str,
    seed: int,
    scale: float = 0.3,
    num_slaves: int = 4,
    block_size: int = 64 * 1024,
    policy: RetryPolicy | None = None,
) -> ChaosResult:
    """Run *workload_name* healthy and under a seeded chaos schedule.

    The fault-free run both provides the comparison baseline and sizes the
    chaos plan (task counts, map-phase window for aiming the node crash).
    """
    from repro.workloads.base import workload as load_workload

    baseline_cluster = make_cluster(num_slaves, block_size=block_size)
    baseline = load_workload(workload_name).run(
        scale=scale, cluster=baseline_cluster
    )
    if not baseline.timelines:
        raise ValueError("chaos needs a clustered workload run")
    first = baseline.timelines[0]
    plan = chaos_plan(
        seed,
        num_maps=first.map_tasks,
        num_reduces=first.reduce_tasks,
        node_names=[node.name for node in baseline_cluster.slaves],
        map_window_s=first.map_phase_end_s - first.start_s,
        policy=policy,
    )

    chaos_cluster = FaultyCluster(
        make_cluster(num_slaves, block_size=block_size), plan
    )
    chaotic = load_workload(workload_name).run(scale=scale, cluster=chaos_cluster)

    return ChaosResult(
        workload=workload_name,
        seed=seed,
        plan=plan,
        baseline_duration_s=baseline.duration_s,
        chaotic_duration_s=chaotic.duration_s,
        identical_output=repr(baseline.output) == repr(chaotic.output),
        accounting=aggregate_accounting(chaotic.timelines),
    )


def integrity_chaos_plan(
    seed: int,
    num_maps: int,
    num_reduces: int,
    node_names: list[str],
    map_window_s: float | None = None,
    corruption_rate: float = 0.25,
    transfer_corruption_rate: float = 0.05,
    link_loss_rate: float = 0.02,
    policy: RetryPolicy | None = None,
) -> FaultPlan:
    """Sample a gray-failure schedule: bit rot, flaky links, one partition.

    Unlike :func:`chaos_plan` (fail-stop faults), everything here fails
    *silently*: replicas rot at rest, transfers flip bits in flight,
    links drop segments, and one tasktracker is partitioned during the
    map phase for longer than the heartbeat timeout — so it is declared
    lost, its tasks are rescheduled, and its zombie attempts must be
    fenced when it rejoins.  A post-job scrub is always on, so every
    injected corruption is detected by the end of the run.  The mix is
    bounded (a block's last good replica is never rotted) so a
    checksum-verifying scheduler always completes with correct output.
    """
    if num_maps < 1:
        raise ValueError("chaos needs at least one map task")
    if not node_names:
        raise ValueError("chaos needs at least one node")
    rng = random.Random(f"integrity:{seed}")
    policy = policy or RetryPolicy()

    partitions: tuple[tuple[str, float, float], ...] = ()
    if map_window_s and len(node_names) > 2:
        victim = rng.choice(node_names)
        p_start = map_window_s * rng.uniform(0.2, 0.6)
        # Longer than the heartbeat timeout, so the jobtracker notices
        # and the rejoining tracker produces fenceable zombies.
        duration = policy.heartbeat_timeout_s * rng.uniform(2.0, 4.0)
        partitions = ((victim, p_start, duration),)

    return FaultPlan(
        corruption_rate=corruption_rate,
        transfer_corruption_rate=transfer_corruption_rate,
        link_loss_rate=link_loss_rate,
        partitions=partitions,
        scrub=True,
        seed=seed,
        policy=policy,
    )


@dataclass(frozen=True)
class IntegrityChaosResult:
    """Outcome of one integrity chaos run vs its fault-free twin."""

    workload: str
    seed: int
    plan: FaultPlan
    baseline_duration_s: float
    chaotic_duration_s: float
    identical_output: bool
    corrupt_injected: int
    checksum_failures: int
    bad_blocks_reported: int
    undetected_corrupt_replicas: int
    zombie_attempts_fenced: int
    net_retransmits: int
    scrubbed_bytes: int
    accounting: dict[str, object]

    @property
    def all_corruption_detected(self) -> bool:
        """Every injected at-rest corruption was caught and repaired."""
        return (
            self.undetected_corrupt_replicas == 0
            and self.checksum_failures >= self.corrupt_injected
            and self.bad_blocks_reported >= self.corrupt_injected
        )


def run_integrity_chaos(
    workload_name: str,
    seed: int,
    scale: float = 0.3,
    num_slaves: int = 4,
    block_size: int = 64 * 1024,
    policy: RetryPolicy | None = None,
) -> IntegrityChaosResult:
    """Run *workload_name* healthy and under a gray-failure schedule.

    The fault-free run provides the output baseline and sizes the plan
    (map-phase window for aiming the partition).  The caller asserts the
    chaotic output stays bit-identical and no corruption goes undetected
    (``undetected_corrupt_replicas == 0`` after the final scrub).
    """
    from repro.workloads.base import workload as load_workload

    baseline_cluster = make_cluster(num_slaves, block_size=block_size)
    baseline = load_workload(workload_name).run(
        scale=scale, cluster=baseline_cluster
    )
    if not baseline.timelines:
        raise ValueError("chaos needs a clustered workload run")
    first = baseline.timelines[0]
    plan = integrity_chaos_plan(
        seed,
        num_maps=first.map_tasks,
        num_reduces=first.reduce_tasks,
        node_names=[node.name for node in baseline_cluster.slaves],
        map_window_s=first.map_phase_end_s - first.start_s,
        policy=policy,
    )

    chaos_cluster = FaultyCluster(
        make_cluster(num_slaves, block_size=block_size), plan
    )
    chaotic = load_workload(workload_name).run(scale=scale, cluster=chaos_cluster)
    accounting = aggregate_accounting(chaotic.timelines)

    return IntegrityChaosResult(
        workload=workload_name,
        seed=seed,
        plan=plan,
        baseline_duration_s=baseline.duration_s,
        chaotic_duration_s=chaotic.duration_s,
        identical_output=repr(baseline.output) == repr(chaotic.output),
        corrupt_injected=int(accounting["corrupt_replicas_injected"]),
        checksum_failures=int(accounting["checksum_failures"]),
        bad_blocks_reported=int(accounting["bad_blocks_reported"]),
        undetected_corrupt_replicas=chaos_cluster.hdfs.corrupt_replica_count,
        zombie_attempts_fenced=int(accounting["zombie_attempts_fenced"]),
        net_retransmits=int(accounting["net_retransmits"]),
        scrubbed_bytes=int(accounting["scrubbed_bytes"]),
        accounting=accounting,
    )


@dataclass(frozen=True)
class MasterCrashResult:
    """Outcome of one master-crash chaos run: both recovery modes vs healthy.

    Each recovery mode runs the same workload with the JobTracker/NameNode
    crashing at the same mid-job instant; what differs is whether the
    restarted master replays the job-history journal (``resume``) or
    re-submits the in-flight job from scratch (``restart``).
    """

    workload: str
    seed: int
    crash_time_s: float
    baseline_duration_s: float
    restart_duration_s: float
    resume_duration_s: float
    restart_identical: bool
    resume_identical: bool
    restart_accounting: dict[str, object]
    resume_accounting: dict[str, object]

    @property
    def resume_beats_restart(self) -> bool:
        return self.resume_duration_s <= self.restart_duration_s

    @property
    def recovery_savings_s(self) -> float:
        """Wall-clock the job-history journal saved over a cold restart."""
        return self.restart_duration_s - self.resume_duration_s


def run_master_crash_chaos(
    workload_name: str,
    seed: int,
    scale: float = 0.3,
    num_slaves: int = 4,
    block_size: int = 64 * 1024,
    downtime_s: float = 0.75,
    policy: RetryPolicy | None = None,
) -> MasterCrashResult:
    """Kill the master mid-workload and compare both recovery modes.

    The fault-free run sizes the schedule: the crash is aimed (seeded)
    inside the workload's span so it lands mid-job.  Both recovery modes
    then run the identical schedule; the harness caller asserts outputs
    stay bit-identical and ``resume`` never loses to ``restart``.
    """
    from repro.workloads.base import workload as load_workload

    baseline_cluster = make_cluster(num_slaves, block_size=block_size)
    baseline = load_workload(workload_name).run(
        scale=scale, cluster=baseline_cluster
    )
    if not baseline.timelines:
        raise ValueError("chaos needs a clustered workload run")
    span = baseline.timelines[-1].end_s - baseline.timelines[0].start_s
    rng = random.Random(seed)
    crash_time = span * rng.uniform(0.2, 0.8)

    runs: dict[str, object] = {}
    for mode in ("restart", "resume"):
        plan = FaultPlan(
            master_crash_time=crash_time,
            master_recovery=mode,
            master_downtime_s=downtime_s,
            seed=seed,
            policy=policy or RetryPolicy(),
        )
        cluster = FaultyCluster(
            make_cluster(num_slaves, block_size=block_size), plan
        )
        runs[mode] = load_workload(workload_name).run(
            scale=scale, cluster=cluster
        )

    return MasterCrashResult(
        workload=workload_name,
        seed=seed,
        crash_time_s=crash_time,
        baseline_duration_s=baseline.duration_s,
        restart_duration_s=runs["restart"].duration_s,
        resume_duration_s=runs["resume"].duration_s,
        restart_identical=repr(baseline.output) == repr(runs["restart"].output),
        resume_identical=repr(baseline.output) == repr(runs["resume"].output),
        restart_accounting=aggregate_accounting(runs["restart"].timelines),
        resume_accounting=aggregate_accounting(runs["resume"].timelines),
    )


@dataclass(frozen=True)
class FailSlowChaosResult:
    """Outcome of one fail-slow chaos run: a limping node, three mixes.

    The same job trace runs fault-free, with one limping node and
    speculation off, and with the same limping node and speculation on.
    A fail-slow node completes everything it is given — slowly — so the
    damage shows up in tail latency, not in failures; the mitigation
    claim is that straggler detection plus speculative backups claws
    most of that tail back while the commit fence keeps exactly one
    attempt's output per task.
    """

    workload: str
    seed: int
    scheduler: str
    limping_node: str
    limp_factor: float
    baseline_p99_s: float
    limping_p99_s: float
    speculative_p99_s: float
    identical_outputs: bool
    single_job_identical: bool
    single_job_slowdown: float
    stragglers_detected: tuple[str, ...]
    speculative_attempts: int
    speculative_wins: int
    speculative_losers_fenced: int
    zombies_fenced: int
    fence_fenced: int

    @property
    def limping_slowdown(self) -> float:
        """How much the limping node inflated the mix p99 (speculation off)."""
        if self.baseline_p99_s <= 0:
            return 1.0
        return self.limping_p99_s / self.baseline_p99_s

    @property
    def recovered_fraction(self) -> float:
        """Share of the fail-slow p99 inflation speculation clawed back."""
        inflation = self.limping_p99_s - self.baseline_p99_s
        if inflation <= 0:
            return 1.0
        return (self.limping_p99_s - self.speculative_p99_s) / inflation

    @property
    def every_loser_fenced(self) -> bool:
        """Each speculative race fenced exactly one losing attempt."""
        return (
            self.speculative_losers_fenced == self.speculative_attempts
            and self.fence_fenced
            == self.zombies_fenced + self.speculative_losers_fenced
        )


def run_fail_slow_chaos(
    workload_name: str = "Sort",
    seed: int = 0,
    scheduler: str = "fifo",
    jobs: int = 5,
    scale: float = 0.12,
    num_slaves: int = 3,
    map_slots: int = 4,
    reduce_slots: int = 2,
    block_size: int = 64 * 1024,
    limp_factor: float = 3.0,
) -> FailSlowChaosResult:
    """Run a job trace against a limping node, with and without speculation.

    Builds a trace of *jobs* identical jobs with seeded staggered
    arrivals, limps the last slave's CPU/disk/NIC by *limp_factor*, and
    plays the trace three ways (fault-free, limping with speculation
    off, limping with speculation on) under the named scheduler.  Also
    runs the workload solo through a limping :class:`FaultyCluster` to
    check functional output is untouched by fail-slow hardware.
    """
    from repro.cluster.scheduler import FairScheduler, FifoScheduler
    from repro.cluster.tenancy import TraceJob, WorkloadTrace, run_mix, solo_run
    from repro.workloads.base import workload as load_workload

    if jobs < 1:
        raise ValueError("chaos needs at least one trace job")
    makers = {"fifo": FifoScheduler, "fair": FairScheduler}
    if scheduler not in makers:
        raise ValueError("scheduler must be fifo or fair")
    victim = slave_names(num_slaves)[-1]
    limp = ((victim, limp_factor),)

    plain_s, _, plain_output = solo_run(
        workload_name, scale, num_slaves=num_slaves, block_size=block_size
    )
    solo_limping = load_workload(workload_name).run(
        scale=scale,
        cluster=FaultyCluster(
            make_cluster(num_slaves, block_size=block_size),
            FaultPlan(limping_nodes=limp, seed=seed),
        ),
    )

    # Space arrivals just past the healthy solo duration: a fault-free
    # cluster keeps up with the offered load, a limping one falls
    # steadily behind — the fail-slow failure mode is a latency tail
    # that compounds, and mitigation has idle healthy slots to race on.
    rng = random.Random(f"failslow-chaos:{seed}")
    arrival = 0.0
    trace_jobs = []
    for index in range(jobs):
        trace_jobs.append(
            TraceJob(
                index,
                workload_name,
                scale,
                arrival,
                f"user{index % 3}",
                "batch",
                "small",
            )
        )
        arrival += plain_s * rng.uniform(1.05, 1.25)
    trace = WorkloadTrace(tuple(trace_jobs), seed=seed, arrival_rate_per_s=0.0)
    shape = dict(
        num_slaves=num_slaves,
        map_slots=map_slots,
        reduce_slots=reduce_slots,
        block_size=block_size,
    )

    def p99(mix) -> float:
        from repro.cluster.serve import percentile

        return percentile([r.turnaround_s for r in mix.reports], 99.0)

    baseline = run_mix(trace, makers[scheduler](), **shape)
    limping = run_mix(
        trace,
        makers[scheduler](),
        plan=FaultPlan(
            speculative_execution=False, limping_nodes=limp, seed=seed
        ),
        **shape,
    )
    speculative = run_mix(
        trace,
        makers[scheduler](),
        plan=FaultPlan(limping_nodes=limp, seed=seed),
        **shape,
    )
    acct = speculative.outcome.fault_accounting

    return FailSlowChaosResult(
        workload=workload_name,
        seed=seed,
        scheduler=scheduler,
        limping_node=victim,
        limp_factor=limp_factor,
        baseline_p99_s=p99(baseline),
        limping_p99_s=p99(limping),
        speculative_p99_s=p99(speculative),
        identical_outputs=(
            repr(limping.outputs) == repr(baseline.outputs)
            and repr(speculative.outputs) == repr(baseline.outputs)
        ),
        single_job_identical=repr(plain_output) == repr(solo_limping.output),
        single_job_slowdown=(
            solo_limping.duration_s / plain_s if plain_s > 0 else 1.0
        ),
        stragglers_detected=acct.stragglers_detected,
        speculative_attempts=acct.speculative_attempts,
        speculative_wins=acct.speculative_wins,
        speculative_losers_fenced=acct.speculative_losers_fenced,
        zombies_fenced=acct.zombies_fenced,
        fence_fenced=speculative.outcome.fenced_attempts,
    )


@dataclass(frozen=True)
class OverloadChaosResult:
    """Outcome of one overload chaos run: protected vs unprotected frontend.

    The same saturating open-loop arrival stream plays twice: once
    through a frontend with admission control, shedding and deadlines,
    once through an anything-goes frontend.  Graceful degradation means
    the protected frontend holds its admitted-traffic p99 near the
    deadline while the unprotected queue — and its p99 — grows without
    bound.
    """

    seed: int
    rate_per_s: float
    num_requests: int
    servers: int
    pattern: str
    deadline_s: float
    protected: object  # ServeReport
    unprotected: object  # ServeReport

    @property
    def p99_gap_s(self) -> float:
        return self.unprotected.p99_s - self.protected.p99_s

    @property
    def ordering_holds(self) -> bool:
        """The degradation ordering the controls are supposed to buy."""
        return self.protected.p99_s < self.unprotected.p99_s


def run_overload_chaos(
    seed: int = 0,
    rate_per_s: float = 40.0,
    num_requests: int = 600,
    servers: int = 4,
    pattern: str = "bursty",
    deadline_s: float = 2.0,
) -> OverloadChaosResult:
    """Saturate a service frontend with and without degradation controls.

    The defaults offer ~2.4x the bank's capacity (mean demand 0.24 s,
    4 servers ≈ 16.7 req/s) in bursts, so the unprotected queue grows
    essentially without bound while the protected frontend sheds its
    way to a bounded admitted-traffic p99.
    """
    from repro.cluster.serve import ArrivalProcess, ServePolicy, run_service

    process = ArrivalProcess(rate_per_s=rate_per_s, pattern=pattern)
    protected_policy = ServePolicy(
        deadline_s=deadline_s,
        max_queue_depth=32,
        shed_rate=0.5,
        shed_threshold=8,
        retry_budget=1,
    )
    protected = run_service(
        process=process,
        num_requests=num_requests,
        servers=servers,
        policy=protected_policy,
        seed=seed,
    )
    unprotected = run_service(
        process=process,
        num_requests=num_requests,
        servers=servers,
        policy=ServePolicy.unprotected(deadline_s=deadline_s),
        seed=seed,
    )
    return OverloadChaosResult(
        seed=seed,
        rate_per_s=rate_per_s,
        num_requests=num_requests,
        servers=servers,
        pattern=pattern,
        deadline_s=deadline_s,
        protected=protected,
        unprotected=unprotected,
    )


@dataclass(frozen=True)
class WorkflowChaosResult:
    """Outcome of one workflow chaos run: one DAG, four fault regimes.

    The same DAG runs fault-free, then under a mid-workflow node crash,
    a network partition, and total replica corruption of one completed
    stage's output.  A workflow's functional output is the payload each
    sink commits, so "survived" means every faulted run completed with
    sink outputs bit-identical to the baseline — corruption via lineage
    recomputation of the minimal upstream subgraph rather than a
    :class:`DataLossError`.  A fifth run exhausts one stage's retry
    budget and checks failure propagation: exactly the downstream cone
    is cancelled, every independent stage still completes.
    """

    dag: str
    seed: int
    scheduler: str
    stages: int
    baseline_end_s: float
    crash_node: str
    crash_at_s: float
    partition_node: str
    destroyed_stage: str
    crash_identical: bool
    partition_identical: bool
    corruption_identical: bool
    lineage_recomputes: int
    destroyed_outputs: int
    failed_stage: str
    stage_retries: int
    cancelled_stages: tuple[str, ...]
    surviving_stages: tuple[str, ...]
    cone_exact: bool
    checkpoints: int

    @property
    def identical_outputs(self) -> bool:
        """Every fault regime reproduced the baseline sink outputs."""
        return (
            self.crash_identical
            and self.partition_identical
            and self.corruption_identical
        )

    @property
    def survived(self) -> bool:
        """The workflow-robustness contract held under every regime."""
        return (
            self.identical_outputs
            and self.lineage_recomputes >= 1
            and self.destroyed_outputs >= 1
            and self.stage_retries >= 1
            and self.cone_exact
        )


def run_workflow_chaos(
    dag: str = "hive-chain",
    seed: int = 0,
    scheduler: str = "fifo",
    scale: float = 0.05,
    num_slaves: int = 4,
) -> WorkflowChaosResult:
    """Run one DAG through the workflow fault regimes, seeded.

    Builds the named DAG (see ``WORKFLOW_DAGS``), runs it fault-free
    for the baseline, then replays it under a seeded node crash, a
    seeded partition, replica corruption of a seeded non-sink stage's
    output, and an injected permanent stage failure.  Each regime gets
    a fresh cluster, so runs are independent and exactly reproducible.
    """
    from repro.cluster.workflow import (
        _DAG_BLOCK_SIZE,
        WorkflowFaultPlan,
        WorkflowRunner,
        build_workflow,
    )

    workflow = build_workflow(dag, scale=scale, num_slaves=num_slaves)
    rng = random.Random(f"workflow-chaos:{dag}:{scheduler}:{seed}")

    def fresh():
        return make_cluster(num_slaves=num_slaves, block_size=_DAG_BLOCK_SIZE)

    def run(plan=None):
        return WorkflowRunner(fresh(), scheduler=scheduler, plan=plan).run(
            workflow
        )

    baseline = run()
    if baseline.status != "completed":
        raise RuntimeError(f"baseline workflow {dag!r} did not complete")

    # Mid-workflow fail-stop crash of a seeded datanode.
    crash_node = slave_names(num_slaves)[rng.randrange(num_slaves)]
    crash_at = baseline.end_s * rng.uniform(0.2, 0.6)
    crashed = run(WorkflowFaultPlan(node_crashes=((crash_node, crash_at),), seed=seed))

    # Network partition of a seeded node across the middle of the run.
    partition_node = slave_names(num_slaves)[rng.randrange(num_slaves)]
    start = baseline.end_s * rng.uniform(0.1, 0.4)
    duration = max(1.0, baseline.end_s * rng.uniform(0.2, 0.5))
    partitioned = run(
        WorkflowFaultPlan(
            partitions=((partition_node, start, duration),), seed=seed
        )
    )

    # Total replica loss of one completed, still-needed stage output.
    candidates = [
        name for name in workflow.order if workflow.consumers_of(name)
    ]
    destroyed_stage = rng.choice(candidates)
    corrupted = run(
        WorkflowFaultPlan(destroy_outputs=(destroyed_stage,), seed=seed)
    )

    # Permanent failure: exhaust the retry budget of a seeded stage and
    # check exactly its downstream cone is cancelled.
    failed_stage = rng.choice(list(workflow.order))
    budget = workflow.stage(failed_stage).policy.max_retries
    cascaded = run(
        WorkflowFaultPlan(fail_stages=((failed_stage, budget + 1),), seed=seed)
    )
    cone = set(workflow.downstream_cone(failed_stage))
    cancelled = tuple(
        r.stage for r in cascaded.reports if r.status == "cancelled"
    )
    survivors = tuple(
        r.stage for r in cascaded.reports if r.status == "completed"
    )
    cone_exact = set(cancelled) == cone and set(survivors) == (
        set(workflow.order) - cone - {failed_stage}
    )

    def identical(result) -> bool:
        return (
            result.status == "completed"
            and repr(result.outputs) == repr(baseline.outputs)
        )

    return WorkflowChaosResult(
        dag=dag,
        seed=seed,
        scheduler=scheduler,
        stages=len(workflow),
        baseline_end_s=baseline.end_s,
        crash_node=crash_node,
        crash_at_s=crash_at,
        partition_node=partition_node,
        destroyed_stage=destroyed_stage,
        crash_identical=identical(crashed),
        partition_identical=identical(partitioned),
        corruption_identical=identical(corrupted),
        lineage_recomputes=corrupted.accounting.lineage_recomputes,
        destroyed_outputs=corrupted.accounting.destroyed_outputs,
        failed_stage=failed_stage,
        stage_retries=cascaded.accounting.stage_retries,
        cancelled_stages=cancelled,
        surviving_stages=survivors,
        cone_exact=cone_exact,
        checkpoints=baseline.accounting.checkpoints,
    )


# -- failure domains: rack-level chaos -----------------------------------------


def _blocks_lost_to(hdfs, failed_nodes) -> int:
    """Blocks in *hdfs* with no replica outside *failed_nodes*.

    Counts both blocks already emptied by processed ``fail_node`` calls
    and blocks whose every remaining replica sits inside the failed
    domain (a run that aborts on :class:`DataLossError` stops processing
    crashes, so some doomed replicas are still on the books).
    """
    failed = frozenset(failed_nodes)
    return sum(
        1
        for name in hdfs.files
        for block in hdfs.files[name].blocks
        if all(replica in failed for replica in block.replicas)
    )


@dataclass(frozen=True)
class RackChaosResult:
    """Outcome of losing one whole rack, rack-aware vs flat placement.

    The headline failure-domain contract: with rack-aware placement a
    full single-rack outage (:attr:`survived`) costs zero data and the
    output stays bit-identical to the fault-free run, while *flat*
    placement on the same cluster shape and seed demonstrably loses
    blocks (:attr:`flat_demonstrably_loses`) — every replica of some
    blocks lived inside the failed domain.
    """

    workload: str
    seed: int
    #: ``"power"`` (all nodes crash) or ``"tor"`` (timed rack partition).
    mode: str
    racks: int
    victim_rack: str
    outage_at_s: float
    plan: FaultPlan
    flat_plan: FaultPlan
    baseline_duration_s: float
    chaotic_duration_s: float
    identical_output: bool
    #: unrecoverable blocks after the rack-aware run (the contract: 0).
    rack_blocks_lost: int
    #: the namenode's rack-diversity gauge after the rack-aware run.
    rack_under_diverse_blocks: int
    #: whether the flat-placement twin even completed its jobs.
    flat_completed: bool
    #: unrecoverable blocks after the flat-placement twin.
    flat_blocks_lost: int
    accounting: dict[str, object]

    @property
    def survived(self) -> bool:
        """Rack-aware placement rode out the rack loss with zero data loss."""
        return self.identical_output and self.rack_blocks_lost == 0

    @property
    def flat_demonstrably_loses(self) -> bool:
        """The flat twin lost blocks (or aborted on unreadable data)."""
        return self.flat_blocks_lost >= 1 or not self.flat_completed

    @property
    def slowdown(self) -> float:
        if self.baseline_duration_s <= 0:
            return 1.0
        return self.chaotic_duration_s / self.baseline_duration_s


def run_rack_chaos(
    workload_name: str,
    seed: int,
    scale: float = 0.3,
    num_slaves: int = 6,
    racks: int = 2,
    block_size: int = 8 * 1024,
    mode: str = "power",
    policy: RetryPolicy | None = None,
) -> RackChaosResult:
    """Kill one whole rack mid-run; compare rack-aware vs flat placement.

    Three executions, all seeded:

    1. a fault-free run on a rack-aware cluster — the output baseline,
       and the sizing for the outage time (aimed inside the map phase);
    2. the same rack-aware cluster under the rack outage (``mode="power"``
       crashes every member at once; ``mode="tor"`` partitions the rack
       for a window longer than the heartbeat timeout);
    3. a *flat* (single-rack, topology-less) twin whose members of the
       same victim set all crash at the same instant — flat round-robin
       placement puts consecutive replicas on consecutive nodes, so some
       blocks live entirely inside the victim set and are lost.
    """
    from repro.workloads.base import workload as load_workload

    if mode not in ("power", "tor"):
        raise ValueError("mode must be 'power' or 'tor'")
    if racks < 2:
        raise ValueError("rack chaos needs at least two racks")
    policy = policy or RetryPolicy()

    baseline_cluster = make_cluster(num_slaves, block_size=block_size, racks=racks)
    baseline = load_workload(workload_name).run(
        scale=scale, cluster=baseline_cluster
    )
    if not baseline.timelines:
        raise ValueError("rack chaos needs a clustered workload run")
    first = baseline.timelines[0]
    map_window_s = first.map_phase_end_s - first.start_s

    rng = random.Random(f"rack-chaos:{mode}:{seed}")
    victim_rack = rng.choice(list(baseline_cluster.topology.racks))
    members = baseline_cluster.topology.nodes_in(victim_rack)
    outage_at = map_window_s * rng.uniform(0.3, 0.8)

    if mode == "power":
        plan = FaultPlan(
            rack_outages=((victim_rack, outage_at),), seed=seed, policy=policy
        )
    else:
        duration = (
            map_window_s * rng.uniform(0.8, 1.2) + 2 * policy.heartbeat_timeout_s
        )
        plan = FaultPlan(
            tor_failures=((victim_rack, outage_at, duration),),
            seed=seed,
            policy=policy,
        )

    chaos_cluster = FaultyCluster(
        make_cluster(num_slaves, block_size=block_size, racks=racks), plan
    )
    chaotic = load_workload(workload_name).run(scale=scale, cluster=chaos_cluster)

    # The flat twin: same cluster shape, no topology, and the same
    # physical event expressed as correlated per-node crashes.
    flat_plan = FaultPlan(
        node_crashes=tuple((name, outage_at) for name in members),
        seed=seed,
        policy=policy,
    )
    flat_cluster = FaultyCluster(
        make_cluster(num_slaves, block_size=block_size), flat_plan
    )
    flat_completed = True
    try:
        load_workload(workload_name).run(scale=scale, cluster=flat_cluster)
    except JobFailedError:  # includes DataLossError
        flat_completed = False

    return RackChaosResult(
        workload=workload_name,
        seed=seed,
        mode=mode,
        racks=racks,
        victim_rack=victim_rack,
        outage_at_s=outage_at,
        plan=plan,
        flat_plan=flat_plan,
        baseline_duration_s=baseline.duration_s,
        chaotic_duration_s=chaotic.duration_s,
        identical_output=repr(baseline.output) == repr(chaotic.output),
        rack_blocks_lost=_blocks_lost_to(
            chaos_cluster.hdfs, members if mode == "power" else ()
        ),
        rack_under_diverse_blocks=chaos_cluster.hdfs.rack_under_diverse_blocks,
        flat_completed=flat_completed,
        flat_blocks_lost=_blocks_lost_to(flat_cluster.hdfs, members),
        accounting=aggregate_accounting(chaotic.timelines),
    )
