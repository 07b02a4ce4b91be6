"""Event-driven DAG workflows with lineage-based recovery.

The paper's workloads are not isolated jobs: Hive-bench queries compile
to chained MapReduce stages, and the iterative analytics (K-means,
PageRank, HMM, IBCF) are convergence loops over intermediate HDFS state.
This module adds the orchestration layer above
:class:`~repro.cluster.scheduler.MultiJobCluster` that production
multi-stage pipelines need:

* :class:`Stage` / :class:`Workflow` — a DAG of named stages with
  arbitrary fan-in/fan-out; each stage's cross-stage data dependency is
  an HDFS path (its upstream stages' committed outputs), and each stage
  carries a :class:`StagePolicy` retry budget.
* :class:`WorkflowRunner` — level-synchronized execution: every wave of
  ready stages runs as one mix on the shared cluster, and the runner
  reacts to outcomes through the workflow event bus.  Its robustness
  repertoire:

  - **retries-as-events** — a failed stage is re-submitted under
    bounded exponential backoff (``stage-retry`` events), a budget
    *distinct from* task-attempt retries inside the stage;
  - **lineage-based recomputation** — each stage records its
    input/output lineage as HDFS files; when faults destroy every
    replica of a completed stage's output before a consumer reads it,
    the runner re-executes the *minimal* upstream subgraph (``heal``
    events) instead of raising
    :class:`~repro.cluster.attempts.DataLossError`;
  - **failure propagation** — a stage that exhausts its retry budget
    cancels exactly its downstream cone; independent branches run to
    completion;
  - **workflow checkpoints** — stage commits ride on
    :class:`~repro.cluster.journal.WorkflowJournal`, so a JobTracker
    crash mid-DAG resumes from the journal re-running zero completed
    stages (asserted via :class:`WorkflowAccounting`).

Like the shadow-run idiom in :mod:`repro.cluster.tenancy`, a stage's
*functional* output is its ``payload`` (computed fault-free at DAG build
time); the cluster models *when* stages finish and *whether* their data
survives.  A workflow "produces bit-identical outputs under faults" when
every sink commits the same payload the fault-free run commits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cluster.attempts import RetryPolicy
from repro.cluster.cluster import HadoopCluster, JobWork
from repro.cluster.eventbus import (
    EVENT_CHECKPOINT,
    EVENT_HEAL,
    EVENT_JOB_CANCELLED,
    EVENT_JOB_FINISHED,
    EVENT_STAGE_FAILED,
    EVENT_STAGE_READY,
    EVENT_STAGE_RETRY,
    EVENT_SUBMIT,
    EventBus,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.journal import WorkflowJournal, WorkflowStageRecord
from repro.cluster.scheduler import MultiJobCluster, Scheduler, make_scheduler
from repro.cluster.tenancy import solo_run

__all__ = [
    "StagePolicy",
    "Stage",
    "Workflow",
    "WorkflowFaultPlan",
    "WorkflowAccounting",
    "StageReport",
    "WorkflowResult",
    "WorkflowCheckpoint",
    "WorkflowRunner",
    "workflow_from_chain",
    "build_workflow",
    "WORKFLOW_DAGS",
]


@dataclass(frozen=True)
class StagePolicy:
    """Stage-level retry budget (distinct from task-attempt retries).

    A stage that fails permanently at the job level (every task-attempt
    budget inside it exhausted, or no live node) may be re-executed as a
    whole up to *max_retries* times, waiting ``backoff_s *
    backoff_factor**k`` before re-submission — the orchestrator-level
    analogue of ``mapred.map.max.attempts``.
    """

    max_retries: int = 2
    backoff_s: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not (self.backoff_s >= 0 and math.isfinite(self.backoff_s)):
            raise ValueError("backoff_s must be finite and non-negative")
        if not (self.backoff_factor >= 1 and math.isfinite(self.backoff_factor)):
            raise ValueError("backoff_factor must be at least 1")

    def retry_delay_s(self, failures: int) -> float:
        """Backoff before re-submission after the *failures*-th failure."""
        if failures < 1:
            raise ValueError("retry delay is defined after at least one failure")
        return self.backoff_s * self.backoff_factor ** (failures - 1)


@dataclass(frozen=True)
class Stage:
    """One DAG node: a MapReduce job plus its data-dependency edges.

    ``deps`` names upstream stages; the stage's inputs are their
    ``output`` HDFS paths.  ``payload`` is the stage's functional result
    (the shadow-run idiom); ``output_bytes`` sizes the committed HDFS
    output file for the lineage model.
    """

    name: str
    work: JobWork
    deps: tuple[str, ...] = ()
    output: str = ""
    output_bytes: int = 0
    payload: object = None
    policy: StagePolicy = StagePolicy()
    user: str = "default"
    pool: str = "default"

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip():
            raise ValueError("stage name must be a non-empty trimmed string")
        if len(set(self.deps)) != len(self.deps):
            raise ValueError(f"stage {self.name!r} lists a duplicate dependency")
        if self.name in self.deps:
            raise ValueError(f"stage {self.name!r} depends on itself")
        if self.output_bytes < 0:
            raise ValueError("output_bytes must be non-negative")
        if not self.output:
            object.__setattr__(self, "output", f"wf/{self.name}.out")
        if not self.output_bytes:
            work = self.work
            size = sum(r.output_bytes for r in work.reduces) or sum(
                m.output_bytes for m in work.maps
            )
            object.__setattr__(self, "output_bytes", max(size, 1))


class Workflow:
    """A named, validated DAG of :class:`Stage` nodes.

    Validation happens at construction: unique stage names, known
    dependencies, unique output paths, and acyclicity (a topological
    order is computed once and drives every runner iteration, so
    execution order is deterministic).
    """

    def __init__(self, name: str, stages) -> None:
        if not name or name != name.strip():
            raise ValueError("workflow name must be a non-empty trimmed string")
        stages = list(stages)
        if not stages:
            raise ValueError("a workflow needs at least one stage")
        self.name = name
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            self.stages[stage.name] = stage
        outputs = [s.output for s in stages]
        if len(set(outputs)) != len(outputs):
            raise ValueError("stage output paths must be unique")
        for stage in stages:
            for dep in stage.deps:
                if dep not in self.stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        self.order = self._topo_order()

    def _topo_order(self) -> tuple[str, ...]:
        # Kahn's algorithm, stable in declaration order.
        indegree = {name: len(s.deps) for name, s in self.stages.items()}
        ready = [name for name in self.stages if indegree[name] == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for other, stage in self.stages.items():
                if name in stage.deps:
                    indegree[other] -= 1
                    if indegree[other] == 0:
                        ready.append(other)
        if len(order) != len(self.stages):
            cyclic = sorted(set(self.stages) - set(order))
            raise ValueError(f"workflow has a dependency cycle through {cyclic}")
        return tuple(order)

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[name]
        except KeyError:
            raise KeyError(f"no such stage: {name!r}") from None

    def sources(self) -> tuple[str, ...]:
        return tuple(n for n in self.order if not self.stages[n].deps)

    def sinks(self) -> tuple[str, ...]:
        consumed = {dep for s in self.stages.values() for dep in s.deps}
        return tuple(n for n in self.order if n not in consumed)

    def consumers_of(self, name: str) -> tuple[str, ...]:
        self.stage(name)
        return tuple(
            n for n in self.order if name in self.stages[n].deps
        )

    def downstream_cone(self, name: str) -> tuple[str, ...]:
        """Every stage that transitively depends on *name* (excluded)."""
        self.stage(name)
        cone: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for consumer in self.consumers_of(current):
                if consumer not in cone:
                    cone.add(consumer)
                    frontier.append(consumer)
        return tuple(n for n in self.order if n in cone)

    def upstream_closure(self, name: str) -> tuple[str, ...]:
        """Every stage *name* transitively depends on (excluded)."""
        closure: set[str] = set()
        frontier = list(self.stage(name).deps)
        while frontier:
            current = frontier.pop()
            if current not in closure:
                closure.add(current)
                frontier.extend(self.stage(current).deps)
        return tuple(n for n in self.order if n in closure)

    def __len__(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class WorkflowFaultPlan:
    """The fault schedule a workflow run honours.

    Times are relative to the workflow's start (the cluster clock when
    :meth:`WorkflowRunner.run` is entered).  Attributes:

    * ``node_crashes`` — fail-stop ``(node, at_s)`` crashes; the dead
      node's HDFS replicas drop, which is what makes stage outputs
      losable.
    * ``partitions`` — ``(node, start_s, duration_s)`` network splits.
    * ``destroy_outputs`` — stage names whose committed output loses
      *every* replica immediately after the stage completes (the
      pathological window lineage recomputation exists for).
    * ``fail_stages`` — ``(stage, n)`` injected stage-commit failures:
      the stage's first *n* executions are failed at commit, exercising
      the stage-retry budget (and, when ``n`` exceeds it, permanent
      failure + downstream cancellation) deterministically.
    * ``master_crash_after`` — crash the JobTracker right after this
      stage's wave commits; the runner resumes the half-finished DAG
      from its :class:`~repro.cluster.journal.WorkflowJournal`.
    """

    node_crashes: tuple[tuple[str, float], ...] = ()
    partitions: tuple[tuple[str, float, float], ...] = ()
    destroy_outputs: tuple[str, ...] = ()
    fail_stages: tuple[tuple[str, int], ...] = ()
    master_crash_after: str | None = None
    seed: int = 0
    policy: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        for name, at in self.node_crashes:
            if not name or not math.isfinite(at) or at < 0:
                raise ValueError("node crashes need a node and a finite time >= 0")
        for name, start, duration in self.partitions:
            if not name or not math.isfinite(start) or start < 0:
                raise ValueError("partitions need a node and a start >= 0")
            if not math.isfinite(duration) or duration <= 0:
                raise ValueError("partition duration must be positive")
        for stage, n in self.fail_stages:
            if not stage or n < 1:
                raise ValueError("fail_stages entries need a stage and n >= 1")
        if len({s for s, _ in self.fail_stages}) != len(self.fail_stages):
            raise ValueError("duplicate stage in fail_stages")


@dataclass
class WorkflowAccounting:
    """What the orchestrator did during one workflow run."""

    waves: int = 0
    stages_run: int = 0
    stage_retries: int = 0
    lineage_recomputes: int = 0
    stages_cancelled: int = 0
    stages_failed: int = 0
    checkpoints: int = 0
    master_crashes: int = 0
    #: completed stages a post-crash resume recovered from the journal
    #: instead of re-running (the zero-re-runs acceptance criterion)
    stages_recovered: int = 0
    injected_stage_failures: int = 0
    destroyed_outputs: int = 0
    # task-level fault work aggregated over the per-wave mixes
    killed_attempts: int = 0
    zombies_fenced: int = 0
    maps_reexecuted: int = 0
    reduces_reexecuted: int = 0
    wasted_task_seconds: float = 0.0

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class StageReport:
    """Accounting for one stage of a workflow run."""

    stage: str
    status: str  # "completed" | "failed" | "cancelled"
    executions: int  # times the stage's job actually ran (retries + heals)
    retries: int
    recomputes: int
    first_launch_s: float | None
    finished_s: float | None
    output: str
    cancelled_by: str | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class WorkflowCheckpoint:
    """Durable workflow progress: the journal's view of committed stages.

    Bundles what a restarted JobTracker needs to resume the DAG: which
    stages committed (with times and outputs).  The data itself is
    already durable in HDFS — the checkpoint is control-plane state
    only, which is why taking one is observationally free.
    """

    workflow: str
    records: tuple[WorkflowStageRecord, ...]


@dataclass
class WorkflowResult:
    """Everything :meth:`WorkflowRunner.run` produced."""

    workflow: str
    scheduler: str
    status: str  # "completed" | "partial"
    reports: list[StageReport]
    outputs: dict[str, object]  # completed sink payloads
    end_s: float
    accounting: WorkflowAccounting
    events: tuple = ()

    def report(self, stage: str) -> StageReport:
        for report in self.reports:
            if report.stage == stage:
                return report
        raise KeyError(stage)

    def to_dict(self) -> dict:
        return {
            "workflow": self.workflow,
            "scheduler": self.scheduler,
            "status": self.status,
            "stages": [report.to_dict() for report in self.reports],
            "outputs": dict(self.outputs),
            "end_s": self.end_s,
            "accounting": self.accounting.to_dict(),
            "events": len(self.events),
        }


class WorkflowRunner:
    """Execute a :class:`Workflow` on one cluster, surviving faults.

    Level-synchronized waves: each wave submits every currently-ready
    stage into a fresh :class:`MultiJobCluster` over the *shared*
    cluster (the clock carries across waves), under the runner's
    scheduler and the wave-relevant slice of the
    :class:`WorkflowFaultPlan`.  Between waves the runner applies
    fault-plan HDFS effects (crashed datanodes, destroyed outputs),
    checks lineage, heals, retries, cancels, checkpoints.

    ``observe=False`` disables the ProcFs workflow counters on the
    master; recording is pure bookkeeping, so observed and unobserved
    runs are bit-identical (asserted by the tests).
    """

    def __init__(
        self,
        cluster: HadoopCluster,
        scheduler: Scheduler | str | None = None,
        plan: WorkflowFaultPlan | None = None,
        observe: bool = True,
    ) -> None:
        self.cluster = cluster
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self.scheduler = scheduler
        self.plan = plan
        self.observe = observe
        self.bus = EventBus()
        self.journal = WorkflowJournal()
        self.accounting = WorkflowAccounting()
        self.last_checkpoint: WorkflowCheckpoint | None = None
        self._ran = False

    # -- small helpers ---------------------------------------------------------

    def _record(self, counter: str) -> None:
        """Bump a master ProcFs workflow counter (gated by ``observe``)."""
        if self.observe:
            procfs = self.cluster.master.procfs
            setattr(procfs, counter, getattr(procfs, counter) + 1)

    def _scheduler(self) -> Scheduler:
        # A Scheduler instance keeps per-run state and MultiJobCluster
        # resets it, so one instance is safely reused across waves.
        if self.scheduler is None:
            self.scheduler = make_scheduler("fifo")
        return self.scheduler

    def _wave_fault_plan(self, wave_origin: float) -> FaultPlan | None:
        """The plan slice relevant from *wave_origin* on, re-based to it.

        Crash times may re-base negative (the node died in an earlier
        wave and stays dead); partitions fully in the past are dropped
        and straddling ones are clipped to the wave origin.
        """
        if self.plan is None:
            return None
        # A node crashed in an earlier wave re-bases to 0: dead from the
        # wave's first instant (FaultPlan rejects negative times).
        crashes = tuple(
            (name, max(0.0, self._origin + at - wave_origin))
            for name, at in self.plan.node_crashes
        )
        partitions = []
        for name, start, duration in self.plan.partitions:
            begin = self._origin + start
            finish = begin + duration
            if finish <= wave_origin:
                continue
            begin = max(begin, wave_origin)
            partitions.append((name, begin - wave_origin, finish - begin))
        if not crashes and not partitions:
            return None
        return FaultPlan(
            node_crashes=crashes,
            partitions=tuple(partitions),
            seed=self.plan.seed,
            policy=self.plan.policy,
        )

    def _apply_due_crashes(self, now: float) -> None:
        """Fail the HDFS view of every node whose crash time has passed."""
        if self.plan is None:
            return
        for name, at in sorted(self.plan.node_crashes, key=lambda c: (c[1], c[0])):
            when = self._origin + at
            if when <= now and name not in self._crashed:
                self._crashed.add(name)
                self.cluster.hdfs.fail_node(name)

    def _commit_output(self, stage: Stage) -> None:
        """Create the stage's output file in HDFS (namespace bookkeeping)."""
        hdfs = self.cluster.hdfs
        if hdfs.file_exists(stage.output):
            hdfs.delete_file(stage.output)
        hdfs.create_file(stage.output, stage.output_bytes)

    # -- lineage ---------------------------------------------------------------

    def _lost_upstream(self, workflow: Workflow, stage: Stage) -> list[str]:
        """The minimal upstream subgraph to re-execute for *stage*.

        A dependency whose output lost every replica must re-run; its
        own inputs are checked recursively, so only stages whose data is
        actually gone are re-executed — upstream stages with intact
        outputs are reused as-is.
        """
        hdfs = self.cluster.hdfs
        doomed: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            producer = workflow.stage(name)
            if name in self._completed and hdfs.lost_blocks(producer.output):
                doomed.append(name)
                for dep in producer.deps:
                    visit(dep)

        for dep in stage.deps:
            visit(dep)
        return [n for n in workflow.order if n in doomed]

    def _heal(self, workflow: Workflow, doomed: list[str], now: float) -> None:
        for name in doomed:
            producer = workflow.stage(name)
            self._completed.pop(name, None)
            self._statuses.pop(name, None)
            self.journal.forget_stage(name)
            self.accounting.lineage_recomputes += 1
            self._record("lineage_recomputes")
            self.bus.publish(
                EVENT_HEAL,
                time_s=now,
                stage=name,
                output=producer.output,
            )

    # -- the run loop ----------------------------------------------------------

    def run(
        self,
        workflow: Workflow,
        resume_from: WorkflowCheckpoint | None = None,
    ) -> WorkflowResult:
        """Run *workflow* to quiescence and return its result.

        *resume_from* pre-seeds completed stages from a checkpoint (a
        restarted JobTracker handing the runner its recovered journal);
        those stages are never re-executed, which the accounting's
        ``stages_recovered`` records.
        """
        if self._ran:
            raise RuntimeError("runner already ran; build a new WorkflowRunner")
        self._ran = True
        plan = self.plan
        if plan is not None:
            known = {node.name for node in self.cluster.slaves}
            for name, _at in plan.node_crashes:
                if name not in known:
                    raise ValueError(f"unknown crash node {name!r}")
            for name, _s, _d in plan.partitions:
                if name not in known:
                    raise ValueError(f"unknown partition node {name!r}")
            for stage in plan.destroy_outputs:
                workflow.stage(stage)
            for stage, _n in plan.fail_stages:
                workflow.stage(stage)
            if plan.master_crash_after is not None:
                workflow.stage(plan.master_crash_after)
        self._origin = self.cluster.clock
        self._crashed: set[str] = set()
        self._outputs_destroyed: set[str] = set()
        self._completed: dict[str, float] = {}
        self.journal.workflow = workflow.name

        acct = self.accounting
        bus = self.bus
        statuses = self._statuses = {}
        cancelled_by: dict[str, str] = {}
        executions: dict[str, int] = {name: 0 for name in workflow.order}
        retries: dict[str, int] = {name: 0 for name in workflow.order}
        recomputes: dict[str, int] = {name: 0 for name in workflow.order}
        first_launch: dict[str, float] = {}
        failures: dict[str, int] = {name: 0 for name in workflow.order}
        injected_left = dict(plan.fail_stages) if plan else {}
        retry_floor: dict[str, float] = {}
        announced: set[str] = set()

        if resume_from is not None:
            if resume_from.workflow != workflow.name:
                raise ValueError(
                    f"checkpoint is for workflow {resume_from.workflow!r}"
                )
            for record in resume_from.records:
                workflow.stage(record.stage)
                self._completed[record.stage] = record.finished_s
                self.journal.record_stage(
                    record.stage, record.finished_s, record.attempts, record.output
                )
                statuses[record.stage] = "completed"
                acct.stages_recovered += 1

        acct_crash_pending = (
            plan.master_crash_after if plan is not None else None
        )
        self._record("workflows_submitted")
        bus.publish(
            EVENT_SUBMIT,
            time_s=self._origin,
            workflow=workflow.name,
            stages=len(workflow),
        )

        while True:
            # Deliver everything published so far (the runner reacts to
            # outcomes inline; delivery appends to the replayable log).
            bus.pump()
            now = self.cluster.clock
            self._apply_due_crashes(now)
            open_stages = [
                name
                for name in workflow.order
                if name not in self._completed and statuses.get(name) is None
            ]
            if not open_stages:
                break
            # Lineage check at the consumption edge: a ready stage whose
            # input data is gone triggers minimal-subgraph healing.
            healed = False
            for name in open_stages:
                stage = workflow.stage(name)
                if all(dep in self._completed for dep in stage.deps):
                    doomed = self._lost_upstream(workflow, stage)
                    if doomed:
                        self._heal(workflow, doomed, now)
                        for lost in doomed:
                            recomputes[lost] += 1
                        healed = True
            if healed:
                continue
            ready = [
                name
                for name in open_stages
                if all(dep in self._completed for dep in workflow.stage(name).deps)
            ]
            if not ready:
                # Only possible when every remaining stage waits on a
                # failed/cancelled upstream — propagation marked those,
                # so an empty ready set here is a real orchestrator bug.
                stuck = ", ".join(open_stages)
                raise RuntimeError(f"workflow deadlocked on stages: {stuck}")

            acct.waves += 1
            wave_origin = self.cluster.clock
            multi = MultiJobCluster(
                self.cluster,
                self._scheduler(),
                plan=self._wave_fault_plan(wave_origin),
            )
            submitted: dict[str, object] = {}
            for name in ready:
                stage = workflow.stage(name)
                arrival = max(retry_floor.get(name, wave_origin), wave_origin)
                submitted[name] = multi.submit(
                    stage.work,
                    arrival_s=arrival,
                    user=stage.user,
                    pool=stage.pool,
                    job_id=f"{workflow.name}/{name}/x{executions[name]}",
                )
                executions[name] += 1
                acct.stages_run += 1
                if name not in announced:
                    announced.add(name)
                    bus.publish(
                        EVENT_STAGE_READY, time_s=arrival, stage=name
                    )
            outcome = multi.run(raise_on_failure=False)
            # The clock moves only when a job finishes, yet a failed job's
            # attempts still held their slots: after a wave in which every
            # job failed, the wave ends when its last slot frees, or the
            # next wave would start on slots charged past the clock.
            self.cluster.clock = max(
                self.cluster.clock,
                *(t for node in self.cluster.slaves for t in node.map_slot_free),
                *(t for node in self.cluster.slaves for t in node.reduce_slot_free),
            )
            if outcome.fault_accounting is not None:
                mix_acct = outcome.fault_accounting
                acct.killed_attempts += mix_acct.killed_attempts
                acct.zombies_fenced += mix_acct.zombies_fenced
                acct.maps_reexecuted += mix_acct.maps_reexecuted
                acct.reduces_reexecuted += mix_acct.reduces_reexecuted
                acct.wasted_task_seconds += mix_acct.wasted_task_seconds

            wave_end = self.cluster.clock
            for name in ready:
                report = outcome.report(submitted[name].job_id)
                if report.first_launch_s is not None and name not in first_launch:
                    first_launch[name] = report.first_launch_s
                failed = report.status != "completed"
                if not failed and injected_left.get(name, 0) > 0:
                    # Deterministic commit-failure injection: the work
                    # ran, the commit is refused.
                    injected_left[name] -= 1
                    acct.injected_stage_failures += 1
                    failed = True
                if not failed:
                    stage = workflow.stage(name)
                    self._commit_output(stage)
                    self._completed[name] = report.finished_s
                    self.journal.record_stage(
                        name,
                        report.finished_s,
                        executions[name],
                        stage.output,
                    )
                    bus.publish(
                        EVENT_JOB_FINISHED,
                        time_s=report.finished_s,
                        stage=name,
                        finished_s=report.finished_s,
                    )
                    if (
                        plan is not None
                        and name in plan.destroy_outputs
                        and name not in self._outputs_destroyed
                    ):
                        # One loss window per stage: after healing, the
                        # recomputed output is not destroyed again.
                        self._outputs_destroyed.add(name)
                        destroyed = self.cluster.hdfs.destroy_replicas(
                            stage.output
                        )
                        if destroyed:
                            acct.destroyed_outputs += 1
                    continue
                # Stage failed: bounded retry, then permanent failure
                # cancelling exactly the downstream cone.
                failures[name] += 1
                stage = workflow.stage(name)
                if failures[name] <= stage.policy.max_retries:
                    retries[name] += 1
                    acct.stage_retries += 1
                    self._record("stage_retries")
                    retry_floor[name] = wave_end + stage.policy.retry_delay_s(
                        failures[name]
                    )
                    bus.publish(
                        EVENT_STAGE_RETRY,
                        time_s=wave_end,
                        stage=name,
                        failures=failures[name],
                        not_before_s=retry_floor[name],
                    )
                    continue
                statuses[name] = "failed"
                acct.stages_failed += 1
                bus.publish(
                    EVENT_STAGE_FAILED,
                    time_s=wave_end,
                    stage=name,
                    failures=failures[name],
                )
                for downstream in workflow.downstream_cone(name):
                    if (
                        downstream in self._completed
                        or statuses.get(downstream) is not None
                    ):
                        continue
                    statuses[downstream] = "cancelled"
                    cancelled_by[downstream] = name
                    acct.stages_cancelled += 1
                    self._record("stages_cancelled")
                    bus.publish(
                        EVENT_JOB_CANCELLED,
                        time_s=wave_end,
                        stage=downstream,
                        upstream=name,
                    )

            # Checkpoint the committed frontier (control-plane only).
            self.last_checkpoint = WorkflowCheckpoint(
                workflow=workflow.name,
                records=tuple(self.journal.records),
            )
            acct.checkpoints += 1
            bus.publish(
                EVENT_CHECKPOINT,
                time_s=self.cluster.clock,
                stages=len(self._completed),
            )
            if (
                acct_crash_pending is not None
                and acct_crash_pending in self._completed
            ):
                # JobTracker crash: in-memory DAG state is lost; the
                # journal is durable, so recovery rebuilds the committed
                # set without re-running any committed stage.
                acct_crash_pending = None
                acct.master_crashes += 1
                if self.observe:
                    self.cluster.master.procfs.master_restarts += 1
                recovered = {
                    r.stage: r.finished_s for r in self.journal.records
                }
                assert recovered == self._completed
                self._completed = recovered
                acct.stages_recovered += len(recovered)

        bus.pump()
        reports = []
        for name in workflow.order:
            status = statuses.get(name) or (
                "completed" if name in self._completed else "failed"
            )
            record = self.journal.record_for(name)
            reports.append(
                StageReport(
                    stage=name,
                    status=status,
                    executions=executions[name],
                    retries=retries[name],
                    recomputes=recomputes[name],
                    first_launch_s=first_launch.get(name),
                    finished_s=(
                        record.finished_s if record is not None else None
                    ),
                    output=workflow.stage(name).output,
                    cancelled_by=cancelled_by.get(name),
                )
            )
        complete = all(r.status == "completed" for r in reports)
        if complete:
            self._record("workflows_completed")
        outputs = {
            name: workflow.stage(name).payload
            for name in workflow.sinks()
            if name in self._completed
        }
        return WorkflowResult(
            workflow=workflow.name,
            scheduler=self._scheduler().name,
            status="completed" if complete else "partial",
            reports=reports,
            outputs=outputs,
            end_s=max(self._completed.values(), default=self._origin),
            accounting=acct,
            events=tuple(bus.log),
        )


# -- DAG builders --------------------------------------------------------------

#: HDFS block size of every registry DAG's shadow runs and of the
#: clusters the CLI and chaos replay it on: the two must agree.
_DAG_BLOCK_SIZE = 256 * 1024


def workflow_from_chain(
    name: str,
    works: list[JobWork],
    payload: object = None,
    policy: StagePolicy = StagePolicy(),
) -> Workflow:
    """A linear DAG from an ordered list of jobs (the ``submit_chain``
    shape); *payload* rides on the final stage."""
    if not works:
        raise ValueError("a chain needs at least one job")
    stages = []
    previous: str | None = None
    for index, work in enumerate(works):
        stage_name = f"s{index:02d}"
        stages.append(
            Stage(
                name=stage_name,
                work=work,
                deps=(previous,) if previous else (),
                payload=payload if index == len(works) - 1 else None,
                policy=policy,
            )
        )
        previous = stage_name
    return Workflow(name, stages)


def hive_chain_workflow(scale: float = 0.05, num_slaves: int = 4) -> Workflow:
    """Hive-bench: a query compiled to chained MapReduce stages."""
    _, works, output = solo_run(
        "Hive-bench", scale, num_slaves=num_slaves, block_size=_DAG_BLOCK_SIZE
    )
    return workflow_from_chain("hive-chain", works, payload=output)


def kmeans_workflow(scale: float = 0.05, num_slaves: int = 4) -> Workflow:
    """K-means: an iterative convergence loop over intermediate state."""
    _, works, output = solo_run(
        "K-means", scale, num_slaves=num_slaves, block_size=_DAG_BLOCK_SIZE
    )
    return workflow_from_chain("kmeans", works, payload=output)


def pagerank_workflow(scale: float = 0.05, num_slaves: int = 4) -> Workflow:
    """PageRank: power iterations chained through HDFS."""
    _, works, output = solo_run(
        "PageRank", scale, num_slaves=num_slaves, block_size=_DAG_BLOCK_SIZE
    )
    return workflow_from_chain("pagerank", works, payload=output)


def diamond_workflow(scale: float = 0.05, num_slaves: int = 4) -> Workflow:
    """A fan-out/fan-in diamond plus an independent branch.

    ``ingest`` feeds two parallel analyses joined by ``join``; ``side``
    is an independent single-stage branch.  The shape the
    failure-propagation tests need: failing one branch must cancel only
    ``join``, while ``side`` (and the surviving branch) complete.
    """
    _, works, output = solo_run(
        "Grep", scale, num_slaves=num_slaves, block_size=_DAG_BLOCK_SIZE
    )
    base = works[0]
    stages = [
        Stage(name="ingest", work=replace(base, name="ingest")),
        Stage(name="left", work=replace(base, name="left"), deps=("ingest",)),
        Stage(name="right", work=replace(base, name="right"), deps=("ingest",)),
        Stage(
            name="join",
            work=replace(base, name="join"),
            deps=("left", "right"),
            payload=output,
        ),
        Stage(name="side", work=replace(base, name="side"), payload=output),
    ]
    return Workflow("diamond", stages)


#: CLI/chaos registry: DAG name → builder(scale, num_slaves) → Workflow.
WORKFLOW_DAGS = {
    "hive-chain": hive_chain_workflow,
    "kmeans": kmeans_workflow,
    "pagerank": pagerank_workflow,
    "diamond": diamond_workflow,
}


def build_workflow(dag: str, scale: float = 0.05, num_slaves: int = 4) -> Workflow:
    """Build a registry DAG by name (``hive-chain``, ``kmeans``, ...)."""
    try:
        builder = WORKFLOW_DAGS[dag]
    except KeyError:
        known = ", ".join(sorted(WORKFLOW_DAGS))
        raise ValueError(f"unknown DAG {dag!r} (want one of: {known})") from None
    return builder(scale=scale, num_slaves=num_slaves)
