"""Multi-tenant job scheduling: FIFO / Fair / Capacity over one cluster.

The paper characterizes each DA workload as a solitary job on a dedicated
cluster; production data centers run heavy-tailed *mixes* of jobs that
share map/reduce slots, disks, NICs and HDFS.  This module adds the
Hadoop-1.x control plane for that regime:

* :class:`FifoScheduler` — the stock ``JobQueueTaskScheduler``: strict
  submission order, small jobs wait behind large ones (head-of-line
  blocking).
* :class:`FairScheduler` — Zaharia et al.'s fair scheduler: jobs grouped
  into weighted pools with minimum shares, slots divided evenly among
  pools with demand, *delay scheduling* for data locality, and optional
  preemption when a pool sits below its minimum share (or below half its
  fair share) past a timeout.
* :class:`CapacityScheduler` — Yahoo's capacity scheduler: queues with
  capacity fractions and per-user limits inside each queue.

:class:`MultiJobCluster` is the discrete-event dispatch loop that runs
many :class:`~repro.cluster.cluster.JobWork` submissions concurrently
over one :class:`~repro.cluster.cluster.HadoopCluster`.  It charges tasks
through the *same* primitives as the stock single-job executor
(``_charge_map_task`` / ``_charge_reduce_phase``), so with the FIFO
scheduler and a single submitted job it performs the identical sequence
of simulation-state mutations — the produced timeline and /proc counters
are bit-identical to ``HadoopCluster.run_job`` (tested in
``tests/cluster/test_scheduler.py``).

Fail-stop node crashes and timed network partitions (the
:class:`~repro.cluster.faults.FaultPlan` subset that makes sense across
a whole mix) are supported natively: lost attempts are detected by
heartbeat timeout and rescheduled, completed map outputs on crashed
nodes are re-executed before the owning job's reduce phase, and zombie
attempts that kept running behind a partition are fenced at commit
through the real :class:`~repro.cluster.attempts.CommitFence`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import starmap
from operator import attrgetter

from repro._gc import nogc
from repro.cluster.attempts import CommitFence, JobFailedError, RetryPolicy
from repro.cluster.cluster import (
    TASK_LOG_BYTES,
    HadoopCluster,
    JobTimeline,
    JobWork,
    MapWork,
)
from repro.cluster.eventbus import (
    EVENT_ATTEMPT_FINISHED,
    EVENT_DISPATCH,
    EVENT_JOB_CANCELLED,
    EVENT_JOB_FAILED,
    EVENT_JOB_FINISHED,
    EVENT_STAGE_READY,
    EVENT_SUBMIT,
    Event,
    check_event,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.node import Node

__all__ = [
    "PoolConfig",
    "QueueConfig",
    "Scheduler",
    "FifoScheduler",
    "FairScheduler",
    "CapacityScheduler",
    "make_scheduler",
    "ScheduledJob",
    "RunningTask",
    "TaskInterval",
    "JobReport",
    "MixFaultAccounting",
    "MixOutcome",
    "MultiJobCluster",
    "jain_index",
]


def jain_index(values) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` — 1.0 is perfectly fair.

    Defined for non-negative allocations (we feed it per-job slowdowns or
    per-entity means); an empty or all-zero set is vacuously fair.
    """
    xs = [float(v) for v in values]
    if any(x < 0 for x in xs):
        raise ValueError("Jain's index is defined for non-negative values")
    square_sum = sum(x * x for x in xs)
    if not xs or square_sum == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * square_sum)


# -- scheduler configuration ---------------------------------------------------


@dataclass(frozen=True)
class PoolConfig:
    """One fair-scheduler pool (``PoolManager`` allocation entry).

    Attributes:
        name: pool name (jobs name their pool at submission).
        weight: relative share of slots among pools with demand.
        min_share: map slots guaranteed to the pool; a pool below its
            minimum share is served first and may preempt after
            ``min_share_timeout_s``.
    """

    name: str
    weight: float = 1.0
    min_share: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("pool name must be non-empty")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise ValueError("pool weight must be positive and finite")
        if self.min_share < 0:
            raise ValueError("pool min_share must be non-negative")


@dataclass(frozen=True)
class QueueConfig:
    """One capacity-scheduler queue.

    Attributes:
        name: queue name (jobs address queues through their ``pool``).
        capacity: fraction of the cluster's map slots this queue is
            entitled to (queues may exceed it when others are idle —
            the scheduler ranks queues by utilization of capacity).
        user_limit: largest fraction of the queue's capacity one user
            may occupy while other users' jobs wait.
    """

    name: str
    capacity: float = 1.0
    user_limit: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("queue name must be non-empty")
        if not (0.0 < self.capacity <= 1.0):
            raise ValueError("queue capacity must be in (0, 1]")
        if not (0.0 < self.user_limit <= 1.0):
            raise ValueError("queue user_limit must be in (0, 1]")


# -- submitted-job bookkeeping -------------------------------------------------


@dataclass(eq=False)  # identity semantics: a submission is not a value
class ScheduledJob:
    """One submitted job plus its dispatch-time state.

    The six dispatch containers (``pending``, ``map_starts``,
    ``map_ends``, ``map_nodes``, ``attempts``, ``disk_writes``) exist only
    once :meth:`MultiJobCluster.run` starts dispatch and gives every job
    its own.  Until then they are the shared immutable empty tuple, so a
    submitted (or directly built) job reads as having no pending work and
    a submission allocates no container it may never use.
    """

    job_id: str
    work: JobWork
    arrival_s: float
    user: str = "default"
    pool: str = "default"
    seq: int = 0
    depends_on: "ScheduledJob | None" = None

    # dispatch state (owned by MultiJobCluster; built by run())
    pending: deque = field(default=(), repr=False)
    map_starts: dict = field(default=(), repr=False)
    map_ends: dict = field(default=(), repr=False)
    map_nodes: dict = field(default=(), repr=False)
    attempts: dict = field(default=(), repr=False)
    started_s: float | None = None
    first_launch_s: float | None = None
    map_phase_end_s: float | None = None
    finished_s: float | None = None
    net_bytes: int = 0
    disk_writes: dict = field(default=(), repr=False)
    #: running ``max(map_ends.values())`` maintained incrementally, so
    #: the dispatch loop never recomputes the max inside a sort key;
    #: ``None`` until the first map attempt commits an end time
    last_map_end_s: float | None = None
    preempted: int = 0
    timeline: JobTimeline | None = None
    #: "pending" until the mix resolves the job: "completed", "failed"
    #: (a task exhausted its attempts / no live node), or "cancelled"
    #: (an upstream dependency failed, so this job never dispatched)
    status: str = "pending"
    failure: JobFailedError | None = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.work.name

    def submit_key(self) -> tuple[float, int]:
        return (self.arrival_s, self.seq)


@dataclass(frozen=True)
class RunningTask:
    """A map attempt currently occupying a slot (preemption candidate)."""

    job: ScheduledJob
    m_index: int
    node: Node
    slot: int
    start_s: float
    end_s: float


@dataclass(frozen=True, slots=True)
class TaskInterval:
    """One task occupancy interval, for slot-occupancy time series."""

    kind: str  # "map" | "reduce"
    job_id: str
    node: str
    start_s: float
    end_s: float


class SchedulerState:
    """Read-only view of the dispatch loop's state handed to schedulers."""

    def __init__(
        self,
        now: float,
        runnable: list[ScheduledJob],
        running: list[RunningTask],
        total_map_slots: int,
    ) -> None:
        self.now = now
        self.runnable = runnable
        self.running_tasks = list(running)
        self.total_map_slots = total_map_slots

    def running_in_pool(self, pool: str) -> int:
        return sum(1 for rt in self.running_tasks if rt.job.pool == pool)

    def running_for_user(self, user: str, pool: str | None = None) -> int:
        return sum(
            1
            for rt in self.running_tasks
            if rt.job.user == user and (pool is None or rt.job.pool == pool)
        )

    def pending_in_pool(self, pool: str) -> int:
        return sum(len(j.pending) for j in self.runnable if j.pool == pool)

    def pools_with_demand(self) -> list[str]:
        """Pools that currently hold runnable (arrived, unblocked) work."""
        return sorted({j.pool for j in self.runnable if j.pending})

    def sharing_pools(self) -> list[str]:
        """The pools slots are shared among: pools with demand (sorted),
        then pools that only hold running attempts, in first-appearance
        order.  The order is part of the answer: a fair share sums float
        weights over it."""
        pools = self.pools_with_demand()
        for rt in self.running_tasks:
            if rt.job.pool not in pools:
                pools.append(rt.job.pool)
        return pools

    def slot_safe(self, rt: RunningTask) -> bool:
        """True when *rt* can be killed without rewriting history: it is
        still running, its job has not entered its reduce phase, and no
        later task has been charged onto its slot."""
        return (
            rt.end_s > self.now
            and rt.job.finished_s is None
            and rt.node.map_slot_free[rt.slot] == rt.end_s
        )


# -- schedulers ----------------------------------------------------------------


class Scheduler(ABC):
    """Pluggable task-assignment policy for :class:`MultiJobCluster`."""

    name = "scheduler"
    #: whether :meth:`tasks_to_preempt` can ever return victims — when
    #: False the execution loop skips starvation observations entirely,
    #: keeping the non-preempting dispatch sequence byte-for-byte stable
    preemption = False

    def reset(self) -> None:
        """Clear any per-run state (called once when the mix starts)."""

    def on_submit(self, job: ScheduledJob) -> None:
        """Observe a submission (before the mix runs)."""

    def locality_wait_s(self, cluster: HadoopCluster) -> float:
        """Delay-scheduling knob: how long a map waits for a local slot."""
        return cluster.locality_wait_s

    def rack_locality_wait_s(self, cluster: HadoopCluster) -> float:
        """Second delay level: extra wait for a rack-local slot before
        going off-rack (only reached on multi-rack topologies)."""
        return cluster.rack_locality_wait_s

    def tasks_to_preempt(
        self, now: float, state: SchedulerState
    ) -> list[RunningTask]:
        """Running map attempts to kill before the next assignment."""
        return []

    def next_wake_s(self) -> float | None:
        """Earliest future starvation deadline worth re-checking at."""
        return None

    def describe(self) -> dict:
        """Canonical config fingerprint (for content-addressed caching).

        Two scheduler instances that describe identically must make
        identical dispatch decisions on identical state; subclasses
        extend this with every knob that influences a decision.
        """
        return {"name": self.name}

    @abstractmethod
    def pick_job(
        self, now: float, runnable: list[ScheduledJob], state: SchedulerState
    ) -> ScheduledJob:
        """Choose which runnable job receives the next map slot."""


class FifoScheduler(Scheduler):
    """Hadoop 1.x's default ``JobQueueTaskScheduler``: strict job order."""

    name = "fifo"

    def pick_job(self, now, runnable, state):
        return min(runnable, key=ScheduledJob.submit_key)


class FairScheduler(Scheduler):
    """The Hadoop fair scheduler (Zaharia et al., delay scheduling).

    Slots go to the pool furthest below its guarantee: pools under their
    *minimum share* rank first (most starved by ``running/min_share``),
    everyone else by weighted running count ``running/weight`` — the
    discrete analogue of max-min fair sharing.  Within a pool, jobs run
    FIFO.  ``delay_s`` overrides the cluster's locality wait (delay
    scheduling: how long a map holds out for a data-local slot).

    With ``preemption`` on, a pool that has sat below its minimum share
    for ``min_share_timeout_s`` (or below half its fair share for
    ``fair_share_timeout_s``) kills the youngest slot-safe attempts of
    pools above their own guarantees, and the killed work is requeued.
    """

    name = "fair"

    def __init__(
        self,
        pools: tuple[PoolConfig, ...] | list[PoolConfig] = (),
        delay_s: float | None = None,
        preemption: bool = True,
        min_share_timeout_s: float = 1.0,
        fair_share_timeout_s: float = 4.0,
        rack_delay_s: float | None = None,
    ) -> None:
        self.pools = {}
        for cfg in pools:
            if cfg.name in self.pools:
                raise ValueError(f"duplicate pool {cfg.name!r}")
            self.pools[cfg.name] = cfg
        if delay_s is not None and not (delay_s >= 0 and math.isfinite(delay_s)):
            raise ValueError("delay_s must be finite and non-negative")
        if rack_delay_s is not None and not (
            rack_delay_s >= 0 and math.isfinite(rack_delay_s)
        ):
            raise ValueError("rack_delay_s must be finite and non-negative")
        if min_share_timeout_s <= 0 or fair_share_timeout_s <= 0:
            raise ValueError("preemption timeouts must be positive")
        self.delay_s = delay_s
        self.rack_delay_s = rack_delay_s
        self.preemption = preemption
        self.min_share_timeout_s = min_share_timeout_s
        self.fair_share_timeout_s = fair_share_timeout_s
        self.reset()

    def reset(self) -> None:
        # last instant each pool was at (min|fair) share while it had demand
        self._min_ok_at: dict[str, float] = {}
        self._fair_ok_at: dict[str, float] = {}
        # (state, its sharing pools, their weight sum) of the last state
        # asked for a fair share: a round asks once per pool and victim
        self._shares: tuple[SchedulerState, frozenset[str], float] | None = None

    def pool(self, name: str) -> PoolConfig:
        return self.pools.get(name) or PoolConfig(name)

    def locality_wait_s(self, cluster):
        return cluster.locality_wait_s if self.delay_s is None else self.delay_s

    def rack_locality_wait_s(self, cluster):
        if self.rack_delay_s is not None:
            return self.rack_delay_s
        return cluster.rack_locality_wait_s

    def fair_share(self, pool: str, state: SchedulerState) -> float:
        """Weighted share of map slots among pools that have demand."""
        shares = self._shares
        if shares is None or shares[0] is not state:
            sharing = state.sharing_pools()
            shares = self._shares = (
                state,
                frozenset(sharing),
                sum(self.pool(p).weight for p in sharing),
            )
        _state, sharing, total_weight = shares
        if pool not in sharing:
            return 0.0
        return state.total_map_slots * self.pool(pool).weight / total_weight

    def pick_job(self, now, runnable, state):
        def pool_rank(name: str):
            cfg = self.pool(name)
            running = state.running_in_pool(name)
            if cfg.min_share > 0 and running < cfg.min_share:
                return (0, running / cfg.min_share, name)
            return (1, running / cfg.weight, name)

        best_pool = min({j.pool for j in runnable}, key=pool_rank)
        candidates = [j for j in runnable if j.pool == best_pool]
        return min(candidates, key=ScheduledJob.submit_key)

    def _starvation(self, name: str, now: float, state: SchedulerState) -> int:
        """Map slots the pool may claim through preemption right now."""
        cfg = self.pool(name)
        running = state.running_in_pool(name)
        demand = running + state.pending_in_pool(name)
        min_target = min(cfg.min_share, demand)
        fair_target = min(self.fair_share(name, state), demand)
        # advance the satisfied-clocks (monotonically) whenever the pool
        # is at its guarantee — starvation is measured from the last
        # satisfied instant, as in the fair scheduler's update thread.
        if running >= min_target:
            self._min_ok_at[name] = max(now, self._min_ok_at.get(name, now))
        else:
            self._min_ok_at.setdefault(name, now)
        if running >= fair_target / 2.0:
            self._fair_ok_at[name] = max(now, self._fair_ok_at.get(name, now))
        else:
            self._fair_ok_at.setdefault(name, now)
        if (
            running < min_target
            and now - self._min_ok_at[name] >= self.min_share_timeout_s
        ):
            return int(min_target) - running
        if (
            running < fair_target / 2.0
            and now - self._fair_ok_at[name] >= self.fair_share_timeout_s
        ):
            return int(fair_target) - running
        return 0

    def tasks_to_preempt(self, now, state):
        if not self.preemption:
            return []
        needs = [
            (name, starved)
            for name in state.pools_with_demand()
            for starved in (self._starvation(name, now, state),)
            if starved > 0
        ]
        if not needs:
            return []
        victims: list[RunningTask] = []
        counts: dict[str, int] = {}
        for rt in state.running_tasks:
            counts[rt.job.pool] = counts.get(rt.job.pool, 0) + 1
        # youngest attempts die first (least work wasted), deterministically
        candidates = sorted(
            (rt for rt in state.running_tasks if state.slot_safe(rt)),
            key=lambda rt: (-rt.start_s, rt.job.seq, rt.m_index),
        )
        for name, need in needs:
            for rt in candidates:
                if need <= 0:
                    break
                pool = rt.job.pool
                if pool == name or rt in victims:
                    continue
                # never preempt a pool below its own guarantee
                guard = max(self.pool(pool).min_share, self.fair_share(pool, state))
                if counts.get(pool, 0) <= guard:
                    continue
                victims.append(rt)
                counts[pool] -= 1
                need -= 1
            # one preemption volley per timeout window: restart the clocks
            self._min_ok_at[name] = now
            self._fair_ok_at[name] = now
        return victims

    def next_wake_s(self):
        if not self.preemption:
            return None
        deadlines = [t + self.min_share_timeout_s for t in self._min_ok_at.values()]
        deadlines += [t + self.fair_share_timeout_s for t in self._fair_ok_at.values()]
        return min(deadlines, default=None)

    def describe(self):
        return {
            "name": self.name,
            "pools": [
                [cfg.name, cfg.weight, cfg.min_share]
                for cfg in sorted(self.pools.values(), key=lambda c: c.name)
            ],
            "delay_s": self.delay_s,
            "rack_delay_s": self.rack_delay_s,
            "preemption": self.preemption,
            "min_share_timeout_s": self.min_share_timeout_s,
            "fair_share_timeout_s": self.fair_share_timeout_s,
        }


class CapacityScheduler(Scheduler):
    """Yahoo's capacity scheduler: queues with capacities and user limits.

    Queues are served most-underutilized first (running slots over the
    queue's capacity in slots), FIFO within a queue, and a single user
    may not hold more than ``user_limit`` of the queue's capacity while
    the queue has other users' jobs waiting.  Idle capacity is elastic:
    a queue may exceed its share when no other queue has demand.
    """

    name = "capacity"

    def __init__(self, queues: tuple[QueueConfig, ...] | list[QueueConfig] = ()) -> None:
        self.queues = {}
        for cfg in queues:
            if cfg.name in self.queues:
                raise ValueError(f"duplicate queue {cfg.name!r}")
            self.queues[cfg.name] = cfg

    def queue(self, name: str) -> QueueConfig:
        return self.queues.get(name) or QueueConfig(name)

    def pick_job(self, now, runnable, state):
        total = state.total_map_slots

        def capacity_slots(cfg: QueueConfig) -> int:
            return max(1, round(cfg.capacity * total))

        def utilization(name: str) -> float:
            return state.running_in_pool(name) / capacity_slots(self.queue(name))

        # each queue's users, each mapped to (submit key, job) of that
        # user's earliest job: the earliest job whose user is under the
        # limit is the earliest of these heads whose user is under it
        heads: dict[str, dict[str, tuple[tuple[float, int], ScheduledJob]]] = {}
        for job in runnable:
            users = heads.get(job.pool)
            if users is None:
                users = heads[job.pool] = {}
            key = (job.arrival_s, job.seq)
            head = users.get(job.user)
            if head is None or key < head[0]:
                users[job.user] = (key, job)
        for name in sorted(heads, key=lambda q: (utilization(q), q)):
            cfg = self.queue(name)
            user_cap = max(1, math.ceil(cfg.user_limit * capacity_slots(cfg)))
            under = [
                head
                for user, head in heads[name].items()
                if state.running_for_user(user, pool=name) < user_cap
            ]
            if under:
                return min(under)[1]
        # every queue is user-limited: fall back to global FIFO rather
        # than deadlocking the cluster
        return min(runnable, key=ScheduledJob.submit_key)

    def describe(self):
        return {
            "name": self.name,
            "queues": [
                [cfg.name, cfg.capacity, cfg.user_limit]
                for cfg in sorted(self.queues.values(), key=lambda c: c.name)
            ],
        }


def make_scheduler(
    name: str,
    pools: tuple[PoolConfig, ...] | list[PoolConfig] = (),
    queues: tuple[QueueConfig, ...] | list[QueueConfig] = (),
    **kwargs,
) -> Scheduler:
    """Build a scheduler by CLI name: ``fifo``, ``fair`` or ``capacity``."""
    key = name.strip().lower()
    if key == "fifo":
        return FifoScheduler()
    if key == "fair":
        return FairScheduler(pools=pools, **kwargs)
    if key == "capacity":
        return CapacityScheduler(queues=queues, **kwargs)
    raise ValueError(f"unknown scheduler {name!r} (want fifo, fair or capacity)")


# -- per-job / mix reports -----------------------------------------------------


@dataclass
class JobReport:
    """Accounting for one job of a mix.

    ``first_launch_s`` / ``finished_s`` / ``timeline`` are ``None`` for
    jobs that did not complete (``status`` is ``"failed"`` — a task
    exhausted its attempts or no live node remained — or
    ``"cancelled"`` — an upstream dependency failed so the job was
    never dispatched against missing input).
    """

    job_id: str
    name: str
    user: str
    pool: str
    arrival_s: float
    first_launch_s: float | None
    finished_s: float | None
    preempted: int
    timeline: JobTimeline | None
    status: str = "completed"

    @property
    def wait_s(self) -> float | None:
        """Queueing delay: arrival until the first task launches."""
        if self.first_launch_s is None:
            return None
        return self.first_launch_s - self.arrival_s

    @property
    def turnaround_s(self) -> float | None:
        if self.finished_s is None:
            return None
        return self.finished_s - self.arrival_s

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "name": self.name,
            "user": self.user,
            "pool": self.pool,
            "arrival_s": self.arrival_s,
            "first_launch_s": self.first_launch_s,
            "finished_s": self.finished_s,
            "wait_s": self.wait_s,
            "turnaround_s": self.turnaround_s,
            "preempted": self.preempted,
            "timeline": self.timeline.to_dict() if self.timeline else None,
            "status": self.status,
        }


@dataclass
class MixFaultAccounting:
    """What the fault machinery did during a mix."""

    nodes_crashed: tuple[str, ...] = ()
    partition_windows: int = 0
    limping_nodes: tuple[str, ...] = ()
    killed_attempts: int = 0
    zombies_fenced: int = 0
    maps_reexecuted: int = 0
    reduces_reexecuted: int = 0
    wasted_task_seconds: float = 0.0
    # Fail-slow mitigation: backup races launched by the mix-level
    # straggler detector, races the backup won, losing attempts whose
    # late commit the fence refused, and the nodes detection flagged.
    speculative_attempts: int = 0
    speculative_wins: int = 0
    speculative_losers_fenced: int = 0
    stragglers_detected: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "nodes_crashed": list(self.nodes_crashed),
            "partition_windows": self.partition_windows,
            "limping_nodes": list(self.limping_nodes),
            "killed_attempts": self.killed_attempts,
            "zombies_fenced": self.zombies_fenced,
            "maps_reexecuted": self.maps_reexecuted,
            "reduces_reexecuted": self.reduces_reexecuted,
            "wasted_task_seconds": self.wasted_task_seconds,
            "speculative_attempts": self.speculative_attempts,
            "speculative_wins": self.speculative_wins,
            "speculative_losers_fenced": self.speculative_losers_fenced,
            "stragglers_detected": list(self.stragglers_detected),
        }


class Deferred:
    """Mixin for dataclasses with fields that are decoded on first read.

    :meth:`_defer` replaces a field's value with a zero-argument decoder,
    run the first time the field is read; after that the object is an
    ordinary one.  ``==`` and ``repr`` read the fields they show, and a
    copy taken before the first read decodes on its own.  A deferred field
    must have no class-level default (``default_factory`` or none), or
    the class attribute would shadow the decoder.
    """

    def _defer(self, **decoders) -> None:
        for name, decode in decoders.items():
            delattr(self, name)
            self.__dict__["_deferred_" + name] = decode

    @nogc
    def __getattr__(self, name: str):
        # Only reached when *name* is not set: a deferred field's first read.
        # A decoder builds one object per row and no cycle, so it runs with
        # the collector paused, as run() does.  The decoder is dropped only
        # once it returns, so one that raises raises its own error again
        # on every read.
        key = "_deferred_" + name
        decode = self.__dict__.get(key)
        if decode is None:
            raise AttributeError(name)
        value = decode()
        setattr(self, name, value)
        del self.__dict__[key]
        return value


class RowDecoder:
    """A deferred field kept as field tuples until its first read.

    Calling it builds ``container(make(*row) for row in rows)``.  The
    entry codec reads the rows themselves (:meth:`MixOutcome.rows`), so a
    fresh outcome is stored without one object per task or event.  It
    refers to no outcome and never drops its rows: a copy of the outcome
    taken before the first read shares it and still decodes, and the
    rows go once no unread outcome holds the decoder.
    """

    __slots__ = ("make", "rows", "container")

    def __init__(self, make, rows: list[tuple], container=list) -> None:
        self.make = make
        self.rows = rows
        self.container = container

    def __call__(self):
        return self.container(starmap(self.make, self.rows))


@dataclass
class MixOutcome(Deferred):
    """Everything :meth:`MultiJobCluster.run` produced."""

    scheduler: str
    reports: list[JobReport]
    end_s: float
    preemptions: int
    preemption_wasted_s: float
    task_intervals: list[TaskInterval]
    fault_accounting: MixFaultAccounting | None = None
    #: total attempts the commit fence refused (zombies + race losers)
    fenced_attempts: int = 0
    #: jobs that aborted permanently (attempts exhausted / no live node)
    failed_jobs: tuple[str, ...] = ()
    #: jobs never dispatched because an upstream dependency failed
    cancelled_jobs: tuple[str, ...] = ()
    #: the delivered control-plane event log (empty under "lean");
    #: a factory rather than ``()`` so the class carries no ``events``
    #: attribute that would shadow a deferred one (see :meth:`deferred`)
    events: tuple = field(default_factory=tuple)

    #: a section's row form: one field tuple per object, in field order
    _ROW_OF = {
        "task_intervals": attrgetter(*(f.name for f in fields(TaskInterval))),
        "events": attrgetter(*(f.name for f in fields(Event))),
    }

    @classmethod
    def deferred(cls, *, task_intervals, events, **values) -> MixOutcome:
        """An outcome whose ``task_intervals`` and ``events`` are
        zero-argument decoders, each run the first time its field is read.

        Both a fresh run (:class:`RowDecoder`s over the rows dispatch
        recorded) and a cache hit (decoders over the entry's columns) are
        built this way: ``run_mix``, ``MixResult``, the ``mix`` table and
        the entry codec read neither field, and building them costs more
        than everything else in an outcome.  Once read (``==`` and
        ``repr`` read both) the outcome is an ordinary one.
        """
        outcome = cls(task_intervals=None, events=None, **values)
        outcome._defer(task_intervals=task_intervals, events=events)
        return outcome

    def rows(self, name: str) -> list[tuple]:
        """Section *name* (``"task_intervals"`` or ``"events"``) as field
        tuples: the rows of an unread :class:`RowDecoder` as they are,
        otherwise one tuple per object (decoding the field first)."""
        decode = self.__dict__.get("_deferred_" + name)
        if isinstance(decode, RowDecoder):
            return decode.rows
        return list(map(self._ROW_OF[name], getattr(self, name)))

    def report(self, job_id: str) -> JobReport:
        # run_mix looks up every stage of every trace job: index once
        # (first report wins, as the scan it replaces) instead of
        # rescanning, and rebuild if reports were added since.
        index = self.__dict__.get("_report_index")
        if index is None or len(index) != len(self.reports):
            index = {}
            for report in self.reports:
                index.setdefault(report.job_id, report)
            self.__dict__["_report_index"] = index
        return index[job_id]

    def occupancy_series(
        self, node: str | None = None
    ) -> list[tuple[float, int, int]]:
        """``(time, running_maps, running_reduces)`` at every task edge."""
        intervals = [
            iv
            for iv in self.task_intervals
            if (node is None or iv.node == node) and iv.end_s > iv.start_s
        ]
        edges = sorted({iv.start_s for iv in intervals} | {iv.end_s for iv in intervals})
        series = []
        for t in edges:
            maps = sum(
                1 for iv in intervals if iv.kind == "map" and iv.start_s <= t < iv.end_s
            )
            reduces = sum(
                1
                for iv in intervals
                if iv.kind == "reduce" and iv.start_s <= t < iv.end_s
            )
            series.append((t, maps, reduces))
        return series

    def peak_concurrency(self, node: str | None = None) -> int:
        return max(
            (maps + reduces for _t, maps, reduces in self.occupancy_series(node)),
            default=0,
        )

    def by_pool(self) -> dict[str, dict]:
        pools: dict[str, dict] = {}
        for report in self.reports:
            if report.status != "completed":
                continue
            agg = pools.setdefault(
                report.pool, {"jobs": 0, "wait_s": 0.0, "turnaround_s": 0.0}
            )
            agg["jobs"] += 1
            agg["wait_s"] += report.wait_s
            agg["turnaround_s"] += report.turnaround_s
        return {
            name: {
                "jobs": agg["jobs"],
                "mean_wait_s": agg["wait_s"] / agg["jobs"],
                "mean_turnaround_s": agg["turnaround_s"] / agg["jobs"],
            }
            for name, agg in pools.items()
        }

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "end_s": self.end_s,
            "preemptions": self.preemptions,
            "preemption_wasted_s": self.preemption_wasted_s,
            "jobs": [report.to_dict() for report in self.reports],
            "by_pool": self.by_pool(),
            "peak_concurrency": self.peak_concurrency(),
            "fault_accounting": (
                self.fault_accounting.to_dict() if self.fault_accounting else None
            ),
            "fenced_attempts": self.fenced_attempts,
            "failed_jobs": list(self.failed_jobs),
            "cancelled_jobs": list(self.cancelled_jobs),
            "events": len(self.events),
        }


# -- fault-plan view for mixes -------------------------------------------------


class _MixFaults:
    """The FaultPlan subset a multi-job mix honours, pre-indexed.

    Times are relative to the mix origin (the cluster clock when
    :meth:`MultiJobCluster.run` starts), matching the chaos harness's
    "relative to the first job's start" convention.
    """

    def __init__(self, plan: FaultPlan, cluster: HadoopCluster, origin: float) -> None:
        supported = FaultPlan(
            speculative_execution=plan.speculative_execution,
            node_crashes=plan.node_crashes,
            partitions=plan.partitions,
            limping_nodes=plan.limping_nodes,
            limping_disks=plan.limping_disks,
            limping_nics=plan.limping_nics,
            fail_slow_rate=plan.fail_slow_rate,
            fail_slow_factor_range=plan.fail_slow_factor_range,
            rack_outages=plan.rack_outages,
            tor_failures=plan.tor_failures,
            seed=plan.seed,
            policy=plan.policy,
        )
        if plan != supported:
            raise ValueError(
                "MultiJobCluster supports node_crashes, partitions, rack "
                "outages, ToR failures and fail-slow limping only; run "
                "other fault classes through FaultyCluster"
            )
        # Correlated rack faults expand to their per-node equivalents:
        # a rack power outage crashes every member at once; a ToR death
        # partitions every member for the failure window.
        node_crashes = list(plan.node_crashes)
        partitions = list(plan.partitions)
        if plan.rack_outages or plan.tor_failures:
            topology = cluster.topology
            if topology is None or topology.is_flat:
                raise ValueError(
                    "rack_outages/tor_failures need a multi-rack topology"
                )
            known_racks = set(topology.racks)
            for rack, at in plan.rack_outages:
                if rack not in known_racks:
                    raise ValueError(f"unknown outage rack {rack!r}")
                for member in topology.nodes_in(rack):
                    node_crashes.append((member, at))
            for rack, start, duration in plan.tor_failures:
                if rack not in known_racks:
                    raise ValueError(f"unknown ToR-failure rack {rack!r}")
                for member in topology.nodes_in(rack):
                    partitions.append((member, start, duration))
        names = {node.name for node in cluster.slaves}
        # Fail-slow hardware: resolve the limp factors (validating node
        # names) and push them onto the shared cluster's device models.
        # `speculation` arms the mix-level straggler detector — only when
        # the plan actually configures limping hardware, so crash/
        # partition-only plans keep their stock timelines bit for bit.
        self.slow_nodes: frozenset[str] = frozenset()
        if plan.injects_fail_slow:
            limp = plan.resolve_fail_slow(
                tuple(node.name for node in cluster.slaves)
            )
            for node in cluster.slaves:
                per_resource = limp[node.name]
                node.slow_factor = per_resource["cpu"]
                node.disk.slow_factor = per_resource["disk"]
                node.nic.slow_factor = per_resource["nic"]
            self.slow_nodes = frozenset(
                name
                for name, per_resource in limp.items()
                if any(factor != 1.0 for factor in per_resource.values())
            )
        self.speculation = plan.speculative_execution and bool(self.slow_nodes)
        for name, _at in node_crashes:
            if name not in names:
                raise ValueError(f"unknown crash node {name!r}")
        self.crash_at: dict[str, float] = {}
        for name, at in node_crashes:
            t = origin + at
            if name not in self.crash_at or t < self.crash_at[name]:
                self.crash_at[name] = t
        self.windows: dict[str, list[tuple[float, float]]] = {}
        for name, start, duration in partitions:
            if name not in names:
                raise ValueError(f"unknown partition node {name!r}")
            if start < 0 or duration <= 0:
                raise ValueError("partitions need start >= 0 and duration > 0")
            self.windows.setdefault(name, []).append(
                (origin + start, origin + start + duration)
            )
        for wins in self.windows.values():
            wins.sort()
        self.partition_windows = sum(len(w) for w in self.windows.values())
        self.policy = plan.policy

    def crash_time(self, name: str) -> float | None:
        return self.crash_at.get(name)

    def dead_at(self, name: str, t: float) -> bool:
        crash = self.crash_at.get(name)
        return crash is not None and t >= crash

    def partition_at(self, name: str, t: float) -> tuple[float, float] | None:
        for start, end in self.windows.get(name, ()):
            if start <= t < end:
                return (start, end)
        return None

    def partition_spanning(
        self, name: str, start_s: float, end_s: float
    ) -> tuple[float, float] | None:
        for win_start, win_end in self.windows.get(name, ()):
            if win_start < end_s and win_end > start_s:
                return (win_start, win_end)
        return None


# -- the multi-job dispatch loop -----------------------------------------------

#: bound on re-attempts of one task in the mix executor (faults are
#: finite, so this is a runaway guard, not a tunable)
_MAX_MIX_ATTEMPTS = 64


class _WriteProbe:
    """Per-job disk-write accounting via a full before-snapshot.

    The reference behavior: snapshot every slave's ``writes_completed``
    before a charge window, diff every slave after.  ``note`` is a
    no-op here because the snapshot already covers all nodes; the fast
    path (``perf/clusterpath.py``) substitutes a lazy probe that only
    tracks the nodes the charge functions announce through ``note``,
    avoiding two O(nodes) sweeps per task on big clusters.
    """

    __slots__ = ("_slaves", "_before")

    def __init__(self, slaves: list[Node]) -> None:
        self._slaves = slaves
        self._before = {n.name: n.procfs.writes_completed for n in slaves}

    def note(self, node: Node) -> None:
        pass

    def settle(self, job: "ScheduledJob") -> None:
        for node in self._slaves:
            delta = node.procfs.writes_completed - self._before[node.name]
            if delta:
                job.disk_writes[node.name] = (
                    job.disk_writes.get(node.name, 0) + delta
                )


class MultiJobCluster:
    """Run many jobs concurrently on one cluster under a scheduler.

    Usage::

        multi = MultiJobCluster(make_cluster(4), FairScheduler(pools))
        a = multi.submit(work_a, arrival_s=0.0, user="ada", pool="batch")
        b = multi.submit(work_b, arrival_s=1.5, user="bo", pool="interactive")
        outcome = multi.run()

    ``submit`` only records the job; :meth:`run` executes the whole mix
    and returns a :class:`MixOutcome` with one :class:`JobReport` (and
    one :class:`~repro.cluster.cluster.JobTimeline`) per job.  A job's
    per-node ``disk_writes_per_second`` and ``network_bytes`` count only
    *its own* charges, so concurrent jobs don't pollute each other's
    reports.  Multi-stage jobs chain with ``after=`` (or
    :meth:`submit_chain`): a stage's dispatch floor is its predecessor's
    finish, exactly like the sequential engine.
    """

    def __init__(
        self,
        cluster: HadoopCluster,
        scheduler: Scheduler | None = None,
        plan: FaultPlan | None = None,
        observability: str = "full",
    ) -> None:
        if observability not in ("full", "lean"):
            raise ValueError(
                f"unknown observability {observability!r} (want full or lean)"
            )
        self.cluster = cluster
        self.scheduler = scheduler or FifoScheduler()
        self.plan = plan
        #: ``"full"`` keeps the reference observability surface: per-job
        #: all-slave /proc sampling at start and finish, and the
        #: control-plane event log.  ``"lean"``
        #: samples each slave once at the mix origin and once at the mix
        #: end, restricts per-job write rates to nodes the job touched,
        #: and records no event log — the regime for data-center
        #: scale runs where per-job × per-node sampling is quadratic.
        self.observability = observability
        self.jobs: list[ScheduledJob] = []
        self.fence = CommitFence()
        self._ids: set[str] = set()
        self._ran = False
        self._running: list[RunningTask] = []
        # one (kind, job_id, node, start_s, end_s) row per task attempt; a
        # preempted attempt's row is tombstoned (None) in place, see
        # _replace_interval
        self._intervals: list[tuple | None] = []
        self._interval_index: dict[tuple, list[int]] | None = None
        self._indexed = 0
        self._faults: _MixFaults | None = None
        self._acct: MixFaultAccounting | None = None
        # Limping hosts whose attempts actually triggered a backup race.
        self._detected_slow: set[str] = set()
        # the control-plane event log as (priority, seq, type, time_s,
        # payload) rows: a list under observability="full", None under
        # "lean", which records nothing
        self._events: list[tuple] | None = None
        self._failures: list[JobFailedError] = []
        self._ready_announced: set[str] = set()

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        work: JobWork,
        arrival_s: float = 0.0,
        user: str = "default",
        pool: str = "default",
        job_id: str | None = None,
        after: ScheduledJob | None = None,
    ) -> ScheduledJob:
        if self._ran:
            raise RuntimeError("mix already ran; build a new MultiJobCluster")
        if not (math.isfinite(arrival_s) and arrival_s >= 0):
            raise ValueError("arrival_s must be finite and non-negative")
        if not user.strip() or not pool.strip():
            raise ValueError("user and pool must be non-empty")
        # seq is a job's index in the append-only list: O(1), not a scan
        if after is not None and not (
            after.seq < len(self.jobs) and self.jobs[after.seq] is after
        ):
            raise ValueError("after= must name a job submitted to this mix")
        seq = len(self.jobs)
        if job_id is None:
            job_id = f"job-{seq:04d}"
        if not job_id or job_id != job_id.strip():
            raise ValueError("job_id must be a non-empty trimmed string")
        if job_id in self._ids:
            raise ValueError(f"duplicate job_id {job_id!r}")
        job = ScheduledJob(
            job_id=job_id,
            work=work,
            arrival_s=arrival_s,
            user=user,
            pool=pool,
            seq=seq,
            depends_on=after,
        )
        self._ids.add(job_id)
        self.jobs.append(job)
        self.scheduler.on_submit(job)
        return job

    def submit_chain(
        self,
        works: list[JobWork],
        arrival_s: float = 0.0,
        user: str = "default",
        pool: str = "default",
        id_prefix: str | None = None,
    ) -> list[ScheduledJob]:
        """Submit a multi-stage job: stage k+1 starts when stage k ends."""
        if not works:
            raise ValueError("a chain needs at least one job")
        chain: list[ScheduledJob] = []
        previous = None
        for stage, work in enumerate(works):
            job_id = None
            if id_prefix is not None:
                job_id = f"{id_prefix}/{stage}" if len(works) > 1 else id_prefix
            previous = self.submit(
                work,
                arrival_s=arrival_s,
                user=user,
                pool=pool,
                job_id=job_id,
                after=previous,
            )
            chain.append(previous)
        return chain

    # -- execution -------------------------------------------------------------

    @nogc
    def run(self, raise_on_failure: bool = True) -> MixOutcome:
        """Execute the whole mix and return its :class:`MixOutcome`.

        One loop: a ``dispatch`` event, then dispatch rounds
        (:meth:`_run_round`) until the mix quiesces, each followed by the
        next ``dispatch`` event.  Under ``observability="full"`` every
        control-plane transition (submit, stage-ready, dispatch round,
        attempt finished, job finished/failed/cancelled) is recorded in
        the event log that rides on the outcome, in the order an
        :class:`~repro.cluster.eventbus.EventBus` would deliver it.  Under
        ``"lean"`` nothing is recorded and the outcome's ``events`` tuple
        is empty.  Recording never changes a round, so both levels place
        and time every task identically.  Task intervals and events are
        kept as rows, and the outcome builds their objects on first read
        (:meth:`MixOutcome.deferred`).  Dispatch starts by giving every
        job its own dispatch containers, and the whole run keeps the
        cyclic collector paused (it creates no cyclic garbage;
        ``tests/cluster/test_nogc.py``).

        When a job aborts permanently (a task exhausted its attempts, or
        no live node remained), the mix does not deadlock: the job is
        marked ``failed``, every job downstream of it (via ``after=`` /
        :meth:`submit_chain`) is marked ``cancelled`` without ever being
        dispatched against the missing input, and independent jobs run
        to completion.  With ``raise_on_failure=True`` (default) the
        first failure is re-raised after the survivors finish; with
        ``False`` the outcome is returned with per-job ``status`` and
        the mix-level ``failed_jobs`` / ``cancelled_jobs`` tuples.
        """
        if self._ran:
            raise RuntimeError("mix already ran; build a new MultiJobCluster")
        self._ran = True
        cluster = self.cluster
        cluster.ensure_schedulable()
        for job in self.jobs:
            job.pending = deque(range(len(job.work.maps)))
            job.map_starts, job.map_ends, job.map_nodes = {}, {}, {}
            job.attempts, job.disk_writes = {}, {}
        self.scheduler.reset()
        origin = cluster.clock
        if self.plan is not None:
            self._faults = _MixFaults(self.plan, cluster, origin)
            self._acct = MixFaultAccounting(
                nodes_crashed=tuple(sorted(self._faults.crash_at)),
                partition_windows=self._faults.partition_windows,
                limping_nodes=tuple(sorted(self._faults.slow_nodes)),
            )
        self._preemptions = 0
        self._preemption_wasted = 0.0
        self._obs_t = origin
        self._origin = origin
        lean = self.observability == "lean"
        if lean:
            # One sample stream for the whole mix (start + end), instead
            # of a pair of all-slave sweeps per job.
            for node in cluster.slaves:
                node.procfs.sample(origin)
        else:
            self._events = []
            for job in self.jobs:
                self._publish(
                    EVENT_SUBMIT,
                    time_s=job.arrival_s,
                    job_id=job.job_id,
                    name=job.name,
                    user=job.user,
                    pool=job.pool,
                    after=job.depends_on.job_id if job.depends_on else None,
                )

        if not lean:
            self._publish(EVENT_DISPATCH, time_s=origin)
        while self._run_round():
            if not lean:
                self._publish(EVENT_DISPATCH, time_s=cluster.clock)

        unfinished = sorted(
            j.job_id for j in self.jobs if j.status == "pending"
        )
        if unfinished:
            raise JobFailedError(
                f"mix deadlocked with unfinished jobs: {', '.join(unfinished)}"
            )
        if raise_on_failure and self._failures:
            raise self._failures[0]
        if self._acct is not None:
            self._acct.stragglers_detected = tuple(sorted(self._detected_slow))
        end_s = max(
            (job.finished_s for job in self.jobs if job.finished_s is not None),
            default=origin,
        )
        if lean:
            for node in cluster.slaves:
                node.procfs.sample(end_s)
        reports = [
            JobReport(
                job_id=job.job_id,
                name=job.name,
                user=job.user,
                pool=job.pool,
                arrival_s=job.arrival_s,
                first_launch_s=job.first_launch_s,
                finished_s=job.finished_s,
                preempted=job.preempted,
                timeline=job.timeline,
                status=job.status,
            )
            for job in self.jobs
        ]
        outcome = MixOutcome.deferred(
            scheduler=self.scheduler.name,
            reports=reports,
            end_s=end_s,
            preemptions=self._preemptions,
            preemption_wasted_s=self._preemption_wasted,
            task_intervals=RowDecoder(TaskInterval, self._task_intervals()),
            fault_accounting=self._acct,
            fenced_attempts=self.fence.fenced,
            failed_jobs=tuple(
                j.job_id for j in self.jobs if j.status == "failed"
            ),
            cancelled_jobs=tuple(
                j.job_id for j in self.jobs if j.status == "cancelled"
            ),
            events=RowDecoder(Event, self._events or [], tuple),
        )
        # from here on the rows live only in the decoders
        self._intervals = self._interval_index = self._events = None
        return outcome

    # -- the dispatch round ----------------------------------------------------

    def _publish(self, event_type: str, time_s: float, **payload) -> None:
        """Record one event row (no-op under ``observability="lean"``),
        after the checks :meth:`~repro.cluster.eventbus.EventBus.publish`
        applies.  The per-round and per-task call sites test
        ``self._events`` first, so a lean run builds no event payloads;
        the rare failure paths rely on the no-op.  Every event has
        priority 0 and its index for ``seq``: the log is in publication
        order, the order a bus delivers priority-0 events in."""
        events = self._events
        if events is not None:
            check_event(event_type, payload)
            events.append((0, len(events), event_type, time_s, payload))

    def _floor_of(self, job: ScheduledJob) -> float | None:
        if job.depends_on is not None:
            if job.depends_on.finished_s is None:
                return None
            return max(self._origin, job.arrival_s, job.depends_on.finished_s)
        return max(self._origin, job.arrival_s)

    def _finishable(self) -> list[ScheduledJob]:
        return sorted(
            (
                job
                for job in self.jobs
                if job.status == "pending"
                and job.finished_s is None
                and not job.pending
                and len(job.map_ends) == len(job.work.maps)
            ),
            # last_map_end_s is the incrementally-maintained
            # max(map_ends.values()) — never recomputed in a sort key
            key=lambda job: (job.last_map_end_s, job.seq),
        )

    def _run_round(self) -> bool:
        """One round of the dispatch loop; False when the mix quiesced.

        This is the single definition of dispatch semantics: :meth:`run`
        iterates it, and the fast path overrides only where its
        candidates come from.
        """
        cluster = self.cluster
        floors = {}
        for job in self.jobs:
            if job.status != "pending" or not job.pending:
                continue
            floor = self._floor_of(job)
            if floor is not None:
                floors[job] = floor
                if self._events is not None and job.job_id not in self._ready_announced:
                    self._ready_announced.add(job.job_id)
                    self._publish(
                        EVENT_STAGE_READY,
                        time_s=floor,
                        job_id=job.job_id,
                        floor_s=floor,
                    )
        if not floors:
            # No dispatchable map work left: run the deferred reduce
            # phases (map-completion order), which may unblock chained
            # stages — then look again.
            ready = self._finishable()
            if not ready:
                return False
            for job in ready:
                self._finish_or_fail(job)
            return True
        now = max(self._earliest_slot_time(), min(floors.values()))
        if self.scheduler.preemption:
            # While every slot is busy until `now`, starvation can
            # build up unobserved: wake at arrivals and at the
            # scheduler's timeout deadlines so preemption can fire
            # before the next natural slot-free event.
            obs = self._next_observation(floors, now)
            if obs is not None:
                self._observe_starvation(obs, floors)
                return True
        # Charge deferred reduce phases the dispatch clock has caught
        # up with *before* assigning more maps, so disk/NIC charges
        # stay time-ordered across jobs (a job that finished its maps
        # must not queue its whole reduce phase's I/O ahead of map
        # tasks that start earlier).
        caught_up = [
            job for job in self._finishable() if job.last_map_end_s <= now
        ]
        if caught_up:
            for job in caught_up:
                self._finish_or_fail(job)
            return True
        runnable = [job for job, floor in floors.items() if floor <= now]
        self._running = [rt for rt in self._running if rt.end_s > now]
        state = SchedulerState(
            now, runnable, self._running, cluster.total_map_slots
        )
        victims = self.scheduler.tasks_to_preempt(now, state)
        if victims:
            self._apply_preemptions(now, state, victims)
            return True
        job = self.scheduler.pick_job(now, runnable, state)
        if job not in runnable:
            raise RuntimeError(
                f"{self.scheduler.name} picked a job that is not runnable"
            )
        try:
            self._dispatch_map(job, floors[job])
        except JobFailedError as exc:
            self._fail_job(job, exc)
        return True

    def _finish_or_fail(self, job: ScheduledJob) -> None:
        try:
            self._finish_job(job)
        except JobFailedError as exc:
            self._fail_job(job, exc)

    # -- failure propagation ---------------------------------------------------

    def _fail_job(self, job: ScheduledJob, exc: JobFailedError) -> None:
        """Mark *job* failed and cancel its whole downstream cone.

        Queued dependents are never dispatched against the missing
        input; jobs on independent branches keep running.
        """
        job.status = "failed"
        job.failure = exc
        job.pending.clear()
        self._failures.append(exc)
        self._running = [rt for rt in self._running if rt.job is not job]
        self._publish(
            EVENT_JOB_FAILED,
            time_s=self.cluster.clock,
            job_id=job.job_id,
            reason=str(exc),
        )
        doomed = {job}
        changed = True
        while changed:
            changed = False
            for other in self.jobs:
                if other.status == "pending" and other.depends_on in doomed:
                    other.status = "cancelled"
                    other.failure = exc
                    other.pending.clear()
                    doomed.add(other)
                    changed = True
                    self._publish(
                        EVENT_JOB_CANCELLED,
                        time_s=self.cluster.clock,
                        job_id=other.job_id,
                        upstream=job.job_id,
                    )

    # -- dispatch internals ----------------------------------------------------

    def _earliest_slot_time(self) -> float:
        """Earliest next-free map slot on any node still alive then."""
        best = None
        for node in self.cluster.slaves:
            t = min(node.map_slot_free)
            if self._faults is not None and self._faults.dead_at(node.name, t):
                continue
            if best is None or t < best:
                best = t
        return best if best is not None else self.cluster.clock

    def _write_probe(self) -> _WriteProbe:
        """Build the per-charge-window disk-write probe (overridable)."""
        return _WriteProbe(self.cluster.slaves)

    def _set_map_slot(self, node: Node, slot: int, at: float) -> None:
        """Write a map slot's next-free time (fast path hooks indexing)."""
        node.map_slot_free[slot] = at

    def _charge_map_clean(
        self,
        task: MapWork,
        floor: float,
        wait: float,
        rack_wait: float,
        probe: _WriteProbe,
    ) -> tuple[float, float, Node, int]:
        """Slot pick + charge for the no-fault path (fast path overrides)."""
        return self.cluster._charge_map_task(
            task, floor, wait, rack_wait, probe=probe
        )

    def _dispatch_map(self, job: ScheduledJob, floor: float) -> None:
        cluster = self.cluster
        if job.started_s is None:
            job.started_s = floor
            if self.observability == "full":
                for node in cluster.slaves:
                    node.procfs.sample(floor)
        m_index = job.pending.popleft()
        task = job.work.maps[m_index]
        wait = self.scheduler.locality_wait_s(cluster)
        rack_wait = self.scheduler.rack_locality_wait_s(cluster)
        net_before = cluster.network.bytes_moved
        probe = self._write_probe()
        if self._faults is None:
            task_start, end, node, slot = self._charge_map_clean(
                task, floor, wait, rack_wait, probe
            )
        else:
            task_start, end, node, slot = self._charge_map_faulty(
                job, task, m_index, floor, wait, rack_wait, probe=probe
            )
        job.net_bytes += cluster.network.bytes_moved - net_before
        probe.settle(job)
        job.map_starts[m_index] = task_start
        job.map_ends[m_index] = end
        job.map_nodes[m_index] = node
        if job.last_map_end_s is None or end > job.last_map_end_s:
            job.last_map_end_s = end
        if job.first_launch_s is None or task_start < job.first_launch_s:
            job.first_launch_s = task_start
        self._running.append(RunningTask(job, m_index, node, slot, task_start, end))
        self._intervals.append(("map", job.job_id, node.name, task_start, end))
        if self._events is not None:
            self._publish(
                EVENT_ATTEMPT_FINISHED,
                time_s=end,
                job_id=job.job_id,
                task=f"m{m_index}",
                node=node.name,
                start_s=task_start,
                end_s=end,
            )

    def _next_observation(self, floors, natural: float) -> float | None:
        """Earliest unprocessed instant before *natural* worth waking at."""
        candidates = [f for f in floors.values() if self._obs_t < f < natural]
        wake = self.scheduler.next_wake_s()
        if wake is not None and self._obs_t < wake < natural:
            candidates.append(wake)
        return min(candidates, default=None)

    def _observe_starvation(self, obs: float, floors) -> None:
        """Let the scheduler see the cluster at *obs* and preempt if due."""
        self._obs_t = obs
        runnable = [job for job, floor in floors.items() if floor <= obs]
        if not runnable:
            return
        running = [rt for rt in self._running if rt.end_s > obs]
        state = SchedulerState(
            obs, runnable, running, self.cluster.total_map_slots
        )
        victims = self.scheduler.tasks_to_preempt(obs, state)
        if victims:
            self._running = running
            self._apply_preemptions(obs, state, victims)

    def _apply_preemptions(
        self, now: float, state: SchedulerState, victims: list[RunningTask]
    ) -> None:
        for rt in victims:
            if not state.slot_safe(rt):
                raise RuntimeError("scheduler proposed an unsafe preemption victim")
            self._set_map_slot(rt.node, rt.slot, now)
            rt.node.procfs.record_task_preemption()
            job = rt.job
            job.pending.appendleft(rt.m_index)
            job.map_starts.pop(rt.m_index, None)
            job.map_ends.pop(rt.m_index, None)
            job.map_nodes.pop(rt.m_index, None)
            # preemption can remove the latest end: recompute (rare path)
            job.last_map_end_s = (
                max(job.map_ends.values()) if job.map_ends else None
            )
            job.preempted += 1
            self._preemptions += 1
            self._preemption_wasted += now - rt.start_s
            self._running.remove(rt)
            # the attempt's charged I/O stays charged (work really done,
            # then thrown away); shrink its occupancy interval to the kill
            self._replace_interval(
                ("map", job.job_id, rt.node.name, rt.start_s, rt.end_s),
                ("map", job.job_id, rt.node.name, rt.start_s, now),
            )

    def _replace_interval(self, old: tuple, new: tuple) -> None:
        """``list.remove(old)`` then ``append(new)``, without the scan.

        The first call builds an interval -> live positions index; each
        call indexes what was appended since the last one, and
        tombstones (``None``) the first live position equal to *old*, as
        ``list.remove`` would drop it.  :meth:`_task_intervals` compacts
        once.  Runs that never preempt never build the index.
        """
        intervals = self._intervals
        index = self._interval_index
        if index is None:
            index = self._interval_index = {}
        for pos in range(self._indexed, len(intervals)):
            index.setdefault(intervals[pos], []).append(pos)
        positions = index.get(old)
        if not positions:
            raise ValueError(f"{old!r} is not a task interval of this mix")
        intervals[positions.pop(0)] = None
        if not positions:
            del index[old]
        intervals.append(new)
        self._indexed = len(intervals) - 1

    def _task_intervals(self) -> list[tuple]:
        """The outcome's interval rows: preemption tombstones compacted out."""
        if self._interval_index is None:
            return self._intervals
        return [iv for iv in self._intervals if iv is not None]

    def _finish_job(self, job: ScheduledJob) -> None:
        cluster = self.cluster
        work = job.work
        count = len(work.maps)
        net_before = cluster.network.bytes_moved
        probe = self._write_probe()
        if self._faults is not None:
            self._reexecute_lost_maps(job, probe)
        map_end_times = list(map(job.map_ends.__getitem__, range(count)))
        map_nodes = list(map(job.map_nodes.__getitem__, range(count)))
        map_outputs = [task.output_bytes for task in work.maps]
        if self._faults is None:
            end, map_phase_end, spans = cluster._charge_reduce_phase(
                work, job.started_s, map_end_times, map_nodes, map_outputs,
                probe=probe,
            )
        else:
            end, map_phase_end, spans = self._charge_reduce_phase_faulty(
                job, job.started_s, map_end_times, map_nodes, map_outputs,
                probe=probe,
            )
        job.net_bytes += cluster.network.bytes_moved - net_before
        probe.settle(job)
        job.map_phase_end_s = map_phase_end
        job.finished_s = end
        if end > cluster.clock:
            cluster.clock = end
        rates: dict[str, float] = {}
        duration = end - job.started_s
        if self.observability == "full":
            for node in cluster.slaves:
                node.procfs.sample(end)
                if duration > 0:
                    rates[node.name] = job.disk_writes.get(node.name, 0) / duration
                else:
                    rates[node.name] = 0.0
        else:
            # lean: rate entries only for nodes this job actually wrote
            for name, writes in job.disk_writes.items():
                rates[name] = writes / duration if duration > 0 else 0.0
        tiers = [
            cluster._map_locality_tier(task, node)
            for task, node in zip(work.maps, map_nodes)
        ]
        job.timeline = JobTimeline(
            job_name=work.name,
            start_s=job.started_s,
            map_phase_end_s=map_phase_end,
            end_s=end,
            map_tasks=count,
            reduce_tasks=len(work.reduces),
            disk_writes_per_second=rates,
            network_bytes=job.net_bytes,
            maps_node_local=tiers.count("node"),
            maps_rack_local=tiers.count("rack"),
            maps_off_rack=tiers.count("off"),
            node_racks=cluster._node_racks(),
        )
        events = self._events
        for r_index, (node, exec_start, exec_end) in enumerate(spans):
            self._intervals.append(
                ("reduce", job.job_id, node.name, exec_start, exec_end)
            )
            if events is not None:
                self._publish(
                    EVENT_ATTEMPT_FINISHED,
                    time_s=exec_end,
                    job_id=job.job_id,
                    task=f"r{r_index}",
                    node=node.name,
                    start_s=exec_start,
                    end_s=exec_end,
                )
        job.status = "completed"
        if events is not None:
            self._publish(
                EVENT_JOB_FINISHED,
                time_s=end,
                job_id=job.job_id,
                finished_s=end,
            )

    # -- fault-injected charging -----------------------------------------------

    def _pick_live_map_slot(
        self,
        task: MapWork,
        at: float,
        locality_wait: float,
        rack_wait: float | None = None,
    ) -> tuple[Node, int, float]:
        """Stock delay-scheduling pick, over nodes reachable at dispatch."""
        cluster = self.cluster
        if rack_wait is None:
            rack_wait = cluster.rack_locality_wait_s
        faults = self._faults
        best_node, best_slot, best_time = None, -1, float("inf")
        local_node, local_slot, local_time = None, -1, float("inf")
        rack_node, rack_slot, rack_time = None, -1, float("inf")
        preferred_racks = cluster._preferred_racks(task)
        for node in cluster.slaves:
            slot = node.earliest_map_slot()
            t = max(node.map_slot_free[slot], at)
            window = faults.partition_at(node.name, t)
            if window is not None:
                t = window[1]  # usable again when the partition heals
            if faults.dead_at(node.name, t):
                continue
            if t < best_time:
                best_node, best_slot, best_time = node, slot, t
            if task.preferred_nodes and node.name in task.preferred_nodes and t < local_time:
                local_node, local_slot, local_time = node, slot, t
            if (
                preferred_racks
                and t < rack_time
                and cluster.topology.has_node(node.name)
                and cluster.topology.rack_of(node.name) in preferred_racks
            ):
                rack_node, rack_slot, rack_time = node, slot, t
        if best_node is None:
            raise JobFailedError("no live node left to run map tasks")
        if local_node is not None and local_time <= best_time + locality_wait:
            return local_node, local_slot, local_time
        if rack_node is not None and rack_time <= best_time + locality_wait + rack_wait:
            return rack_node, rack_slot, rack_time
        return best_node, best_slot, best_time

    def _charge_map_faulty(
        self,
        job: ScheduledJob,
        task: MapWork,
        m_index: int,
        floor: float,
        locality_wait: float,
        rack_wait: float | None = None,
        probe: _WriteProbe | None = None,
    ) -> tuple[float, float, Node, int]:
        cluster, faults, acct = self.cluster, self._faults, self._acct
        policy: RetryPolicy = faults.policy
        task_id = f"{job.job_id}/m{m_index}"
        t = floor
        for _ in range(_MAX_MIX_ATTEMPTS):
            attempt = job.attempts[task_id] = job.attempts.get(task_id, -1) + 1
            node, slot, ready = self._pick_live_map_slot(
                task, t, locality_wait, rack_wait
            )
            task_start = max(ready, t)
            self.fence.grant(task_id, attempt)
            end = cluster._charge_map_on(task, node, task_start, probe=probe)
            crash = faults.crash_time(node.name)
            if crash is not None and task_start < crash < end:
                # fail-stop mid-attempt: the tracker stops heartbeating;
                # the jobtracker notices after the expiry interval and
                # reschedules the attempt elsewhere.
                self._set_map_slot(node, slot, crash)
                node.procfs.tasks_killed += 1
                acct.killed_attempts += 1
                acct.wasted_task_seconds += crash - task_start
                self.fence.revoke(task_id, attempt)
                t = max(t, crash + policy.heartbeat_timeout_s)
                continue
            window = faults.partition_spanning(node.name, task_start, end)
            self._set_map_slot(node, slot, end)
            if window is not None:
                win_start, win_end = window
                if win_end - win_start <= policy.heartbeat_timeout_s:
                    # blip: a missed heartbeat or two; the completion
                    # report lands when the link heals.
                    end = max(end, win_end)
                    self._set_map_slot(node, slot, end)
                    self.fence.try_commit(task_id, attempt)
                    return task_start, end, node, slot
                # long partition: tracker declared lost, attempt
                # rescheduled — but the zombie keeps running behind the
                # wall and is fenced when it asks to commit after rejoin.
                node.procfs.tasks_killed += 1
                acct.killed_attempts += 1
                acct.wasted_task_seconds += end - task_start
                self.fence.revoke(task_id, attempt)
                self.fence.try_commit(task_id, attempt)
                acct.zombies_fenced = self.fence.fenced - acct.speculative_losers_fenced
                t = max(t, win_start + policy.heartbeat_timeout_s)
                continue
            if faults.speculation and node.name in faults.slow_nodes:
                raced = self._speculate_map_mix(
                    job, task, task_id, attempt, node, slot, task_start, end,
                    probe=probe,
                )
                if raced is not None:
                    task_start, end, node, slot, attempt = raced
            self.fence.try_commit(task_id, attempt)
            return task_start, end, node, slot
        raise JobFailedError(f"map {task_id} exhausted {_MAX_MIX_ATTEMPTS} attempts")

    def _speculate_map_mix(
        self,
        job: ScheduledJob,
        task: MapWork,
        task_id: str,
        attempt: int,
        node: Node,
        slot: int,
        task_start: float,
        end: float,
        probe: _WriteProbe | None = None,
    ) -> tuple[float, float, Node, int, int] | None:
        """Speculative backup race for a map on a diagnosed limping host.

        The jobtracker's health monitor has flagged the host (the same
        per-node diagnosis the single-job engine speculates on), so the
        attempt gets a backup raced on a healthy node.  Whichever
        attempt loses the race was never (or no longer) granted commit
        rights, so the :class:`CommitFence` refuses its late commit —
        the same canCommit protocol that fences partition zombies — and
        exactly one attempt's output survives.  Returns the backup's
        ``(start, end, node, slot, attempt)`` when the backup wins,
        else ``None``.
        """
        cluster, faults, acct = self.cluster, self._faults, self._acct
        candidates = [
            n
            for n in cluster.slaves
            if n is not node
            and n.name not in faults.slow_nodes
            and not faults.dead_at(n.name, task_start)
            and faults.partition_at(n.name, task_start) is None
        ]
        if not candidates:
            return None
        self._detected_slow.add(node.name)
        acct.speculative_attempts += 1
        backup_node = min(
            candidates, key=lambda n: n.map_slot_free[n.earliest_map_slot()]
        )
        backup_slot = backup_node.earliest_map_slot()
        backup_start = max(backup_node.map_slot_free[backup_slot], task_start)
        backup_attempt = job.attempts[task_id] = attempt + 1
        backup_end = cluster._charge_map_on(
            task, backup_node, backup_start, probe=probe
        )
        self._set_map_slot(backup_node, backup_slot, backup_end)
        backup_node.procfs.tasks_speculative += 1
        crash = faults.crash_time(backup_node.name)
        backup_lost = (
            crash is not None and backup_start < crash < backup_end
        ) or faults.partition_spanning(
            backup_node.name, backup_start, backup_end
        ) is not None
        if backup_lost or backup_end >= end:
            # Original wins (or the backup's host crashed/partitioned
            # mid-race): the backup never held commit rights, so its
            # late commit is fenced.
            self.fence.try_commit(task_id, backup_attempt)
            acct.speculative_losers_fenced += 1
            acct.killed_attempts += 1
            acct.wasted_task_seconds += backup_end - backup_start
            backup_node.procfs.tasks_killed += 1
            return None
        # Backup wins: commit rights move to it and the limping
        # original is fenced when it finally reports in.
        self.fence.grant(task_id, backup_attempt)
        self.fence.try_commit(task_id, attempt)
        acct.speculative_losers_fenced += 1
        acct.killed_attempts += 1
        acct.wasted_task_seconds += end - task_start
        acct.speculative_wins += 1
        node.procfs.tasks_killed += 1
        backup_node.procfs.speculative_wins += 1
        return backup_start, backup_end, backup_node, backup_slot, backup_attempt

    def _reexecute_lost_maps(
        self, job: ScheduledJob, probe: _WriteProbe | None = None
    ) -> None:
        """Re-run completed maps whose outputs died with their node.

        A map output lives on its tasktracker's local disk until the
        reducers have copied it; a crash inside the job's map phase
        (after the map finished, before the copy window closes) loses it
        and the jobtracker re-executes the map — same rule the
        single-job fault scheduler applies.  Jobs without reducers don't
        care: their output is already in HDFS.
        """
        if not job.work.reduces:
            return
        faults, acct = self._faults, self._acct
        wait = self.scheduler.locality_wait_s(self.cluster)
        for _ in range(_MAX_MIX_ATTEMPTS):
            map_phase_end = max(job.map_ends.values())
            lost = [
                m_index
                for m_index in range(len(job.work.maps))
                if (crash := faults.crash_time(job.map_nodes[m_index].name)) is not None
                and job.map_ends[m_index] <= crash < map_phase_end
            ]
            if not lost:
                return
            for m_index in lost:
                crash = faults.crash_time(job.map_nodes[m_index].name)
                acct.maps_reexecuted += 1
                acct.wasted_task_seconds += (
                    job.map_ends[m_index] - job.map_starts[m_index]
                )
                retry_floor = max(
                    job.map_ends[m_index], crash + faults.policy.heartbeat_timeout_s
                )
                task_start, end, node, slot = self._charge_map_faulty(
                    job, job.work.maps[m_index], m_index, retry_floor, wait,
                    probe=probe,
                )
                job.map_starts[m_index] = task_start
                job.map_ends[m_index] = end
                job.map_nodes[m_index] = node
                if job.last_map_end_s is None or end > job.last_map_end_s:
                    job.last_map_end_s = end
                self._intervals.append(("map", job.job_id, node.name, task_start, end))
        raise JobFailedError(f"{job.job_id}: map re-execution did not converge")

    def _shuffle_for(
        self,
        node: Node,
        task,
        floor: float,
        map_end_times: list[float],
        map_nodes: list[Node],
        map_outputs: list[int],
        total_map_output: int,
    ) -> float:
        """Charge one reducer's copy phase, stalling through partitions."""
        cluster, faults = self.cluster, self._faults
        shuffle_done = floor
        if not (total_map_output and task.shuffle_bytes):
            return shuffle_done
        for m_end, m_node, m_out in zip(map_end_times, map_nodes, map_outputs):
            segment = int(task.shuffle_bytes * (m_out / total_map_output))
            if segment <= 0:
                continue
            fetch_at = max(m_end, floor)
            for _ in range(_MAX_MIX_ATTEMPTS):
                window = faults.partition_at(m_node.name, fetch_at) or faults.partition_at(
                    node.name, fetch_at
                )
                if window is None:
                    break
                fetch_at = window[1]
            if m_node is node:
                done = m_node.disk.read(fetch_at, segment)
            else:
                read_done = m_node.disk.read(fetch_at, segment)
                done = cluster.network.transfer(read_done, m_node.nic, node.nic, segment)
            if done > shuffle_done:
                shuffle_done = done
        return shuffle_done

    def _charge_reduce_phase_faulty(
        self,
        job: ScheduledJob,
        start: float,
        map_end_times: list[float],
        map_nodes: list[Node],
        map_outputs: list[int],
        probe: _WriteProbe | None = None,
    ) -> tuple[float, float, list[tuple[Node, float, float]]]:
        cluster, faults, acct = self.cluster, self._faults, self._acct
        policy = faults.policy
        work = job.work
        map_phase_end = max(map_end_times) if map_end_times else start
        total_map_output = sum(map_outputs)
        end = map_phase_end
        spans: list[tuple[Node, float, float]] = []
        if not work.reduces:
            return end, map_phase_end, spans
        live = [n for n in cluster.slaves if not faults.dead_at(n.name, map_phase_end)]
        if not live:
            raise JobFailedError("no live node left to run reduce tasks")

        placements = []
        shuffle_done_times = []
        for r_index, task in enumerate(work.reduces):
            node = live[r_index % len(live)]
            slot = node.earliest_reduce_slot()
            ready = max(node.reduce_slot_free[slot], start)
            placements.append((node, slot))
            shuffle_done_times.append(
                max(
                    ready,
                    self._shuffle_for(
                        node, task, start, map_end_times, map_nodes,
                        map_outputs, total_map_output,
                    ),
                )
            )
        for r_index, ((node, slot), task, shuffle_done) in enumerate(
            zip(placements, work.reduces, shuffle_done_times)
        ):
            task_id = f"{job.job_id}/r{r_index}"
            for _ in range(_MAX_MIX_ATTEMPTS):
                attempt = job.attempts[task_id] = job.attempts.get(task_id, -1) + 1
                self.fence.grant(task_id, attempt)
                exec_start = max(shuffle_done, map_phase_end, node.reduce_slot_free[slot])
                window = faults.partition_at(node.name, exec_start)
                if window is not None:
                    exec_start = window[1]
                now = exec_start + node.cpu_time(task.cpu_seconds)
                if probe is not None:
                    probe.note(node)
                now = node.disk.write(now, task.output_bytes + TASK_LOG_BYTES)
                crash = faults.crash_time(node.name)
                if crash is not None and exec_start < crash < now:
                    node.reduce_slot_free[slot] = crash
                    node.procfs.tasks_killed += 1
                    acct.killed_attempts += 1
                    acct.reduces_reexecuted += 1
                    acct.wasted_task_seconds += crash - exec_start
                    self.fence.revoke(task_id, attempt)
                    retry_at = crash + policy.heartbeat_timeout_s
                    survivors = [
                        n for n in cluster.slaves if not faults.dead_at(n.name, retry_at)
                    ]
                    if not survivors:
                        raise JobFailedError("no live node left to run reduce tasks")
                    node = min(
                        survivors,
                        key=lambda n: n.reduce_slot_free[n.earliest_reduce_slot()],
                    )
                    slot = node.earliest_reduce_slot()
                    # the replacement attempt re-copies its inputs
                    shuffle_done = self._shuffle_for(
                        node, task, retry_at, map_end_times, map_nodes,
                        map_outputs, total_map_output,
                    )
                    shuffle_done = max(shuffle_done, retry_at)
                    continue
                window = faults.partition_spanning(node.name, exec_start, now)
                if window is not None:
                    win_start, win_end = window
                    if win_end - win_start <= policy.heartbeat_timeout_s:
                        now = max(now, win_end)
                    else:
                        # zombie reducer behind the wall: fenced at commit
                        node.reduce_slot_free[slot] = now
                        node.procfs.tasks_killed += 1
                        acct.killed_attempts += 1
                        acct.reduces_reexecuted += 1
                        acct.wasted_task_seconds += now - exec_start
                        self.fence.revoke(task_id, attempt)
                        self.fence.try_commit(task_id, attempt)
                        acct.zombies_fenced = (
                            self.fence.fenced - acct.speculative_losers_fenced
                        )
                        shuffle_done = max(
                            shuffle_done, win_start + policy.heartbeat_timeout_s
                        )
                        continue
                if faults.speculation and node.name in faults.slow_nodes:
                    raced = self._speculate_reduce_mix(
                        job, task, task_id, attempt, shuffle_done,
                        map_phase_end, node, slot, exec_start, now,
                        probe=probe,
                    )
                    if raced is not None:
                        node, slot, exec_start, now, attempt = raced
                if task.output_bytes:
                    targets = [
                        n
                        for n in cluster.slaves
                        if n is not node and not faults.dead_at(n.name, now)
                    ]
                    copies = min(cluster.hdfs.replication - 1, len(targets))
                    offset = cluster._slave_index[node.name]
                    ordered = [
                        cluster.slaves[(offset + 1 + c) % len(cluster.slaves)]
                        for c in range(len(cluster.slaves) - 1)
                    ]
                    ordered = [n for n in ordered if n in targets][:copies]
                    for dst in ordered:
                        sent = cluster.network.transfer(
                            now, node.nic, dst.nic, task.output_bytes
                        )
                        if probe is not None:
                            probe.note(dst)
                        now = max(now, dst.disk.write(sent, task.output_bytes))
                node.reduce_slot_free[slot] = now
                self.fence.try_commit(task_id, attempt)
                spans.append((node, exec_start, now))
                if now > end:
                    end = now
                break
            else:
                raise JobFailedError(
                    f"reduce {task_id} exhausted {_MAX_MIX_ATTEMPTS} attempts"
                )
        return end, map_phase_end, spans

    def _speculate_reduce_mix(
        self,
        job: ScheduledJob,
        task,
        task_id: str,
        attempt: int,
        shuffle_done: float,
        map_phase_end: float,
        node: Node,
        slot: int,
        exec_start: float,
        now: float,
        probe: _WriteProbe | None = None,
    ) -> tuple[Node, int, float, float, int] | None:
        """Speculative backup race for a reduce on a diagnosed limping host.

        The backup's copy phase is assumed concurrent with the
        original's (both fetch the same map outputs), so the backup is
        charged execution and output I/O only — the same assumption the
        single-job engine's backup model makes.  Loser fencing is
        identical to the map race.  Returns the backup's ``(node, slot,
        start, end, attempt)`` when the backup wins, else ``None``.
        """
        cluster, faults, acct = self.cluster, self._faults, self._acct
        candidates = [
            n
            for n in cluster.slaves
            if n is not node
            and n.name not in faults.slow_nodes
            and not faults.dead_at(n.name, exec_start)
            and faults.partition_at(n.name, exec_start) is None
        ]
        if not candidates:
            return None
        self._detected_slow.add(node.name)
        acct.speculative_attempts += 1
        backup_node = min(
            candidates, key=lambda n: n.reduce_slot_free[n.earliest_reduce_slot()]
        )
        backup_slot = backup_node.earliest_reduce_slot()
        backup_start = max(
            shuffle_done, map_phase_end, backup_node.reduce_slot_free[backup_slot]
        )
        backup_attempt = job.attempts[task_id] = attempt + 1
        backup_end = backup_start + backup_node.cpu_time(task.cpu_seconds)
        if probe is not None:
            probe.note(backup_node)
        backup_end = backup_node.disk.write(
            backup_end, task.output_bytes + TASK_LOG_BYTES
        )
        backup_node.reduce_slot_free[backup_slot] = backup_end
        backup_node.procfs.tasks_speculative += 1
        crash = faults.crash_time(backup_node.name)
        backup_lost = (
            crash is not None and backup_start < crash < backup_end
        ) or faults.partition_spanning(
            backup_node.name, backup_start, backup_end
        ) is not None
        if backup_lost or backup_end >= now:
            self.fence.try_commit(task_id, backup_attempt)
            acct.speculative_losers_fenced += 1
            acct.killed_attempts += 1
            acct.wasted_task_seconds += backup_end - backup_start
            backup_node.procfs.tasks_killed += 1
            return None
        self.fence.grant(task_id, backup_attempt)
        self.fence.try_commit(task_id, attempt)
        acct.speculative_losers_fenced += 1
        acct.killed_attempts += 1
        acct.wasted_task_seconds += now - exec_start
        acct.speculative_wins += 1
        node.procfs.tasks_killed += 1
        backup_node.procfs.speculative_wins += 1
        # The limping original still occupies its slot to its own end.
        node.reduce_slot_free[slot] = now
        return backup_node, backup_slot, backup_start, backup_end, backup_attempt
