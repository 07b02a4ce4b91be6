"""Trace-driven workload mixes: "a day of traffic" as one seeded object.

Chen et al.'s cross-industry MapReduce study (PAPERS.md) found production
clusters dominated by heavy-tailed job mixes — most submissions are small
interactive jobs (ad-hoc queries, greps) while a thin tail of large batch
jobs moves most of the bytes.  :func:`generate_trace` reproduces that
regime over this repo's eleven DA workloads (plus Hive queries) with
seeded Poisson arrivals and named users/pools, and :func:`run_mix` plays
a trace through :class:`~repro.cluster.scheduler.MultiJobCluster` under
any scheduler, with optional fault injection.

Functional outputs are computed on a per-job *shadow cluster* (the same
paper-shaped cluster, dedicated to that job), which pins down three
things at once:

* the job's **output** — byte-identical regardless of scheduler or
  faults, because scheduling only decides *when* charges happen, never
  what the map/reduce functions compute (the chaos acceptance test
  asserts this);
* the job's **ideal solo duration**, the denominator of its slowdown;
* the per-task byte/CPU demands (``JobWork``) that the shared cluster
  schedules.

Co-location hook: :func:`characterize_colocation` finds the busiest
instant of the mix and characterizes the distinct workloads co-resident
on one node under a shared LLC via :mod:`repro.uarch.multicore`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from repro.cluster.cluster import make_cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    Deferred,
    MixOutcome,
    MultiJobCluster,
    PoolConfig,
    QueueConfig,
    Scheduler,
    jain_index,
)
__all__ = [
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
]

#: size classes of the heavy-tailed mix: (probability, pool, choices),
#: where each choice is (workload name, base scale).  Probabilities follow
#: Chen et al.'s "most jobs are small" production shape: ~70 % small
#: interactive queries, ~25 % medium analytics, ~5 % large batch.
DEFAULT_MIX: tuple[tuple[str, float, str, tuple[tuple[str, float], ...]], ...] = (
    (
        "small",
        0.70,
        "interactive",
        (("Grep", 0.06), ("WordCount", 0.06), ("Hive-bench", 0.08)),
    ),
    (
        "medium",
        0.25,
        "analytics",
        (("WordCount", 0.2), ("Naive Bayes", 0.15), ("K-means", 0.15)),
    ),
    (
        "large",
        0.05,
        "batch",
        (("Sort", 0.35), ("PageRank", 0.3)),
    ),
)

DEFAULT_USERS = ("ada", "bo", "carol", "deepak")


@dataclass(frozen=True)
class TraceJob:
    """One submission of a workload trace."""

    index: int
    workload: str
    scale: float
    arrival_s: float
    user: str
    pool: str
    size_class: str

    def __post_init__(self) -> None:
        # Imported here: repro.workloads.base itself imports the cluster
        # package, so a module-level import would be circular.
        from repro.workloads.base import WORKLOAD_NAMES

        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(f"unknown workload {self.workload!r}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if not (self.arrival_s >= 0 and math.isfinite(self.arrival_s)):
            raise ValueError("arrival_s must be finite and non-negative")

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "workload": self.workload,
            "scale": self.scale,
            "arrival_s": self.arrival_s,
            "user": self.user,
            "pool": self.pool,
            "size_class": self.size_class,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceJob":
        """Rebuild a job from :meth:`to_dict` output, with validation."""
        if not isinstance(data, dict):
            raise ValueError(f"trace job must be an object, got {type(data).__name__}")
        missing = [f for f in _TRACE_JOB_FIELDS if f not in data]
        if missing:
            raise ValueError(f"trace job missing field(s): {', '.join(missing)}")
        unknown = sorted(set(data) - set(_TRACE_JOB_FIELDS))
        if unknown:
            raise ValueError(f"trace job has unknown field(s): {', '.join(unknown)}")
        if not isinstance(data["index"], int) or isinstance(data["index"], bool):
            raise ValueError("trace job index must be an integer")
        for name in ("workload", "user", "pool", "size_class"):
            if not isinstance(data[name], str) or not data[name]:
                raise ValueError(f"trace job {name} must be a non-empty string")
        for name in ("scale", "arrival_s"):
            if isinstance(data[name], bool) or not isinstance(data[name], (int, float)):
                raise ValueError(f"trace job {name} must be a number")
        return cls(
            index=data["index"],
            workload=data["workload"],
            scale=float(data["scale"]),
            arrival_s=float(data["arrival_s"]),
            user=data["user"],
            pool=data["pool"],
            size_class=data["size_class"],
        )


_TRACE_JOB_FIELDS = (
    "index", "workload", "scale", "arrival_s", "user", "pool", "size_class",
)


@dataclass(frozen=True)
class WorkloadTrace:
    """A reproducible sequence of job submissions."""

    jobs: tuple[TraceJob, ...]
    seed: int
    arrival_rate_per_s: float

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a trace needs at least one job")
        arrivals = [job.arrival_s for job in self.jobs]
        if arrivals != sorted(arrivals):
            raise ValueError("trace jobs must be sorted by arrival time")

    def pools(self) -> list[str]:
        return sorted({job.pool for job in self.jobs})

    def users(self) -> list[str]:
        return sorted({job.user for job in self.jobs})

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "arrival_rate_per_s": self.arrival_rate_per_s,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise the trace so it can be replayed via ``mix --trace``."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadTrace":
        if not isinstance(data, dict):
            raise ValueError(f"trace must be an object, got {type(data).__name__}")
        for name in ("seed", "arrival_rate_per_s", "jobs"):
            if name not in data:
                raise ValueError(f"trace missing field {name!r}")
        if not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
            raise ValueError("trace seed must be an integer")
        rate = data["arrival_rate_per_s"]
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ValueError("trace arrival_rate_per_s must be a number")
        if not isinstance(data["jobs"], list):
            raise ValueError("trace jobs must be a list")
        jobs = tuple(TraceJob.from_dict(job) for job in data["jobs"])
        return cls(jobs=jobs, seed=data["seed"], arrival_rate_per_s=float(rate))

    @classmethod
    def from_json(cls, text: str) -> "WorkloadTrace":
        """Exact inverse of :meth:`to_json` (validated; raises ValueError)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"trace is not valid JSON: {error}") from None
        return cls.from_dict(data)


def generate_trace(
    seed: int = 0,
    num_jobs: int = 12,
    arrival_rate_per_s: float = 2.0,
    users: tuple[str, ...] = DEFAULT_USERS,
    mix=DEFAULT_MIX,
) -> WorkloadTrace:
    """Draw a seeded heavy-tailed trace: Poisson arrivals, mixed sizes."""
    if num_jobs < 1:
        raise ValueError("num_jobs must be at least 1")
    if not (arrival_rate_per_s > 0 and math.isfinite(arrival_rate_per_s)):
        raise ValueError("arrival_rate_per_s must be positive and finite")
    if not users:
        raise ValueError("need at least one user")
    rng = random.Random(f"tenancy:{seed}")
    classes = [entry[0] for entry in mix]
    weights = [entry[1] for entry in mix]
    by_class = {entry[0]: (entry[2], entry[3]) for entry in mix}
    clock = 0.0
    jobs = []
    for index in range(num_jobs):
        clock += rng.expovariate(arrival_rate_per_s)
        size_class = rng.choices(classes, weights=weights)[0]
        pool, choices = by_class[size_class]
        name, base_scale = rng.choice(choices)
        scale = round(base_scale * rng.uniform(0.75, 1.25), 4)
        jobs.append(
            TraceJob(
                index=index,
                workload=name,
                scale=scale,
                arrival_s=round(clock, 6),
                user=rng.choice(users),
                pool=pool,
                size_class=size_class,
            )
        )
    return WorkloadTrace(tuple(jobs), seed, arrival_rate_per_s)


def default_pools(trace: WorkloadTrace, min_share: int = 2) -> list[PoolConfig]:
    """Fair-scheduler pools for a trace: interactive pools get a minimum
    share and double weight, batch runs at weight 1."""
    pools = []
    for name in trace.pools():
        if name == "interactive":
            pools.append(PoolConfig(name, weight=2.0, min_share=min_share))
        else:
            pools.append(PoolConfig(name))
    return pools


def default_queues(trace: WorkloadTrace) -> list[QueueConfig]:
    """Capacity-scheduler queues: equal capacity split, 50 % user limit."""
    names = trace.pools()
    share = 1.0 / len(names)
    return [QueueConfig(name, capacity=share, user_limit=0.5) for name in names]


@dataclass
class TenantJobReport:
    """End-to-end accounting for one trace job (its whole stage chain)."""

    trace_job: TraceJob
    job_ids: tuple[str, ...]
    first_launch_s: float
    finished_s: float
    ideal_s: float
    #: map launches by delay-scheduling tier, summed over the stage
    #: chain (all node-local on a flat cluster).
    maps_node_local: int = 0
    maps_rack_local: int = 0
    maps_off_rack: int = 0

    @property
    def wait_s(self) -> float:
        return self.first_launch_s - self.trace_job.arrival_s

    @property
    def turnaround_s(self) -> float:
        return self.finished_s - self.trace_job.arrival_s

    @property
    def slowdown(self) -> float:
        """Turnaround over the job's solo (dedicated-cluster) duration."""
        if self.ideal_s <= 0:
            return 1.0
        return self.turnaround_s / self.ideal_s

    def to_dict(self) -> dict:
        return {
            **self.trace_job.to_dict(),
            "job_ids": list(self.job_ids),
            "first_launch_s": self.first_launch_s,
            "finished_s": self.finished_s,
            "ideal_s": self.ideal_s,
            "wait_s": self.wait_s,
            "turnaround_s": self.turnaround_s,
            "slowdown": self.slowdown,
            "maps_node_local": self.maps_node_local,
            "maps_rack_local": self.maps_rack_local,
            "maps_off_rack": self.maps_off_rack,
        }


@dataclass
class MixResult(Deferred):
    """A trace played through one scheduler on one shared cluster.

    ``outputs`` maps each trace job's index to its workload's output.  A
    result served from the mix cache computes them on first read (one
    solo-shadow run per distinct ``(workload, scale)``); nothing else on
    the result — reports, ``to_dict``, the ``mix`` table — reads them.
    """

    scheduler: str
    trace: WorkloadTrace
    reports: list[TenantJobReport]
    outcome: MixOutcome
    outputs: dict[int, object] = field(repr=False, default_factory=dict)

    def _select(self, pool=None, size_class=None, user=None):
        return [
            r
            for r in self.reports
            if (pool is None or r.trace_job.pool == pool)
            and (size_class is None or r.trace_job.size_class == size_class)
            and (user is None or r.trace_job.user == user)
        ]

    def mean_slowdown(self, pool=None, size_class=None, user=None) -> float:
        """Mean slowdown over the selection; NaN when nothing matches.

        An empty selection is an answerable question ("how slow were the
        interactive jobs?" when the trace had none), so it yields NaN —
        which propagates through comparisons and plots — rather than an
        exception that aborts a whole report.
        """
        chosen = self._select(pool, size_class, user)
        if not chosen:
            return float("nan")
        return sum(r.slowdown for r in chosen) / len(chosen)

    def mean_wait(self, pool=None, size_class=None, user=None) -> float:
        """Mean queueing wait over the selection; NaN when nothing matches."""
        chosen = self._select(pool, size_class, user)
        if not chosen:
            return float("nan")
        return sum(r.wait_s for r in chosen) / len(chosen)

    def jain_fairness(self, by: str = "job") -> float:
        """Jain's index over per-job slowdowns, or per-user/pool means."""
        if by == "job":
            return jain_index([r.slowdown for r in self.reports])
        if by == "user":
            groups = {r.trace_job.user for r in self.reports}
            return jain_index([self.mean_slowdown(user=g) for g in sorted(groups)])
        if by == "pool":
            groups = {r.trace_job.pool for r in self.reports}
            return jain_index([self.mean_slowdown(pool=g) for g in sorted(groups)])
        raise ValueError("by must be 'job', 'user' or 'pool'")

    def by_pool(self) -> dict[str, dict]:
        out = {}
        for name in self.trace.pools():
            chosen = self._select(pool=name)
            if not chosen:
                continue
            out[name] = {
                "jobs": len(chosen),
                "mean_wait_s": sum(r.wait_s for r in chosen) / len(chosen),
                "mean_slowdown": sum(r.slowdown for r in chosen) / len(chosen),
            }
        return out

    @property
    def makespan_s(self) -> float:
        return self.outcome.end_s

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "trace": self.trace.to_dict(),
            "makespan_s": self.makespan_s,
            "mean_slowdown": self.mean_slowdown(),
            "jain_fairness": self.jain_fairness(),
            "jain_fairness_by_user": self.jain_fairness(by="user"),
            "by_pool": self.by_pool(),
            "jobs": [r.to_dict() for r in self.reports],
            "outcome": self.outcome.to_dict(),
        }


def run_mix(
    trace: WorkloadTrace,
    scheduler: Scheduler | None = None,
    num_slaves: int = 4,
    map_slots: int = 8,
    reduce_slots: int = 4,
    block_size: int = 256 * 1024,
    plan: FaultPlan | None = None,
    engine: str = "reference",
    racks: int = 1,
    mix_cache=None,
    observability: str = "full",
) -> MixResult:
    """Play *trace* through a shared cluster under *scheduler*.

    The shared cluster is paper-shaped but with fewer slots per slave by
    default (8 map / 4 reduce), so a trace of modest scale actually
    contends for slots the way a loaded production cluster does.  With
    ``racks > 1`` the shared cluster (and each solo shadow) gets a
    uniform multi-rack topology, enabling rack-aware placement,
    three-level delay scheduling and rack-level fault plans.

    ``engine`` selects the dispatch class:

    * ``"reference"`` — :class:`~repro.cluster.scheduler.MultiJobCluster`,
      the straight-line reference loop.
    * ``"fast"`` — the indexed fast path
      (:class:`~repro.perf.clusterpath.FastMultiJobCluster`).
      Bit-identical to ``"reference"`` by contract.

    ``mix_cache`` (a :class:`~repro.core.simcache.MixCache`) memoises
    the whole :class:`MixOutcome` plus each trace job's ideal seconds on
    disk, under a key computed before any workload runs: the trace's
    jobs, scheduler config, fault plan, the shared cluster's shape and
    state (which is also every shadow's shape), observability, and
    digests of the cluster and execution code (:func:`~repro.core.simcache.
    mix_cache_key` with ``trace=``).  A warm hit runs no workload,
    submits nothing and dispatches nothing: the reports are rebuilt from
    the stored outcome, and ``outputs`` are computed on first read by
    re-running each distinct shadow once.  A miss runs the mix as
    without a cache and stores it.
    """
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r} (want fast or reference)")
    shape = dict(
        num_slaves=num_slaves,
        map_slots=map_slots,
        reduce_slots=reduce_slots,
        block_size=block_size,
        racks=racks,
    )

    def shadows() -> dict:
        # identical trace jobs share one shadow, for this call only
        pairs = dict.fromkeys((tjob.workload, tjob.scale) for tjob in trace.jobs)
        return {pair: solo_run(*pair, **shape) for pair in pairs}

    shared = make_cluster(**shape)
    if engine == "fast":
        from repro.perf.clusterpath import FastMultiJobCluster

        multi = FastMultiJobCluster(
            shared, scheduler, plan=plan, observability=observability
        )
    else:
        multi = MultiJobCluster(
            shared, scheduler, plan=plan, observability=observability
        )
    key = entry = None
    if mix_cache is not None:
        key, entry = mix_cache.load_trace(multi, trace)
    if entry is not None:
        outcome, ideals, stages = entry
        result = MixResult(
            scheduler=multi.scheduler.name,
            trace=trace,
            reports=_tenant_reports(trace, outcome, ideals, stages),
            outcome=outcome,
        )
        result._defer(outputs=lambda: _outputs(trace, shadows()))
        return result
    solo = shadows()
    ideals, stages = [], []
    for tjob in trace.jobs:
        ideal_s, works, _output = solo[tjob.workload, tjob.scale]
        ideals.append(ideal_s)
        stages.append(len(works))
        multi.submit_chain(
            works,
            arrival_s=tjob.arrival_s,
            user=tjob.user,
            pool=tjob.pool,
            id_prefix=f"t{tjob.index:03d}",
        )
    outcome = multi.run()
    if mix_cache is not None:
        mix_cache.store_trace(key, outcome, ideals, stages)
    return MixResult(
        scheduler=multi.scheduler.name,
        trace=trace,
        reports=_tenant_reports(trace, outcome, ideals, stages),
        outcome=outcome,
        outputs=_outputs(trace, solo),
    )


def solo_run(name, scale: float, **shape) -> tuple[float, list, object]:
    """``(duration_s, works, output)`` of workload *name* (or a workload
    object) run alone at *scale* on a fresh ``make_cluster(**shape)``;
    ``works`` is one ``JobWork`` per stage.  Deterministic and unmemoised:
    each caller keeps its own memo scope."""
    # Imported here: repro.workloads.base itself imports the cluster
    # package, so a module-level import would be circular (and would
    # load the workload layers on every `import repro.cluster`).
    from repro.workloads.base import workload

    wl = workload(name) if isinstance(name, str) else name
    run = wl.run(scale=scale, cluster=make_cluster(**shape))
    return run.duration_s, [result.work for result in run.job_results], run.output


def _outputs(trace: WorkloadTrace, solo: dict) -> dict[int, object]:
    return {tjob.index: solo[tjob.workload, tjob.scale][2] for tjob in trace.jobs}


def _tenant_reports(trace, outcome, ideals, stages) -> list[TenantJobReport]:
    """One report per trace job over its stage chain: the next
    ``stages[i]`` of the outcome's reports, because run_mix submits the
    chains in trace order and an outcome lists reports in submission
    order."""
    reports = []
    end = 0
    for tjob, ideal_s, count in zip(trace.jobs, ideals, stages):
        start, end = end, end + count
        stage_reports = outcome.reports[start:end]
        timelines = [r.timeline for r in stage_reports if r.timeline is not None]
        reports.append(
            TenantJobReport(
                trace_job=tjob,
                job_ids=tuple(r.job_id for r in stage_reports),
                first_launch_s=min(r.first_launch_s for r in stage_reports),
                finished_s=max(r.finished_s for r in stage_reports),
                ideal_s=ideal_s,
                maps_node_local=sum(t.maps_node_local for t in timelines),
                maps_rack_local=sum(t.maps_rack_local for t in timelines),
                maps_off_rack=sum(t.maps_off_rack for t in timelines),
            )
        )
    return reports


# -- LLC co-location characterization -----------------------------------------


@dataclass
class ColocationReport:
    """Shared-LLC characterization of one node's busiest instant."""

    time_s: float
    node: str
    workloads: tuple[str, ...]
    slowdowns: dict[str, float]
    solo_ipc: dict[str, float]

    def worst(self) -> tuple[str, float]:
        name = max(self.slowdowns, key=self.slowdowns.get)
        return name, self.slowdowns[name]

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "node": self.node,
            "workloads": list(self.workloads),
            "slowdowns": dict(self.slowdowns),
            "solo_ipc": dict(self.solo_ipc),
        }


def characterize_colocation(
    mix: MixResult,
    instructions: int = 20_000,
    machine_scale: int = 8,
    seed: int = 0,
) -> ColocationReport | None:
    """Characterize the mix's most co-located (node, instant) under a
    shared LLC.

    Finds the node/instant where the most *distinct workloads* have tasks
    resident at once, builds each workload's trace spec, and runs them
    through :class:`repro.uarch.multicore.MultiCoreSystem`.  Returns
    ``None`` when no two distinct workloads ever co-reside.
    """
    from repro.uarch.config import scaled_machine
    from repro.uarch.multicore import MultiCoreSystem
    from repro.workloads.base import workload

    owner: dict[str, str] = {}
    for report in mix.reports:
        for job_id in report.job_ids:
            owner[job_id] = report.trace_job.workload
    best: tuple[int, float, str, tuple[str, ...]] | None = None
    for interval in mix.outcome.task_intervals:
        t = interval.start_s
        resident = sorted(
            {
                owner[iv.job_id]
                for iv in mix.outcome.task_intervals
                if iv.node == interval.node and iv.start_s <= t < iv.end_s
            }
        )
        key = (len(resident), -t, interval.node, tuple(resident))
        if best is None or key > best:
            best = key
    if best is None or best[0] < 2:
        return None
    count, neg_t, node, names = best
    specs = [
        workload(name).trace_spec(instructions, seed=seed).scaled(machine_scale)
        for name in names
    ]
    result = MultiCoreSystem(scaled_machine(machine_scale)).run_colocated(specs)
    return ColocationReport(
        time_s=-neg_t,
        node=node,
        workloads=tuple(names),
        slowdowns=dict(result.slowdowns),
        solo_ipc={name: result.solo[name].ipc() for name in names},
    )
