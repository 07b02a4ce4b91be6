"""Open-loop service traffic with graceful-degradation controls.

The paper's workloads are batch analytics, but the cluster that runs
them also fronts interactive services — point lookups, small scans and
scoring requests whose arrival process is *open loop*: clients issue
requests on their own clock, independent of how fast the cluster is
answering.  Under overload an open-loop queue grows without bound, so a
production frontend degrades gracefully instead of falling over:

* **admission control** refuses requests once the queue is deep enough
  that serving them is hopeless;
* **load shedding** drops a seeded fraction of traffic above a queue
  threshold, trading completeness for latency;
* **deadlines** kill requests that can no longer answer in time, both
  while queued and mid-service, freeing capacity for requests that can;
* **bounded retries** with exponential backoff give killed requests a
  second chance without re-amplifying the overload.

:func:`run_service` plays a seeded arrival process (Poisson, diurnal, or
bursty Markov-modulated Poisson) over a bank of identical servers and
reports the per-request latency distribution (p50/p95/p99/p999),
goodput, utilization and SLO attainment.  Every control is off by
default-shaped knobs on :class:`ServePolicy`; the degradation events are
counted in the frontend's simulated ``/proc``
(``ProcFs.render("overload")``).  All randomness
comes from rng streams seeded per concern (``serve-arrivals``,
``serve-classes``, ``serve-shed``), so a report is a pure function of
its arguments.
"""

from __future__ import annotations

import heapq
import inspect
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from repro.perf.procfs import ProcFs

__all__ = [
    "ArrivalProcess",
    "RequestClass",
    "RequestRecord",
    "ServePolicy",
    "ServeReport",
    "default_request_classes",
    "percentile",
    "request_classes_from_trace",
    "run_service",
]

#: the latency quantiles a service dashboard pins on its front page
PERCENTILES = {"p50": 50.0, "p95": 95.0, "p99": 99.0, "p999": 99.9}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of *values* (NaN for an empty list).

    Nearest-rank is what latency dashboards actually report: the p-th
    percentile is an observed sample, never an interpolation between
    two samples.  The rank is exact on the decimal *p* denotes (in
    floats, ``99.9 / 100 * 1000`` lands just above 999).
    """
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = math.ceil(Fraction(repr(float(p))) * len(ordered) / 100)
    return ordered[rank - 1]


@dataclass(frozen=True)
class RequestClass:
    """One kind of service request: a name, a service demand, a mix weight."""

    name: str
    demand_s: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("request class name must be non-empty")
        if not (math.isfinite(self.demand_s) and self.demand_s > 0):
            raise ValueError("service demand must be finite and positive")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError("mix weight must be finite and positive")


def default_request_classes() -> tuple[RequestClass, ...]:
    """A pinned interactive mix: mice dominate, scoring requests are rare.

    Mirrors the heavy-tailed size mix of the batch trace generator —
    most requests are tiny, a few are two orders of magnitude larger —
    scaled down to interactive service demands.
    """
    return (
        RequestClass("point-lookup", 0.08, 0.45),
        RequestClass("grep", 0.18, 0.30),
        RequestClass("aggregation", 0.45, 0.20),
        RequestClass("ml-scoring", 1.2, 0.05),
    )


def request_classes_from_trace(
    trace,
    num_slaves: int = 4,
    map_slots: int = 8,
    reduce_slots: int = 4,
    block_size: int = 256 * 1024,
) -> tuple[RequestClass, ...]:
    """Derive request classes from a batch :class:`WorkloadTrace`.

    Each distinct ``(workload, scale)`` in the trace becomes one class:
    its service demand is the workload's solo (uncontended) duration on
    a fresh cluster of the given shape, its weight the number of trace
    jobs of that kind.  Shadow runs are memoized across calls, keyed on
    the **full** ``(workload, scale, cluster shape)`` tuple — recipe-
    generated traces repeat the same templates across many calls and
    cluster shapes, and a key that ignored the cluster shape would hand
    one shape's solo duration to another.
    """
    from repro.cluster.tenancy import solo_run

    shape = _shape_key(num_slaves=num_slaves, map_slots=map_slots,
                       reduce_slots=reduce_slots, block_size=block_size)
    counts = Counter((tjob.workload, tjob.scale) for tjob in trace.jobs)
    classes = []
    for (name, scale), weight in sorted(counts.items()):
        key = (name, scale, shape)
        if key not in _SOLO_SECONDS:
            _SOLO_SECONDS[key] = solo_run(name, scale, **dict(shape))[0]
        classes.append(
            RequestClass(f"{name}@{scale:g}", _SOLO_SECONDS[key], float(weight))
        )
    return tuple(classes)


#: cross-call memo: ``(workload, scale, _shape_key(...))`` → solo seconds.
#: The whole cluster shape MUST be in the key (test_serve.py::TestRequestClassMemo).
_SOLO_SECONDS: dict[tuple, float] = {}


def _shape_key(**shape) -> tuple:
    """Every ``make_cluster`` argument, defaults filled in, sorted: one
    cluster spelled two ways is one key, and a new argument joins it."""
    from repro.cluster.tenancy import make_cluster

    bound = inspect.signature(make_cluster).bind(**shape)
    bound.apply_defaults()
    return tuple(sorted(bound.arguments.items()))


@dataclass(frozen=True)
class ArrivalProcess:
    """A seeded open-loop arrival process.

    ``poisson`` is the memoryless baseline.  ``diurnal`` modulates the
    rate sinusoidally (period/amplitude) the way user-facing traffic
    follows the day; ``bursty`` is a two-phase Markov-modulated Poisson
    process — quiet background rate with exponentially-distributed
    bursts at ``burst_factor`` times the quiet rate — the shape that
    actually breaks provisioned-for-the-mean services.  Both modulated
    patterns are generated by thinning a peak-rate Poisson stream, so
    the mean rate stays ``rate_per_s`` in every pattern.
    """

    rate_per_s: float
    pattern: str = "poisson"
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.6
    burst_factor: float = 4.0
    burst_fraction: float = 0.2
    burst_mean_s: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_per_s) and self.rate_per_s > 0):
            raise ValueError("arrival rate must be finite and positive")
        if self.pattern not in ("poisson", "diurnal", "bursty"):
            raise ValueError("pattern must be poisson, diurnal or bursty")
        if not (math.isfinite(self.diurnal_period_s) and self.diurnal_period_s > 0):
            raise ValueError("diurnal period must be finite and positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ValueError("diurnal amplitude must be in [0, 1)")
        if not (math.isfinite(self.burst_factor) and self.burst_factor >= 1):
            raise ValueError("burst factor must be finite and >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst fraction must be in (0, 1)")
        if not (math.isfinite(self.burst_mean_s) and self.burst_mean_s > 0):
            raise ValueError("burst mean must be finite and positive")

    def rate_at(self, t: float) -> float:
        """The instantaneous mean rate at time *t* (diurnal pattern only)."""
        if self.pattern == "diurnal":
            return self.rate_per_s * (
                1 + self.diurnal_amplitude
                * math.sin(2 * math.pi * t / self.diurnal_period_s)
            )
        return self.rate_per_s

    def arrivals(self, num_requests: int, seed: int = 0) -> list[float]:
        """The first *num_requests* arrival instants, deterministically."""
        if num_requests < 0:
            raise ValueError("request count must be non-negative")
        rng = random.Random(f"serve-arrivals:{seed}")
        times: list[float] = []
        if self.pattern == "poisson":
            t = 0.0
            while len(times) < num_requests:
                t += rng.expovariate(self.rate_per_s)
                times.append(t)
            return times
        if self.pattern == "diurnal":
            peak = self.rate_per_s * (1 + self.diurnal_amplitude)
            t = 0.0
            while len(times) < num_requests:
                t += rng.expovariate(peak)
                if rng.random() < self.rate_at(t) / peak:
                    times.append(t)
            return times
        # bursty: two-phase MMPP thinned against the burst-phase rate.
        # Rates are chosen so the long-run mean is rate_per_s:
        #   frac * hi + (1 - frac) * lo = rate,  hi = burst_factor * lo
        lo = self.rate_per_s / (
            self.burst_fraction * self.burst_factor + 1 - self.burst_fraction
        )
        hi = lo * self.burst_factor
        mean_on = self.burst_mean_s
        mean_off = mean_on * (1 - self.burst_fraction) / self.burst_fraction
        in_burst = False
        phase_end = rng.expovariate(1 / mean_off)
        t = 0.0
        while len(times) < num_requests:
            t += rng.expovariate(hi)
            while t >= phase_end:
                in_burst = not in_burst
                phase_end += rng.expovariate(
                    1 / (mean_on if in_burst else mean_off)
                )
            if in_burst or rng.random() < lo / hi:
                times.append(t)
        return times


@dataclass(frozen=True)
class ServePolicy:
    """The frontend's graceful-degradation knobs.

    The defaults are a protected production posture; :meth:`protected`
    is the tighter posture the overload comparison pits against an
    anything-goes frontend (the control group), :meth:`unprotected`.
    """

    admission_control: bool = True
    max_queue_depth: int = 64
    deadline_s: float = 8.0
    deadline_admission: bool = True
    shed_rate: float = 0.0
    shed_threshold: int = 16
    kill_at_deadline: bool = True
    retry_budget: int = 1
    retry_backoff_base_s: float = 0.25
    retry_backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max queue depth must be at least 1")
        if not (math.isfinite(self.deadline_s) and self.deadline_s > 0):
            raise ValueError("deadline must be finite and positive")
        if not 0 <= self.shed_rate <= 1:
            raise ValueError("shed rate must be in [0, 1]")
        if self.shed_threshold < 0:
            raise ValueError("shed threshold must be non-negative")
        if self.retry_budget < 0:
            raise ValueError("retry budget must be non-negative")
        if not (
            math.isfinite(self.retry_backoff_base_s)
            and self.retry_backoff_base_s >= 0
        ):
            raise ValueError("retry backoff base must be finite and non-negative")
        if not (
            math.isfinite(self.retry_backoff_factor)
            and self.retry_backoff_factor >= 1
        ):
            raise ValueError("retry backoff factor must be finite and >= 1")

    @classmethod
    def protected(cls, deadline_s: float = 8.0) -> "ServePolicy":
        """The overload comparison's protected posture: a 32-deep queue,
        half of traffic shed beyond depth 8, one retry."""
        return cls(
            max_queue_depth=32,
            deadline_s=deadline_s,
            shed_rate=0.5,
            shed_threshold=8,
            retry_budget=1,
        )

    @classmethod
    def unprotected(cls, deadline_s: float = 8.0) -> "ServePolicy":
        """No admission, no shedding, no kills — queues grow unbounded.

        The deadline is kept purely as the SLO yardstick so attainment
        is measured against the same target as a protected frontend.
        """
        return cls(
            admission_control=False,
            deadline_s=deadline_s,
            deadline_admission=False,
            shed_rate=0.0,
            kill_at_deadline=False,
            retry_budget=0,
        )


@dataclass
class RequestRecord:
    """The fate of one request (across all of its attempts)."""

    index: int
    request_class: str
    arrival_s: float
    outcome: str  # "completed" | "shed" | "killed"
    attempts: int
    start_s: float | None = None
    finish_s: float | None = None
    latency_s: float | None = None
    deadline_met: bool = False


@dataclass
class ServeReport:
    """What an open-loop service run looked like from the frontend."""

    servers: int
    policy: ServePolicy
    offered: int
    completed: int
    shed: int
    killed: int
    retries: int
    latency_percentiles: dict[str, float]
    makespan_s: float
    goodput_rps: float
    utilization: float
    slo_attainment: float
    procfs: ProcFs = field(repr=False, default_factory=ProcFs)
    records: list[RequestRecord] = field(repr=False, default_factory=list)

    @property
    def p99_s(self) -> float:
        return self.latency_percentiles["p99"]

    def to_dict(self) -> dict:
        return {
            "servers": self.servers,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "killed": self.killed,
            "retries": self.retries,
            "latency_percentiles": dict(self.latency_percentiles),
            "makespan_s": self.makespan_s,
            "goodput_rps": self.goodput_rps,
            "utilization": self.utilization,
            "slo_attainment": self.slo_attainment,
            "requests_shed": self.procfs.requests_shed,
            "deadline_kills": self.procfs.deadline_kills,
        }


def run_service(
    classes: tuple[RequestClass, ...] | None = None,
    process: ArrivalProcess | None = None,
    num_requests: int = 200,
    servers: int = 4,
    policy: ServePolicy | None = None,
    seed: int = 0,
    limping_servers: tuple[tuple[int, float], ...] = (),
) -> ServeReport:
    """Play an open-loop arrival process through a bank of servers.

    Requests are dispatched FIFO to the earliest-free server; the queue
    depth a request observes is the number of already-admitted requests
    still waiting to start.  ``limping_servers`` maps server indices to
    fail-slow service-time multipliers (the serving-tier analogue of a
    limping node).  Latency and SLO attainment are always measured from
    a request's *first* arrival, so retries pay their backoff.
    """
    classes = classes if classes is not None else default_request_classes()
    process = process if process is not None else ArrivalProcess(rate_per_s=8.0)
    policy = policy if policy is not None else ServePolicy()
    if not classes:
        raise ValueError("need at least one request class")
    if servers < 1:
        raise ValueError("need at least one server")
    factors = [1.0] * servers
    for index, factor in limping_servers:
        if not 0 <= index < servers:
            raise ValueError(f"unknown limping server {index}")
        if not (math.isfinite(factor) and factor >= 1):
            raise ValueError("limp factors must be finite and >= 1")
        factors[index] = max(factors[index], factor)

    arrival_times = process.arrivals(num_requests, seed)
    class_rng = random.Random(f"serve-classes:{seed}")
    chosen = (
        class_rng.choices(
            classes, weights=[c.weight for c in classes], k=num_requests
        )
        if num_requests
        else []
    )
    shed_rng = random.Random(f"serve-shed:{seed}")
    procfs = ProcFs(node_name="frontend")

    free = [0.0] * servers
    admitted_starts: list[float] = []
    busy_s = 0.0
    retries = 0
    last_event = arrival_times[0] if arrival_times else 0.0
    records: dict[int, RequestRecord] = {}
    # (submit_time, request index, attempt number, first arrival, class)
    events: list[tuple[float, int, int, float, RequestClass]] = [
        (t, i, 0, t, cls) for i, (t, cls) in enumerate(zip(arrival_times, chosen))
    ]
    heapq.heapify(events)

    def finish(index, cls, first, outcome, attempts, start=None, end=None):
        met = (
            outcome == "completed"
            and end is not None
            and end <= first + policy.deadline_s
        )
        records[index] = RequestRecord(
            index=index,
            request_class=cls.name,
            arrival_s=first,
            outcome=outcome,
            attempts=attempts,
            start_s=start,
            finish_s=end,
            latency_s=None if end is None else end - first,
            deadline_met=met,
        )

    def retry(index, attempt, first, cls, at) -> bool:
        if attempt >= policy.retry_budget:
            return False
        nonlocal retries
        retries += 1
        backoff = policy.retry_backoff_base_s * (
            policy.retry_backoff_factor ** attempt
        )
        heapq.heappush(events, (at + backoff, index, attempt + 1, first, cls))
        return True

    while events:
        submit, index, attempt, first, cls = heapq.heappop(events)
        last_event = max(last_event, submit)
        deadline = submit + policy.deadline_s
        depth = sum(1 for s in admitted_starts if s > submit)
        if policy.admission_control and depth >= policy.max_queue_depth:
            procfs.requests_shed += 1
            finish(index, cls, first, "shed", attempt + 1)
            continue
        if (
            policy.shed_rate > 0
            and depth >= policy.shed_threshold
            and shed_rng.random() < policy.shed_rate
        ):
            procfs.requests_shed += 1
            finish(index, cls, first, "shed", attempt + 1)
            continue
        server = min(range(servers), key=lambda i: free[i])
        start = max(submit, free[server])
        demand = cls.demand_s * factors[server]
        if policy.deadline_admission and start + demand > deadline:
            # Hopeless on arrival: refusing now is cheaper than killing
            # at the deadline after burning queue space or server time.
            procfs.requests_shed += 1
            finish(index, cls, first, "shed", attempt + 1)
            continue
        if policy.kill_at_deadline and start >= deadline:
            # Timed out while still queued; the server never saw it.
            procfs.deadline_kills += 1
            if not retry(index, attempt, first, cls, deadline):
                finish(index, cls, first, "killed", attempt + 1)
            continue
        admitted_starts.append(start)
        if policy.kill_at_deadline and start + demand > deadline:
            # Killed mid-service: the time already spent is pure waste.
            free[server] = deadline
            busy_s += deadline - start
            last_event = max(last_event, deadline)
            procfs.deadline_kills += 1
            if not retry(index, attempt, first, cls, deadline):
                finish(index, cls, first, "killed", attempt + 1, start=start)
            continue
        end = start + demand
        free[server] = end
        busy_s += demand
        last_event = max(last_event, end)
        finish(index, cls, first, "completed", attempt + 1, start=start, end=end)

    ordered = [records[i] for i in sorted(records)]
    latencies = [r.latency_s for r in ordered if r.outcome == "completed"]
    offered = len(ordered)
    completed = len(latencies)
    shed = sum(1 for r in ordered if r.outcome == "shed")
    killed = sum(1 for r in ordered if r.outcome == "killed")
    origin = arrival_times[0] if arrival_times else 0.0
    makespan = max(last_event - origin, 0.0)
    return ServeReport(
        servers=servers,
        policy=policy,
        offered=offered,
        completed=completed,
        shed=shed,
        killed=killed,
        retries=retries,
        latency_percentiles={
            label: percentile(latencies, p) for label, p in PERCENTILES.items()
        },
        makespan_s=makespan,
        goodput_rps=completed / makespan if makespan > 0 else 0.0,
        utilization=busy_s / (servers * makespan) if makespan > 0 else 0.0,
        slo_attainment=(
            sum(1 for r in ordered if r.deadline_met) / offered if offered else 0.0
        ),
        procfs=procfs,
        records=ordered,
    )
