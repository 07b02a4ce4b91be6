"""Tests for trace-driven multi-tenant workload mixes.

Pins the PR's acceptance criteria: on a heavy-tailed trace (one Sort
elephant, four interactive mice) the fair scheduler strictly improves
both the small-job mean slowdown *and* the Jain fairness index over
FIFO; and a chaos-injected mix — node crash plus network partition mid
trace — completes with every job's output bit-identical to the
fault-free run.
"""

import inspect
import json
import math

import pytest

from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    CapacityScheduler,
    FairScheduler,
    FifoScheduler,
)
from repro.cluster.tenancy import (
    MixResult,
    TenantJobReport,
    TraceJob,
    WorkloadTrace,
    default_pools,
    default_queues,
    generate_trace,
    run_mix,
)

SMALL = dict(num_slaves=2, map_slots=4, reduce_slots=2, block_size=64 * 1024)


def pinned_trace() -> WorkloadTrace:
    """One Sort elephant, then four interactive mice arriving during its
    long map phase — the regime the fair scheduler was built for."""
    jobs = (
        TraceJob(0, "Sort", 0.3, 0.0, "bo", "batch", "large"),
        TraceJob(1, "Grep", 0.05, 0.02, "ada", "interactive", "small"),
        TraceJob(2, "WordCount", 0.05, 0.04, "carol", "interactive", "small"),
        TraceJob(3, "Grep", 0.05, 0.06, "ada", "interactive", "small"),
        TraceJob(4, "WordCount", 0.05, 0.08, "deepak", "interactive", "small"),
    )
    return WorkloadTrace(jobs, seed=0, arrival_rate_per_s=0.0)


# -- trace generation ----------------------------------------------------------


class TestGenerateTrace:
    def test_same_seed_same_trace(self):
        assert generate_trace(seed=7) == generate_trace(seed=7)

    def test_different_seed_different_trace(self):
        assert generate_trace(seed=7) != generate_trace(seed=8)

    def test_arrivals_are_sorted_and_non_negative(self):
        trace = generate_trace(seed=1, num_jobs=20, arrival_rate_per_s=3.0)
        arrivals = [j.arrival_s for j in trace.jobs]
        assert arrivals == sorted(arrivals)
        assert all(a >= 0 for a in arrivals)

    def test_mix_is_heavy_tailed(self):
        """Small jobs dominate the count, as in the production traces."""
        trace = generate_trace(seed=0, num_jobs=200, arrival_rate_per_s=5.0)
        by_class = {
            name: sum(1 for j in trace.jobs if j.size_class == name)
            for name in ("small", "medium", "large")
        }
        assert by_class["small"] > by_class["medium"] > by_class["large"]
        assert by_class["small"] >= 0.55 * len(trace.jobs)

    def test_trace_job_validation(self):
        with pytest.raises(ValueError):
            TraceJob(0, "NotAWorkload", 0.1, 0.0, "u", "p", "small")
        with pytest.raises(ValueError):
            TraceJob(0, "Grep", 0.0, 0.0, "u", "p", "small")
        with pytest.raises(ValueError):
            TraceJob(0, "Grep", 0.1, -1.0, "u", "p", "small")

    @pytest.mark.parametrize(
        "scale, arrival_s",
        [(math.inf, 0.0), (math.nan, 0.0), (0.1, math.inf), (0.1, math.nan)],
        ids=["scale-inf", "scale-nan", "arrival-inf", "arrival-nan"],
    )
    def test_trace_job_rejects_non_finite(self, scale, arrival_s):
        with pytest.raises(ValueError, match="finite"):
            TraceJob(0, "Grep", scale, arrival_s, "u", "p", "small")

    def test_trace_needs_at_least_one_job(self):
        with pytest.raises(ValueError, match="at least one job"):
            WorkloadTrace((), seed=0, arrival_rate_per_s=1.0)

    def test_pools_and_users_are_sorted_and_distinct(self):
        trace = pinned_trace()
        assert trace.pools() == ["batch", "interactive"]
        assert trace.users() == ["ada", "bo", "carol", "deepak"]

    def test_trace_to_dict_round_trips_through_json(self):
        trace = generate_trace(seed=2, num_jobs=5)
        payload = json.loads(json.dumps(trace.to_dict()))
        assert len(payload["jobs"]) == 5
        assert payload["seed"] == 2

    def test_trace_json_round_trips_exactly(self):
        for trace in (generate_trace(seed=2, num_jobs=8), pinned_trace()):
            back = WorkloadTrace.from_json(trace.to_json())
            assert back.to_dict() == trace.to_dict()
            assert back.seed == trace.seed
            assert back.arrival_rate_per_s == trace.arrival_rate_per_s

    def test_trace_from_json_rejects_garbage(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            WorkloadTrace.from_json("{nope")

    def test_trace_from_dict_validates_jobs(self):
        data = json.loads(pinned_trace().to_json())
        data["jobs"][0]["workload"] = "NotAWorkload"
        with pytest.raises(ValueError):
            WorkloadTrace.from_dict(data)
        data = json.loads(pinned_trace().to_json())
        data["jobs"][0]["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            WorkloadTrace.from_dict(data)
        data = json.loads(pinned_trace().to_json())
        del data["jobs"][0]["scale"]
        with pytest.raises(ValueError, match="missing"):
            WorkloadTrace.from_dict(data)
        data = json.loads(pinned_trace().to_json())
        data["jobs"][0]["scale"] = True  # bool is not a number
        with pytest.raises(ValueError):
            WorkloadTrace.from_dict(data)

    def test_trace_from_dict_rejects_unsorted_arrivals(self):
        data = json.loads(pinned_trace().to_json())
        data["jobs"][0]["arrival_s"] = 99.0
        with pytest.raises(ValueError):
            WorkloadTrace.from_dict(data)

    def test_default_pools_and_queues_cover_the_trace(self):
        trace = generate_trace(seed=0, num_jobs=30)
        assert {p.name for p in default_pools(trace)} == set(trace.pools())
        queues = default_queues(trace)
        assert {q.name for q in queues} == set(trace.pools())
        assert sum(q.capacity for q in queues) == pytest.approx(1.0)


# -- per-job accounting ---------------------------------------------------------


def accounted_mix() -> MixResult:
    """Three hand-accounted jobs: slowdowns 2, 1 and 3; waits 0.5, 0, 0."""
    jobs = (
        TraceJob(0, "Grep", 0.05, 0.0, "ada", "interactive", "small"),
        TraceJob(1, "Sort", 0.3, 1.0, "bo", "batch", "large"),
        TraceJob(2, "Grep", 0.05, 2.0, "ada", "interactive", "small"),
    )
    times = [(0.5, 2.0, 1.0), (1.0, 5.0, 4.0), (2.0, 5.0, 1.0)]
    reports = [
        TenantJobReport(job, (f"job{job.index}",), launch, finished, ideal)
        for job, (launch, finished, ideal) in zip(jobs, times)
    ]
    trace = WorkloadTrace(jobs, seed=0, arrival_rate_per_s=0.0)
    return MixResult("fifo", trace, reports, outcome=None)


class TestTenantAccounting:
    def test_wait_turnaround_and_slowdown(self):
        report = accounted_mix().reports[0]
        assert report.wait_s == 0.5
        assert report.turnaround_s == 2.0
        assert report.slowdown == 2.0

    def test_zero_ideal_reads_as_no_slowdown(self):
        job = pinned_trace().jobs[0]
        assert TenantJobReport(job, ("j",), 1.0, 3.0, ideal_s=0.0).slowdown == 1.0

    def test_report_dict_extends_the_trace_job(self):
        report = accounted_mix().reports[1]
        data = json.loads(json.dumps(report.to_dict()))
        assert data.items() >= report.trace_job.to_dict().items()
        assert data["job_ids"] == ["job1"]
        assert (data["wait_s"], data["turnaround_s"], data["slowdown"]) == (0.0, 4.0, 1.0)

    def test_means_select_by_pool_size_class_and_user(self):
        mix = accounted_mix()
        assert mix.mean_slowdown() == pytest.approx(2.0)
        assert mix.mean_slowdown(pool="interactive") == pytest.approx(2.5)
        assert mix.mean_slowdown(size_class="large") == pytest.approx(1.0)
        assert math.isnan(mix.mean_slowdown(pool="interactive", user="bo"))
        assert mix.mean_wait(user="ada") == pytest.approx(0.25)
        assert mix.mean_wait(user="bo") == 0.0

    @pytest.mark.parametrize(
        "by, expected",
        [("job", 36 / 42), ("user", 3.5**2 / (2 * (2.5**2 + 1))),
         ("pool", 3.5**2 / (2 * (2.5**2 + 1)))],
    )
    def test_jain_fairness_groups_before_it_averages(self, by, expected):
        assert accounted_mix().jain_fairness(by=by) == pytest.approx(expected)

    def test_by_pool_partitions_the_jobs(self):
        assert accounted_mix().by_pool() == {
            "batch": {"jobs": 1, "mean_wait_s": 0.0, "mean_slowdown": 1.0},
            "interactive": {"jobs": 2, "mean_wait_s": 0.25, "mean_slowdown": 2.5},
        }


# -- the pinned acceptance trace -----------------------------------------------


class TestFairBeatsFifo:
    def test_fair_strictly_improves_small_job_slowdown_and_jain(self):
        trace = pinned_trace()
        fifo = run_mix(trace, FifoScheduler(), **SMALL)
        fair = run_mix(trace, FairScheduler(pools=default_pools(trace)), **SMALL)

        assert fair.mean_slowdown(size_class="small") < fifo.mean_slowdown(
            size_class="small"
        )
        assert fair.jain_fairness() > fifo.jain_fairness()
        # scheduling policy must never change what the jobs compute
        assert fair.outputs == fifo.outputs

        # the gap is large, not a rounding artifact: FIFO makes the mice
        # wait out the elephant's map waves (total time >> ideal, i.e.
        # slowdown near 10x and up), fair sharing keeps them interactive
        assert fifo.mean_slowdown(size_class="small") > 5.0
        assert fair.mean_slowdown(size_class="small") < 5.0

    def test_the_elephant_is_not_starved_by_fair_sharing(self):
        trace = pinned_trace()
        fair = run_mix(trace, FairScheduler(pools=default_pools(trace)), **SMALL)
        (large,) = [r for r in fair.reports if r.trace_job.size_class == "large"]
        assert large.slowdown < 3.0

    def test_capacity_scheduler_completes_the_same_trace(self):
        trace = pinned_trace()
        fifo = run_mix(trace, FifoScheduler(), **SMALL)
        cap = run_mix(trace, CapacityScheduler(queues=default_queues(trace)), **SMALL)
        assert cap.outputs == fifo.outputs
        assert cap.makespan_s > 0

    def test_mix_result_accessors(self):
        mix = run_mix(pinned_trace(), FifoScheduler(), **SMALL)
        assert mix.mean_wait(pool="interactive") >= 0
        assert 0 < mix.jain_fairness(by="user") <= 1
        assert 0 < mix.jain_fairness(by="pool") <= 1
        with pytest.raises(ValueError):
            mix.jain_fairness(by="moon-phase")
        # An empty selection is an answerable question, not an error: it
        # yields NaN so report generation survives sparse traces.
        assert math.isnan(mix.mean_slowdown(pool="nonexistent"))
        assert math.isnan(mix.mean_wait(pool="nonexistent"))
        assert math.isnan(mix.mean_slowdown(size_class="huge", user="nobody"))
        assert set(mix.by_pool()) == {"batch", "interactive"}
        payload = json.loads(json.dumps(mix.to_dict()))
        assert payload["scheduler"] == "fifo"
        assert len(payload["jobs"]) == 5

    def test_mix_is_deterministic(self):
        a = run_mix(pinned_trace(), FifoScheduler(), **SMALL)
        b = run_mix(pinned_trace(), FifoScheduler(), **SMALL)
        assert a.to_dict() == b.to_dict()
        assert a.outputs == b.outputs

    def test_solo_shadow_runs_are_memoized(self, monkeypatch):
        """Identical (workload, scale) trace jobs share one shadow run."""
        import repro.workloads.base as base

        real = base.workload
        calls = []

        def counting(name):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(base, "workload", counting)
        trace = pinned_trace()
        distinct = {(t.workload, t.scale) for t in trace.jobs}
        assert len(distinct) < len(trace.jobs)  # trace repeats a mouse
        mix = run_mix(trace, FifoScheduler(), **SMALL)
        assert len(calls) == len(distinct)
        # Memoized ideals/outputs are per trace job, not per distinct key.
        assert set(mix.outputs) == {t.index for t in trace.jobs}
        assert all(r.ideal_s > 0 for r in mix.reports)


# -- chaos during a multi-tenant mix -------------------------------------------


class TestChaosMix:
    def fault_free_outputs(self):
        return run_mix(pinned_trace(), FifoScheduler(), **SMALL).outputs

    @pytest.mark.parametrize(
        "scheduler_factory",
        [
            lambda trace: FifoScheduler(),
            lambda trace: FairScheduler(pools=default_pools(trace)),
        ],
        ids=["fifo", "fair"],
    )
    def test_crash_plus_partition_preserves_every_output(self, scheduler_factory):
        trace = pinned_trace()
        plan = FaultPlan(
            node_crashes=(("slave2", 0.15),),
            partitions=(("slave1", 0.1, 0.6),),
        )
        chaos = run_mix(trace, scheduler_factory(trace), plan=plan, **SMALL)
        assert chaos.outputs == self.fault_free_outputs()
        accounting = chaos.outcome.fault_accounting
        assert accounting.nodes_crashed == ("slave2",)
        assert accounting.partition_windows == 1
        assert accounting.killed_attempts > 0
        assert accounting.maps_reexecuted > 0
        assert accounting.wasted_task_seconds > 0

    def test_long_partition_fences_zombie_attempts(self):
        trace = pinned_trace()
        plan = FaultPlan(partitions=(("slave1", 0.1, 1.0),))
        chaos = run_mix(trace, FifoScheduler(), plan=plan, **SMALL)
        assert chaos.outputs == self.fault_free_outputs()
        accounting = chaos.outcome.fault_accounting
        assert accounting.zombies_fenced > 0

    def test_unsupported_fault_classes_are_rejected(self):
        with pytest.raises(ValueError, match="node_crashes, partitions, rack"):
            run_mix(
                pinned_trace(),
                FifoScheduler(),
                plan=FaultPlan(map_failure_rate=0.5),
                **SMALL,
            )

    def test_unknown_crash_node_rejected(self):
        with pytest.raises(ValueError):
            run_mix(
                pinned_trace(),
                FifoScheduler(),
                plan=FaultPlan(node_crashes=(("slave9", 0.1),)),
                **SMALL,
            )


class TestEngineNames:
    @pytest.mark.parametrize("engine", ["events", "legacy", "threads"])
    def test_unknown_engine_names_the_two_it_takes(self, engine):
        with pytest.raises(ValueError, match=r"\(want fast or reference\)$"):
            run_mix(pinned_trace(), FifoScheduler(), engine=engine, **SMALL)

    def test_reference_is_the_default(self):
        assert inspect.signature(run_mix).parameters["engine"].default == "reference"

