"""Tests for fail-slow (limping-hardware) injection and its mitigation.

Fail-slow is the third failure class next to fail-stop and gray
failures: the hardware keeps answering, just slowly, so the damage is a
latency tail rather than an error.  These tests pin the injection:

* limp factors stretch exactly the device they name (a ``limping_nodes``
  entry limps the whole machine — CPU, disk and NIC together);
* a factor of 1.0 is bit-identical to no injection at all, and fault-free
  runs are bit-identical with the detection machinery present
  (observational freedom).

The mitigation contract — on the pinned latency-bound Sort trace
speculation claws back most of the limp's p99 inflation, outputs stay
bit-identical and every speculative loser is fenced — is the
``fail-slow`` row of the chaos table (``tests/cluster/test_chaos.py``).
"""

import pytest

from repro.cluster import FaultPlan, FaultyCluster, make_cluster
from repro.cluster.chaos import run_chaos
from repro.cluster.scheduler import FifoScheduler
from repro.cluster.tenancy import TraceJob, WorkloadTrace, run_mix
from repro.workloads import workload
from tests.cluster.test_chaos import SEEDS, check

SHAPE = dict(num_slaves=3, map_slots=4, reduce_slots=2, block_size=64 * 1024)


def small_trace(kind: str = "WordCount", jobs: int = 3) -> WorkloadTrace:
    trace_jobs = tuple(
        TraceJob(i, kind, 0.05, 0.1 * i, f"user{i}", "batch", "small")
        for i in range(jobs)
    )
    return WorkloadTrace(trace_jobs, seed=0, arrival_rate_per_s=0.0)


# -- the fault plan ------------------------------------------------------------


class TestFaultPlanFailSlow:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(limping_nodes=(("slave1", 0.5),))
        with pytest.raises(ValueError):
            FaultPlan(limping_disks=(("slave1", float("nan")),))
        with pytest.raises(ValueError):
            FaultPlan(limping_nics=(("", 2.0),))
        with pytest.raises(ValueError):
            FaultPlan(fail_slow_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(fail_slow_factor_range=(3.0, 2.0))
        with pytest.raises(ValueError):
            FaultPlan(fail_slow_factor_range=(0.5, 2.0))

    def test_injects_fail_slow_property(self):
        assert not FaultPlan().injects_fail_slow
        assert FaultPlan(limping_nodes=(("s", 2.0),)).injects_fail_slow
        assert FaultPlan(limping_disks=(("s", 2.0),)).injects_fail_slow
        assert FaultPlan(limping_nics=(("s", 2.0),)).injects_fail_slow
        assert FaultPlan(fail_slow_rate=0.1).injects_fail_slow

    def test_limping_node_limps_the_whole_machine(self):
        plan = FaultPlan(limping_nodes=(("slave1", 3.0),))
        factors = plan.resolve_fail_slow(("slave1", "slave2"))
        assert factors["slave1"] == {"cpu": 3.0, "disk": 3.0, "nic": 3.0}
        assert factors["slave2"] == {"cpu": 1.0, "disk": 1.0, "nic": 1.0}

    def test_limping_devices_limp_one_resource(self):
        plan = FaultPlan(
            limping_disks=(("slave1", 2.0),), limping_nics=(("slave2", 4.0),)
        )
        factors = plan.resolve_fail_slow(("slave1", "slave2"))
        assert factors["slave1"] == {"cpu": 1.0, "disk": 2.0, "nic": 1.0}
        assert factors["slave2"] == {"cpu": 1.0, "disk": 1.0, "nic": 4.0}

    def test_factors_combine_by_max(self):
        plan = FaultPlan(
            limping_nodes=(("slave1", 2.0),), limping_disks=(("slave1", 3.0),)
        )
        factors = plan.resolve_fail_slow(("slave1",))
        assert factors["slave1"] == {"cpu": 2.0, "disk": 3.0, "nic": 2.0}

    def test_unknown_limping_node_is_rejected(self):
        plan = FaultPlan(limping_nodes=(("slave9", 2.0),))
        with pytest.raises(ValueError, match="slave9"):
            plan.resolve_fail_slow(("slave1", "slave2"))

    def test_rate_drawn_factors_are_seeded_and_bounded(self):
        nodes = tuple(f"slave{i}" for i in range(1, 9))
        plan = FaultPlan(fail_slow_rate=0.5, seed=7)
        first = plan.resolve_fail_slow(nodes)
        assert first == FaultPlan(fail_slow_rate=0.5, seed=7).resolve_fail_slow(
            nodes
        )
        assert first != FaultPlan(fail_slow_rate=0.5, seed=8).resolve_fail_slow(
            nodes
        )
        drawn = [
            factor
            for per_resource in first.values()
            for factor in per_resource.values()
            if factor != 1.0
        ]
        assert drawn  # rate 0.5 over 24 draws: some resource limps
        lo, hi = plan.fail_slow_factor_range
        assert all(lo <= factor <= hi for factor in drawn)


# -- the device models ---------------------------------------------------------


class TestDeviceSlowdown:
    def test_disk_factor_stretches_service_time(self):
        fast = make_cluster(**SHAPE).slaves[0].disk
        slow = make_cluster(**SHAPE).slaves[0].disk
        slow.slow_factor = 2.0
        assert slow.read(0.0, 1 << 20) == 2.0 * fast.read(0.0, 1 << 20)
        assert slow.write(10.0, 1 << 20) - 10.0 == pytest.approx(
            2.0 * (fast.write(10.0, 1 << 20) - 10.0)
        )

    def test_nic_factor_divides_bandwidth(self):
        node = make_cluster(**SHAPE).slaves[0]
        nominal = node.nic.effective_bandwidth
        node.nic.slow_factor = 4.0
        assert node.nic.effective_bandwidth == nominal / 4.0

    def test_cpu_factor_stretches_wall_time(self):
        fast = make_cluster(**SHAPE).slaves[0]
        slow = make_cluster(**SHAPE).slaves[0]
        slow.slow_factor = 3.0
        assert slow.cpu_time(0.5) == 3.0 * fast.cpu_time(0.5)

    def test_unit_factor_is_exactly_the_healthy_path(self):
        """factor == 1.0 must not perturb a single bit of timing."""
        healthy = make_cluster(**SHAPE).slaves[0]
        unit = make_cluster(**SHAPE).slaves[0]
        unit.slow_factor = 1.0
        unit.disk.slow_factor = 1.0
        unit.nic.slow_factor = 1.0
        assert unit.cpu_time(0.37) == healthy.cpu_time(0.37)
        assert unit.disk.read(0.0, 12345) == healthy.disk.read(0.0, 12345)
        assert unit.nic.effective_bandwidth == healthy.nic.effective_bandwidth


# -- solo runs through FaultyCluster -------------------------------------------


class TestSoloFailSlow:
    def test_limping_node_slows_but_never_corrupts(self):
        plain = workload("WordCount").run(
            scale=0.05, cluster=make_cluster(**SHAPE)
        )
        limping = workload("WordCount").run(
            scale=0.05,
            cluster=FaultyCluster(
                make_cluster(**SHAPE),
                FaultPlan(limping_nodes=(("slave3", 3.0),), seed=0),
            ),
        )
        assert repr(limping.output) == repr(plain.output)
        assert limping.duration_s > plain.duration_s

    def test_unit_factor_run_is_bit_identical(self):
        """Observational freedom: a 1.0 'limp' is no injection at all."""
        plain = workload("WordCount").run(
            scale=0.05, cluster=make_cluster(**SHAPE)
        )
        unit = workload("WordCount").run(
            scale=0.05,
            cluster=FaultyCluster(
                make_cluster(**SHAPE),
                FaultPlan(limping_nodes=(("slave3", 1.0),), seed=0),
            ),
        )
        assert repr(unit.output) == repr(plain.output)
        assert unit.duration_s == plain.duration_s

    def test_fault_free_overload_counters_stay_zero(self):
        cluster = make_cluster(**SHAPE)
        workload("WordCount").run(scale=0.05, cluster=cluster)
        for node in cluster.slaves:
            assert node.procfs.render("overload") == (
                f"{node.name}: requests_shed 0 deadline_kills 0 "
                f"speculative_wins 0"
            )


# -- mixes: observational freedom ----------------------------------------------


class TestMixObservationalFreedom:
    def test_unit_factor_plan_changes_nothing(self):
        """The detection/speculation machinery must be invisible until a
        node actually limps: same outputs, same timings, empty accounting."""
        trace = small_trace()
        free = run_mix(trace, FifoScheduler(), **SHAPE)
        unit = run_mix(
            trace,
            FifoScheduler(),
            plan=FaultPlan(limping_nodes=(("slave3", 1.0),), seed=0),
            **SHAPE,
        )
        assert repr(unit.outputs) == repr(free.outputs)
        assert [r.turnaround_s for r in unit.reports] == [
            r.turnaround_s for r in free.reports
        ]
        accounting = unit.outcome.fault_accounting
        assert accounting.limping_nodes == ()
        assert accounting.stragglers_detected == ()
        assert accounting.speculative_attempts == 0
        assert unit.outcome.fenced_attempts == 0

    def test_unknown_limping_node_is_rejected_by_run_mix(self):
        with pytest.raises(ValueError):
            run_mix(
                small_trace(),
                FifoScheduler(),
                plan=FaultPlan(limping_nodes=(("slave9", 2.0),)),
                **SHAPE,
            )


# -- the fail-slow row of the chaos table (tests/cluster/test_chaos.py) --------


class TestFailSlowChaosMatrix:
    @pytest.mark.parametrize("scheduler", ["fifo", "fair"])
    @pytest.mark.parametrize("kind", ["Sort", "WordCount", "PageRank"])
    def test_outputs_survive_and_losers_are_fenced(self, kind, scheduler):
        for seed in SEEDS["fail-slow"]:
            check("fail-slow", kind, seed, "outputs_survive_and_losers_are_fenced",
                  scheduler)

    @pytest.mark.parametrize("scheduler", ["fifo", "fair"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_sort_recovery(self, scheduler, seed):
        check("fail-slow", "Sort", seed, "pinned_sort_recovery", scheduler)

    def test_chaos_parameters_are_validated(self):
        with pytest.raises(ValueError):
            run_chaos("fail-slow", "Sort", 0, scheduler="capacity")
