"""The two fault executors against each other, and a crash against both.

A one-job FIFO ``MultiJobCluster(plan=...)`` and ``FaultyCluster.run_job``
model the same job under the same plan, so they must agree on when it
ends.  ``TestOneJobMixEqualsFaultyCluster`` pins that differential
relation for the fault classes both executors already agree on; it is
the gate for porting the remaining fault classes onto one executor.

``TestCrashedNodeRunsNothing`` pins the crash defect of ROADMAP item
1(a) as strict xfails: both executors let a reduce that launches after
its node crashed run there (and, in ``FaultyCluster``, succeed) without
counting the crash.  The fix removes the markers.
"""

import pytest

from repro.cluster.attempts import AttemptState
from repro.cluster.cluster import make_cluster
from repro.cluster.faults import FaultPlan, FaultyCluster
from repro.cluster.scheduler import FifoScheduler, MultiJobCluster
from repro.cluster.tenancy import solo_run

SLAVES = 4
SCALE = 0.3

CRASH_DEFECT = "a crashed node keeps running reduces (ROADMAP item 1(a))"


@pytest.fixture(scope="module")
def works():
    """The single stage of WordCount and Sort at scale 0.3 on 4 slaves."""
    return {
        name: solo_run(name, SCALE, num_slaves=SLAVES)[1]
        for name in ("WordCount", "Sort")
    }


def mix_run(work, plan: FaultPlan):
    multi = MultiJobCluster(make_cluster(num_slaves=SLAVES), FifoScheduler(), plan=plan)
    multi.submit(work)
    return multi.run(raise_on_failure=False)


def faulty_run(work, plan: FaultPlan):
    return FaultyCluster(make_cluster(num_slaves=SLAVES), plan).run_job(work)


FAULT_FREE = {"WordCount": 0.16963271624880397, "Sort": 0.32924635774162675}

#: plan -> expected ``duration_s`` per workload
PLANS = {
    "empty": (FaultPlan(), FAULT_FREE),
    "speculation": (FaultPlan(speculative_execution=True), FAULT_FREE),
    "limping-slave3-speculation": (
        FaultPlan(speculative_execution=True, limping_nodes=(("slave3", 4.0),)),
        {"WordCount": 0.2680561617224881, "Sort": 0.4876385867942584},
    ),
}


class TestOneJobMixEqualsFaultyCluster:
    @pytest.mark.parametrize("plan_name", PLANS)
    @pytest.mark.parametrize("name", ["WordCount", "Sort"])
    def test_same_duration(self, works, plan_name, name):
        plan, expected = PLANS[plan_name]
        (work,) = works[name]
        mix = mix_run(work, plan).reports[0].timeline.duration_s
        solo = faulty_run(work, plan).duration_s
        assert mix == solo
        assert solo == pytest.approx(expected[name], rel=1e-12)


class TestCrashedNodeRunsNothing:
    @pytest.mark.xfail(strict=True, reason=CRASH_DEFECT)
    def test_faulty_cluster(self, works):
        crash_s = 0.0679
        (work,) = works["WordCount"]
        timeline = faulty_run(work, FaultPlan(node_crashes=(("slave2", crash_s),)))
        late = [
            a.attempt_id
            for a in timeline.attempts
            if a.node == "slave2"
            and a.state is AttemptState.SUCCEEDED
            and a.end_s - timeline.start_s > crash_s
        ]
        assert late == []
        assert timeline.nodes_crashed == ("slave2",)

    @pytest.mark.xfail(strict=True, reason=CRASH_DEFECT)
    def test_one_job_fifo_mix(self, works):
        crash_s = 0.0339
        (work,) = works["WordCount"]
        outcome = mix_run(work, FaultPlan(node_crashes=(("slave2", crash_s),)))
        late = [
            (interval.start_s, interval.end_s)
            for interval in outcome.task_intervals
            if interval.node == "slave2" and interval.start_s > crash_s
        ]
        assert late == []
        assert outcome.fault_accounting.killed_attempts >= 1
