"""The chaos table: every harness row against its contract.

A cell runs one subject through one row of
:data:`repro.cluster.chaos.HARNESSES` — fault-free, then under each of
the row's seeded plans.  :data:`CHECKS` names each row's predicates over
a cell's :class:`ChaosResult`; :data:`MATRIX_CHECKS` names predicates over
all of a row's cells (the pinned seeds must reach every fault class and
recovery path).  A cell runs once per session: every predicate of its
row is evaluated on the spot and only the verdicts, plus a copy of the
result without its raw runs, are kept.

The row checks report under the test classes that have always held them
(``TestChaosMatrix`` here; ``TestIntegrityChaosMatrix`` in
``test_integrity.py``, and so on) through one call, :func:`check`.  The
two clauses every row shares — every run completes (except the rack
rows' flat twin, whose data loss is the point) and one pinned cell run
twice gives equal results — are parametrized here with ids that start
with the harness name, so ``pytest -k <harness>`` selects a row.

The seeds are pinned: fault-induced rescheduling can occasionally
*improve* a greedy schedule (Graham's scheduling anomalies — a retried
map's output lands on a less contended disk), so the table fixes
schedules where the injected damage dominates.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    FaultPlan,
    FaultyCluster,
    JobFailedError,
    RetryPolicy,
    make_cluster,
)
from repro.cluster.chaos import ChaosResult, chaos_plan, percentile, run_chaos
from repro.workloads import workload

W3 = ("WordCount", "Sort", "PageRank")
DAGS = ("hive-chain", "kmeans", "pagerank")

#: each row's pinned seeds; the mix and workflow rows run both schedulers
SEEDS = {
    "mixed": (1, 2, 3, 4, 6),
    "integrity": (1, 2, 4, 5),
    "master-crash": (0, 2, 5, 6, 10),
    "rack-power": (0, 1, 2),
    "rack-tor": (0, 1, 2),
    "fail-slow": (0, 1, 2),
    "workflow": (0, 1, 2),
}
SCHEDULERS = {"fail-slow": ("fifo", "fair"), "workflow": ("fifo", "fair")}

#: every (harness, subject, seed, scheduler) cell of the table
CELLS = [
    (harness, subject, seed, scheduler)
    for harness, seeds in SEEDS.items()
    for subject in (DAGS if harness == "workflow" else W3)
    for scheduler in SCHEDULERS.get(harness, ("fifo",))
    for seed in seeds
]

#: the cell each harness runs twice for its determinism clause
DETERMINISM = {
    "mixed": ("WordCount", 3, "fifo"),
    "integrity": ("WordCount", 5, "fifo"),
    "master-crash": ("WordCount", 5, "fifo"),
    "rack-power": ("WordCount", 1, "fifo"),
    "rack-tor": ("WordCount", 1, "fifo"),
    "fail-slow": ("Sort", 1, "fair"),
    "workflow": ("diamond", 5, "fair"),
}


def slowdown(run, base) -> float:
    return 1.0 if base.duration_s <= 0 else run.duration_s / base.duration_s


def every_run_completed(r) -> bool:
    return r.baseline.completed and all(
        run.completed for label, run in r.runs.items() if label != "flat"
    )


# -- integrity: silent corruption, lossy links, a partition --------------------


def all_corruption_detected(r) -> bool:
    """Every injected at-rest corruption was caught and repaired."""
    run = r.runs["integrity"]
    injected = run.accounting["corrupt_replicas_injected"]
    return (
        run.cluster.hdfs.corrupt_replica_count == 0
        and run.accounting["checksum_failures"] >= injected
        and run.accounting["bad_blocks_reported"] >= injected
    )


# -- master-crash: cold restart vs journal replay --------------------------------


def resume_beats_restart(r) -> bool:
    return r.runs["resume"].duration_s <= r.runs["restart"].duration_s


def recovery_savings_s(r) -> float:
    """Wall-clock the job-history journal saved over a cold restart."""
    return r.runs["restart"].duration_s - r.runs["resume"].duration_s


# -- rack: one whole rack lost, rack-aware vs flat placement ---------------------


def blocks_lost_to(hdfs, failed_nodes) -> int:
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


def _members(r) -> list[str]:
    return [name for name, _ in r.runs["flat"].plan.node_crashes]


def survived(r) -> bool:
    """Rack-aware placement rode out the rack loss with zero data loss."""
    run = r.runs["outage"]
    lost_with = _members(r) if run.plan.rack_outages else ()
    return run.identical_output and blocks_lost_to(run.cluster.hdfs, lost_with) == 0


def flat_demonstrably_loses(r) -> bool:
    """The flat twin lost blocks: every replica lived in the failed domain."""
    return blocks_lost_to(r.runs["flat"].cluster.hdfs, _members(r)) >= 1


# -- fail-slow: a limping node, speculation off and on ---------------------------


def recovered_fraction(r) -> float:
    """Share of the fail-slow p99 inflation speculation clawed back."""
    limping, speculative = r.runs["limping"], r.runs["speculative"]
    inflation = limping.duration_s - r.baseline.duration_s
    if inflation <= 0:
        return 1.0
    return (limping.duration_s - speculative.duration_s) / inflation


def every_loser_fenced(r) -> bool:
    """Each speculative race fenced exactly one losing attempt."""
    run = r.runs["speculative"]
    acct = run.accounting
    return (
        acct["speculative_losers_fenced"] == acct["speculative_attempts"]
        and run.result.outcome.fenced_attempts
        == acct["zombies_fenced"] + acct["speculative_losers_fenced"]
    )


def _fail_slow_survives(r) -> bool:
    speculative = r.runs["speculative"]
    limping_node = speculative.plan.limping_nodes[0][0]
    return (
        # limping is a performance fault, never a correctness fault
        all(r.runs[k].identical_output for k in ("limping", "speculative", "solo-limping"))
        # the injection really bit: the mix tail and the solo run both stretched
        and slowdown(r.runs["limping"], r.baseline) > 1.5
        and slowdown(r.runs["solo-limping"], r.runs["solo"]) > 1.0
        # speculation raced the limping node and the fence kept exactly
        # one committed attempt per task
        and speculative.accounting["stragglers_detected"] == [limping_node]
        and speculative.accounting["speculative_attempts"] > 0
        and every_loser_fenced(r)
    )


def _pinned_sort_recovery(r) -> bool:
    """The headline mitigation claim, on the latency-bound Sort trace: a
    limping node more than doubles the mix p99, and speculative
    re-execution claws back most of the inflation.  (Short-task mixes
    are the classic counter-case — racing a backup costs more than the
    limp, which is why speculation is a policy, not a default-on win.)"""
    acct = r.runs["speculative"].accounting
    return (
        slowdown(r.runs["limping"], r.baseline) > 2.0
        and recovered_fraction(r) > 0.5
        and acct["speculative_wins"] > 0
        and acct["speculative_losers_fenced"] > 0
        and every_loser_fenced(r)
    )


# -- workflow: a DAG under four regimes ---------------------------------------------


def workflow_survived(r) -> bool:
    """Crash, partition and corruption leave the sink outputs identical,
    the lost output heals by lineage, and the exhausted stage cancels
    exactly its downstream cone while every independent stage completes."""
    corruption, cascade = r.runs["corruption"], r.runs["cascade"]
    failed = cascade.plan.fail_stages[0][0]
    return (
        all(r.runs[k].identical_output for k in ("crash", "partition", "corruption"))
        and corruption.accounting["lineage_recomputes"] >= 1
        and corruption.accounting["destroyed_outputs"] >= 1
        and cascade.accounting["stage_retries"] >= 1
        and cascade.completed  # the planned failure's cone, exactly
        and all(s.cancelled_by == failed
                for s in cascade.result.reports if s.status == "cancelled")
    )


def _never_faster(*labels):
    return lambda r: all(slowdown(r.runs[k], r.baseline) >= 1.0 for k in labels)


def _identical(*labels):
    return lambda r: all(r.runs[k].identical_output for k in labels)


def _rack_checks(injected_key: str) -> dict:
    return {
        "rack_aware_survives_rack_loss": survived,
        "flat_placement_demonstrably_loses": flat_demonstrably_loses,
        "outage_was_actually_injected":
            lambda r: bool(r.runs["outage"].accounting[injected_key]),
    }


#: harness → {check: predicate over one cell's ChaosResult}
CHECKS = {
    "mixed": {
        "output_is_bit_identical": _identical("mixed"),
        "faults_never_speed_the_job_up": _never_faster("mixed"),
        "injected_faults_were_hit": lambda r: (
            r.runs["mixed"].accounting["failed_attempts"] >= 1
            and r.runs["mixed"].accounting["wasted_seconds"] > 0
        ),
    },
    "integrity": {
        "output_is_bit_identical": _identical("integrity"),
        "every_injected_corruption_is_caught": lambda r: (
            r.runs["integrity"].accounting["corrupt_replicas_injected"] > 0
            and all_corruption_detected(r)
        ),
        "gray_failures_never_speed_the_job_up": _never_faster("integrity"),
    },
    "master-crash": {
        "outputs_are_bit_identical_in_both_modes": _identical("restart", "resume"),
        "the_master_crashed_exactly_once": lambda r: (
            r.runs["restart"].accounting["master_crashes"]
            == r.runs["resume"].accounting["master_crashes"] == 1
        ),
        "resume_is_at_least_as_fast_as_restart":
            lambda r: resume_beats_restart(r) and recovery_savings_s(r) >= 0,
        "the_outage_never_speeds_the_run_up": _never_faster("restart", "resume"),
    },
    "rack-power": _rack_checks("nodes_crashed"),
    "rack-tor": _rack_checks("nodes_partitioned"),
    "fail-slow": {
        "outputs_survive_and_losers_are_fenced": _fail_slow_survives,
        "pinned_sort_recovery": _pinned_sort_recovery,
    },
    "workflow": {"dag_survives_every_fault_regime": workflow_survived},
}


def _mixed_covers_every_fault_class(results) -> bool:
    plans = [r.runs["mixed"].plan for r in results]
    return all(plan.map_failures for plan in plans) and all(
        any(getattr(plan, name) for plan in plans)
        for name in ("reduce_failures", "straggler_nodes", "node_crashes",
                     "shuffle_failures", "lost_replicas")
    )


def _mixed_exercises_recovery_paths(results) -> bool:
    accounts = [r.runs["mixed"].accounting for r in results]
    return all(
        any(a[key] for a in accounts)
        for key in ("nodes_crashed", "maps_reexecuted", "shuffle_fetch_failures",
                    "fetch_escalations", "re_replicated_bytes", "speculative_wins")
    )


def _integrity_exercises_every_gray_failure_class(results) -> bool:
    runs = [r.runs["integrity"] for r in results]
    return (
        all(run.accounting["corrupt_replicas_injected"] for run in runs)
        and all(run.accounting["scrubbed_bytes"] for run in runs)
        and any(run.accounting["zombie_attempts_fenced"] for run in runs)
        and any(run.accounting["net_retransmits"] for run in runs)
        and any(run.plan.partitions for run in runs)
        and all(run.plan.transfer_corruption_rate > 0 for run in runs)
    )


def _integrity_zombies_never_commit(results) -> bool:
    # Wherever a zombie was fenced, the partition that made it happened.
    return all(
        run.accounting["nodes_partitioned"]
        for run in (r.runs["integrity"] for r in results)
        if run.accounting["zombie_attempts_fenced"]
    )


def _master_crash_exercises_both_recovery_paths(results) -> bool:
    restart = [r.runs["restart"].accounting for r in results]
    resume = [r.runs["resume"].accounting for r in results]
    return (
        any(a["jobs_restarted"] for a in restart)
        and any(a["jobs_resumed"] for a in resume)
        and any(a["maps_recovered"] for a in resume)
        and all(a["recovery_downtime_s"] > 0 for a in restart)
    )


#: harness → {check: predicate over every cell of the row}
MATRIX_CHECKS = {
    "mixed": {
        "matrix_covers_every_fault_class": _mixed_covers_every_fault_class,
        "matrix_exercises_recovery_paths": _mixed_exercises_recovery_paths,
    },
    "integrity": {
        "matrix_exercises_every_gray_failure_class":
            _integrity_exercises_every_gray_failure_class,
        "zombies_never_commit": _integrity_zombies_never_commit,
    },
    "master-crash": {
        "matrix_exercises_both_recovery_paths":
            _master_crash_exercises_both_recovery_paths,
    },
}


_verdicts: dict[tuple, dict[str, bool]] = {}
_stripped: dict[tuple, ChaosResult] = {}
_reproducible: dict[str, bool] = {}


def _run_cell(cell: tuple) -> dict[str, bool]:
    if cell not in _verdicts:
        harness, subject, seed, scheduler = cell
        result = run_chaos(harness, subject, seed, scheduler=scheduler)
        checks = {"every_run_completed": every_run_completed, **CHECKS[harness]}
        _verdicts[cell] = {name: bool(p(result)) for name, p in checks.items()}
        _stripped[cell] = replace(result, runs={
            label: replace(run, result=None, cluster=None)
            for label, run in result.runs.items()
        })
    return _verdicts[cell]


def check(harness: str, subject: str, seed: int, name: str, scheduler: str = "fifo"):
    """Assert the row check *name* on one cell of the table."""
    cell = (harness, subject, seed, scheduler)
    assert cell in CELLS, f"{cell} is not a cell of the chaos table"
    assert _run_cell(cell)[name], f"{harness} {name} fails on {_stripped[cell]!r}"


def check_matrix(harness: str, name: str):
    """Assert the matrix check *name* over every cell of the row."""
    cells = [cell for cell in CELLS if cell[0] == harness]
    for cell in cells:
        _run_cell(cell)
    assert MATRIX_CHECKS[harness][name]([_stripped[cell] for cell in cells])


def check_reproducible(harness: str):
    """Assert the row's pinned cell gives equal results when run twice."""
    if harness not in _reproducible:
        subject, seed, scheduler = DETERMINISM[harness]
        one, two = (
            run_chaos(harness, subject, seed, scheduler=scheduler) for _ in range(2)
        )
        _reproducible[harness] = one == two
    assert _reproducible[harness]


# -- the clauses every row shares ----------------------------------------------------


@pytest.mark.parametrize(
    "cell", [pytest.param(cell, id="-".join(map(str, cell))) for cell in CELLS]
)
def test_every_run_completed(cell):
    check(*cell[:3], "every_run_completed", cell[3])


@pytest.mark.parametrize("harness", list(DETERMINISM))
def test_same_seed_gives_equal_results(harness):
    check_reproducible(harness)


class TestRunChaosArguments:
    def test_unknown_harness_is_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos harness"):
            run_chaos("meteor", "WordCount", 0)

    @pytest.mark.parametrize("scheduler", ["capacity", "lottery"])
    def test_schedulers_other_than_fifo_and_fair_are_rejected(self, scheduler):
        with pytest.raises(ValueError):
            run_chaos("fail-slow", "Sort", 0, scheduler=scheduler)


# -- the mixed row: fail-stop faults of every class --------------------------------


@pytest.mark.parametrize("name", W3)
@pytest.mark.parametrize("seed", SEEDS["mixed"])
class TestChaosMatrix:
    def test_output_is_bit_identical(self, name, seed):
        check("mixed", name, seed, "output_is_bit_identical")

    def test_faults_never_speed_the_job_up(self, name, seed):
        check("mixed", name, seed, "faults_never_speed_the_job_up")

    def test_injected_faults_were_hit(self, name, seed):
        check("mixed", name, seed, "injected_faults_were_hit")


class TestChaosProperties:
    def test_same_seed_is_exactly_reproducible(self):
        check_reproducible("mixed")

    def test_matrix_covers_every_fault_class(self):
        check_matrix("mixed", "matrix_covers_every_fault_class")

    def test_matrix_exercises_recovery_paths(self):
        check_matrix("mixed", "matrix_exercises_recovery_paths")

    def test_chaos_plan_validates_inputs(self):
        with pytest.raises(ValueError):
            chaos_plan(random.Random(1), num_maps=0, num_reduces=2, node_names=["slave1"])
        with pytest.raises(ValueError):
            chaos_plan(random.Random(1), num_maps=4, num_reduces=2, node_names=[])

    def test_exhausted_attempts_abort_the_workload(self):
        plan = FaultPlan(
            map_failure_counts=((0, 4),),
            policy=RetryPolicy(max_attempts=4),
        )
        cluster = FaultyCluster(make_cluster(4, block_size=64 * 1024), plan)
        with pytest.raises(JobFailedError) as excinfo:
            workload("WordCount").run(scale=0.3, cluster=cluster)
        assert excinfo.value.task_id == "m_000000"
        assert excinfo.value.attempts == 4


# -- the mix row's p99 turnaround: nearest-rank percentiles -----------------------


class TestPercentile:
    def test_nearest_rank_returns_observed_samples(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 75.0) == 3.0
        assert percentile(values, 100.0) == 4.0
        # nearest-rank never interpolates: every answer is a sample
        assert percentile(values, 99.0) in values

    def test_empty_is_nan_not_an_error(self):
        assert math.isnan(percentile([], 99.0))

    def test_out_of_range_p_is_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_p999_of_a_thousand_is_not_the_maximum(self):
        # 99.9 / 100 * 1000 is just above 999 in floats; the rank is 999
        assert percentile(range(1, 1001), 99.9) == 999
        for n in range(1000, 5001, 1000):
            assert percentile(range(1, n + 1), 99.9) == n - n // 1000

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.sampled_from(["50", "95", "99", "99.9"]),
        n=st.integers(min_value=1, max_value=5000),
    )
    @example(p="99.9", n=1000)
    def test_rank_matches_exact_arithmetic(self, p, n):
        # values 1..n, so the answer is the rank itself
        rank = math.ceil(Fraction(p) * n / 100)
        assert percentile(range(1, n + 1), float(p)) == rank
