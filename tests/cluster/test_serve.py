"""Tests for open-loop service traffic and graceful degradation.

Pins the PR's acceptance criterion: on a pinned saturating arrival
stream (bursty, ~2.4x the server bank's capacity) the protected
frontend — admission control, load shedding, deadlines — holds its
admitted-traffic p99 under the deadline, while the unprotected frontend
serving the very same arrivals sees its p99 diverge to many multiples
of it.  Everything is seeded, so every assertion here is exact.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.__main__ import build_parser, main
from repro.cluster.serve import (
    ArrivalProcess,
    RequestClass,
    ServePolicy,
    default_request_classes,
    percentile,
    request_classes_from_trace,
    run_service,
)
from repro.cluster.tenancy import TraceJob, WorkloadTrace


# -- percentiles ---------------------------------------------------------------


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


# -- arrival processes ---------------------------------------------------------


class TestArrivalProcess:
    def test_same_seed_same_arrivals(self):
        process = ArrivalProcess(rate_per_s=10.0, pattern="bursty")
        assert process.arrivals(500, seed=4) == process.arrivals(500, seed=4)

    def test_different_seed_different_arrivals(self):
        process = ArrivalProcess(rate_per_s=10.0)
        assert process.arrivals(500, seed=4) != process.arrivals(500, seed=5)

    @pytest.mark.parametrize("pattern", ["poisson", "diurnal", "bursty"])
    def test_arrivals_are_strictly_increasing(self, pattern):
        process = ArrivalProcess(rate_per_s=10.0, pattern=pattern)
        times = process.arrivals(1000, seed=0)
        assert len(times) == 1000
        assert all(b > a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("pattern", ["poisson", "diurnal", "bursty"])
    def test_mean_rate_matches_nominal(self, pattern):
        """Thinning keeps the long-run mean at rate_per_s in every pattern."""
        process = ArrivalProcess(rate_per_s=12.0, pattern=pattern)
        times = process.arrivals(8000, seed=3)
        assert 8000 / times[-1] == pytest.approx(12.0, rel=0.1)

    def test_diurnal_rate_oscillates_around_the_mean(self):
        process = ArrivalProcess(
            rate_per_s=10.0, pattern="diurnal", diurnal_period_s=40.0,
            diurnal_amplitude=0.5,
        )
        assert process.rate_at(10.0) == pytest.approx(15.0)  # peak
        assert process.rate_at(30.0) == pytest.approx(5.0)  # trough
        assert process.rate_at(0.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=float("nan"))
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=1.0, pattern="fractal")
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=1.0, diurnal_amplitude=1.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=1.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=1.0, burst_fraction=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(rate_per_s=1.0).arrivals(-1)


# -- request classes and policies ----------------------------------------------


class TestRequestClassesAndPolicy:
    def test_request_class_validation(self):
        with pytest.raises(ValueError):
            RequestClass("", 0.1)
        with pytest.raises(ValueError):
            RequestClass("x", 0.0)
        with pytest.raises(ValueError):
            RequestClass("x", 0.1, weight=0.0)

    def test_default_mix_is_heavy_tailed(self):
        classes = default_request_classes()
        weights = {c.name: c.weight for c in classes}
        assert weights["point-lookup"] == max(weights.values())
        assert weights["ml-scoring"] == min(weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ServePolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServePolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            ServePolicy(shed_rate=1.5)
        with pytest.raises(ValueError):
            ServePolicy(retry_budget=-1)
        with pytest.raises(ValueError):
            ServePolicy(retry_backoff_factor=0.5)

    def test_unprotected_posture_disables_every_control(self):
        policy = ServePolicy.unprotected(deadline_s=3.0)
        assert not policy.admission_control
        assert not policy.deadline_admission
        assert not policy.kill_at_deadline
        assert policy.shed_rate == 0.0
        assert policy.retry_budget == 0
        # the deadline survives as the SLO yardstick
        assert policy.deadline_s == 3.0

    def test_classes_from_trace_memoize_per_distinct_key(self):
        jobs = (
            TraceJob(0, "Grep", 0.05, 0.0, "ada", "interactive", "small"),
            TraceJob(1, "WordCount", 0.05, 0.1, "bo", "interactive", "small"),
            TraceJob(2, "Grep", 0.05, 0.2, "ada", "interactive", "small"),
        )
        trace = WorkloadTrace(jobs, seed=0, arrival_rate_per_s=0.0)
        classes = request_classes_from_trace(trace, block_size=64 * 1024)
        assert [c.name for c in classes] == ["Grep@0.05", "WordCount@0.05"]
        assert [c.weight for c in classes] == [2.0, 1.0]
        assert all(c.demand_s > 0 for c in classes)


# -- the service loop ----------------------------------------------------------


class TestRunService:
    def test_report_is_deterministic(self):
        a = run_service(num_requests=150, seed=2)
        b = run_service(num_requests=150, seed=2)
        assert a.to_dict() == b.to_dict()
        assert a.records == b.records

    def test_every_offered_request_is_accounted(self):
        report = run_service(num_requests=150, seed=2)
        assert report.offered == 150
        assert report.completed + report.shed + report.killed == 150
        assert 0.0 <= report.slo_attainment <= 1.0
        assert 0.0 <= report.utilization <= 1.0
        assert report.goodput_rps > 0
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["offered"] == 150

    def test_uncontended_run_degrades_nothing(self):
        report = run_service(
            process=ArrivalProcess(rate_per_s=2.0), num_requests=100, seed=0
        )
        assert report.shed == 0
        assert report.killed == 0
        assert report.procfs.requests_shed == 0
        assert report.procfs.deadline_kills == 0
        assert report.slo_attainment == 1.0

    def test_deadline_kills_and_retries_are_counted(self):
        policy = ServePolicy(
            deadline_s=0.6,
            max_queue_depth=10_000,
            deadline_admission=False,
            shed_rate=0.0,
            retry_budget=1,
        )
        report = run_service(
            process=ArrivalProcess(rate_per_s=30.0),
            num_requests=300,
            servers=2,
            policy=policy,
            seed=0,
        )
        assert report.killed > 0
        assert report.retries > 0
        # the counter sees every kill, including ones a retry then saves
        assert report.procfs.deadline_kills >= report.killed

    def test_limping_server_inflates_the_tail(self):
        base = run_service(num_requests=150, seed=1)
        limp = run_service(
            num_requests=150, seed=1, limping_servers=((0, 4.0),)
        )
        assert limp.p99_s > base.p99_s

    def test_validation(self):
        with pytest.raises(ValueError):
            run_service(classes=())
        with pytest.raises(ValueError):
            run_service(servers=0)
        with pytest.raises(ValueError):
            run_service(limping_servers=((9, 2.0),))
        with pytest.raises(ValueError):
            run_service(limping_servers=((0, 0.5),))


# -- the pinned saturation scenario --------------------------------------------


def overload(seed: int):
    """The pinned saturation scenario: bursty arrivals at ~2.4x the bank's
    capacity (mean demand 0.24 s, 4 servers ≈ 16.7 req/s), played through
    the protected and the unprotected posture."""
    process = ArrivalProcess(rate_per_s=40.0, pattern="bursty")
    return tuple(
        run_service(process=process, num_requests=600, servers=4,
                    policy=posture(2.0), seed=seed)
        for posture in (ServePolicy.protected, ServePolicy.unprotected)
    )


class TestOverloadChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_degradation_ordering_under_saturation(self, seed):
        """Graceful degradation buys a bounded p99; doing nothing does not."""
        protected, unprotected = overload(seed)
        assert protected.p99_s < unprotected.p99_s
        # protected: admitted traffic answers within the deadline
        assert protected.p99_s < 2.0
        # unprotected: the open-loop queue drives p99 far past the SLO
        assert unprotected.p99_s > 2 * 2.0
        # the price of the bound is shed traffic, and the frontend's
        # /proc counters agree with the report
        assert protected.shed > 0
        assert protected.procfs.requests_shed == protected.shed
        assert unprotected.shed == 0
        assert unprotected.procfs.requests_shed == 0
        assert protected.slo_attainment > unprotected.slo_attainment

    def test_comparison_is_deterministic(self):
        (a_protected, a_unprotected), (b_protected, b_unprotected) = (
            overload(0), overload(0)
        )
        assert a_protected.to_dict() == b_protected.to_dict()
        assert a_unprotected.to_dict() == b_unprotected.to_dict()

    def test_protected_posture(self):
        policy = ServePolicy.protected(deadline_s=2.0)
        assert (policy.max_queue_depth, policy.shed_rate, policy.shed_threshold,
                policy.retry_budget, policy.deadline_s) == (32, 0.5, 8, 1, 2.0)
        assert policy.admission_control and policy.kill_at_deadline


# -- the serve CLI -------------------------------------------------------------


class TestRequestClassMemo:
    """The shadow-run memo must key on the FULL (workload, scale,
    cluster shape) tuple — a key that ignored the cluster shape handed
    one shape's solo duration to another."""

    def trace(self) -> WorkloadTrace:
        return WorkloadTrace(
            (TraceJob(0, "Grep", 0.05, 0.0, "ada", "interactive", "small"),),
            seed=0,
            arrival_rate_per_s=0.0,
        )

    def test_memo_hit_skips_the_shadow_run(self, monkeypatch):
        import repro.cluster.serve as serve_mod
        import repro.cluster.tenancy as tenancy_mod

        def no_shadow(*args, **kwargs):
            raise AssertionError("a memo hit must not run a shadow")

        sentinel = 123.456
        # every make_cluster argument, defaults filled in, sorted by name
        shape = (
            ("block_size", 64 * 1024),
            ("bytes_per_checksum", 512),
            ("cpu_speed", 1.0),
            ("journaling", True),
            ("map_slots", 4),
            ("num_slaves", 2),
            ("racks", 1),
            ("reduce_slots", 2),
            ("replication", 3),
        )
        monkeypatch.setattr(
            serve_mod, "_SOLO_SECONDS", {("Grep", 0.05, shape): sentinel}
        )
        monkeypatch.setattr(tenancy_mod, "solo_run", no_shadow)
        classes = request_classes_from_trace(
            self.trace(), num_slaves=2, map_slots=4, reduce_slots=2,
            block_size=64 * 1024,
        )
        assert classes[0].demand_s == sentinel

    def test_key_includes_the_engine_config(self, monkeypatch):
        import repro.cluster.serve as serve_mod

        monkeypatch.setattr(serve_mod, "_SOLO_SECONDS", {})
        elephant = WorkloadTrace(
            (TraceJob(0, "Sort", 0.3, 0.0, "bo", "batch", "large"),),
            seed=0,
            arrival_rate_per_s=0.0,
        )
        small = request_classes_from_trace(
            elephant, num_slaves=1, map_slots=1, reduce_slots=1,
            block_size=64 * 1024,
        )
        big = request_classes_from_trace(
            elephant, num_slaves=4, map_slots=8, reduce_slots=4,
            block_size=64 * 1024,
        )
        # two distinct memo entries, one per cluster shape...
        assert len(serve_mod._SOLO_SECONDS) == 2
        # ...and the starved cluster really is slower, so sharing one
        # entry across shapes would have been wrong, not just untidy.
        assert small[0].demand_s > big[0].demand_s

    def test_scale_still_separates_entries(self, monkeypatch):
        import repro.cluster.serve as serve_mod

        monkeypatch.setattr(serve_mod, "_SOLO_SECONDS", {})
        jobs = (
            TraceJob(0, "Grep", 0.05, 0.0, "ada", "interactive", "small"),
            TraceJob(1, "Grep", 0.2, 0.1, "ada", "interactive", "small"),
        )
        trace = WorkloadTrace(jobs, seed=0, arrival_rate_per_s=0.0)
        classes = request_classes_from_trace(trace, block_size=64 * 1024)
        assert len(serve_mod._SOLO_SECONDS) == 2
        assert classes[0].demand_s != classes[1].demand_s


class TestServeCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--rate", "0"],
            ["serve", "--rate", "nan"],
            ["serve", "--requests", "0"],
            ["serve", "--servers", "-1"],
            ["serve", "--retries", "99"],
            ["serve", "--retries", "-1"],
            ["serve", "--shed-rate", "1.5"],
            ["serve", "--limp", "bad"],
            ["serve", "--limp", "0:0.5"],
            ["serve", "--limp", "-1:2.0"],
            ["serve", "--limp", "9:2.0"],  # beyond the server bank
            ["serve", "--pattern", "fractal"],
        ],
    )
    def test_bad_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_serve_runs_and_reports(self, capsys):
        assert main(["serve", "--requests", "60", "--rate", "6"]) == 0
        out = capsys.readouterr().out
        assert "protected: 60 offered" in out
        assert "requests_shed" in out

    def test_serve_json_round_trips(self, capsys):
        assert main(
            ["serve", "--requests", "60", "--rate", "6", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offered"] == 60
        assert set(payload["latency_percentiles"]) == {
            "p50", "p95", "p99", "p999",
        }

    def test_compare_exit_code_tracks_the_ordering(self, capsys):
        argv = [
            "serve", "--compare", "--pattern", "bursty", "--rate", "40",
            "--requests", "300", "--deadline", "2.0",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "degradation ordering holds: True" in out

    def test_parser_lists_serve(self):
        parser = build_parser()
        assert "serve" in parser.format_help()
