"""Tests for the domain study, speedup study, and findings checks."""

import pytest

from repro.analysis import (
    TOP_SITES,
    classify_sites,
    domain_shares,
    evaluate_findings,
    speedup_study,
    top_domains,
)
from repro.analysis.domains import COMMERCE, OTHERS, SEARCH, SOCIAL, STREAMING
from repro.core import DCBench, characterize
from repro.workloads import workload


class TestDomains:
    def test_twenty_sites(self):
        assert len(TOP_SITES) == 20

    def test_figure_1_shares(self):
        shares = {s.category: s.share for s in domain_shares()}
        # The paper's pie: 40 / 25 / 15 / 5 / 15.
        assert shares[SEARCH] == pytest.approx(0.40)
        assert shares[SOCIAL] == pytest.approx(0.25)
        assert shares[COMMERCE] == pytest.approx(0.15)
        assert shares[STREAMING] == pytest.approx(0.05)
        assert shares[OTHERS] == pytest.approx(0.15)

    def test_shares_sum_to_one(self):
        assert sum(s.share for s in domain_shares()) == pytest.approx(1.0)

    def test_top_three_domains(self):
        # "we focus on the top three application domains" (§II-C).
        assert top_domains(3) == [SEARCH, SOCIAL, COMMERCE]

    def test_classification_covers_all_sites(self):
        grouped = classify_sites()
        assert sum(len(v) for v in grouped.values()) == 20
        assert "google.com" in grouped[SEARCH]
        assert "facebook.com" in grouped[SOCIAL]
        assert "amazon.com" in grouped[COMMERCE]
        assert "youtube.com" in grouped[STREAMING]

    def test_rejects_unknown_category(self):
        with pytest.raises(ValueError):
            classify_sites(((1, "example.com", "Gopherspace"),))


class TestSpeedup:
    @pytest.fixture(scope="class")
    def small_study(self):
        # Three representative workloads keep the test quick.
        wls = [workload(n) for n in ("Sort", "K-means", "SVM")]
        return speedup_study(wls, slave_counts=(1, 4, 8), scale=0.5)

    def test_baseline_speedup_is_one(self, small_study):
        for name in small_study.durations:
            assert small_study.speedup(name, 1) == pytest.approx(1.0)

    def test_speedup_monotone_non_decreasing(self, small_study):
        for name in small_study.durations:
            series = small_study.series(name)
            assert series == sorted(series)

    def test_speedups_exceed_parallel_floor(self, small_study):
        lo, hi = small_study.max_spread()
        assert lo > 1.5
        assert hi <= 8.0

    def test_workloads_diverse(self, small_study):
        # "the data analysis workloads are diverse in terms of
        # performance characteristics" (§II-B).
        lo, hi = small_study.max_spread()
        assert hi - lo > 0.5

    def test_rejects_unsorted_slave_counts(self):
        # a repeated count is not ascending either: it would run one
        # cluster size twice and repeat a point of the curve
        for counts in ((4, 1), (1, 1, 4), (1, 4, 4), ()):
            with pytest.raises(ValueError):
                speedup_study([workload("Grep")], slave_counts=counts)


class TestFindings:
    @pytest.fixture(scope="class")
    def chars(self):
        suite = DCBench.default()
        names = [
            "Naive Bayes", "WordCount", "Sort", "K-means",
            "Data Serving", "SPECWeb", "Web Search",
            "HPCC-HPL", "HPCC-STREAM", "HPCC-DGEMM",
        ]
        return [characterize(suite.entry(n), instructions=60_000) for n in names]

    def test_findings_hold_on_sample(self, chars):
        findings = evaluate_findings(chars)
        assert findings.ipc_ordering
        assert findings.stall_split
        assert findings.frontend_pressure
        assert findings.cache_effectiveness
        assert findings.branch_prediction
        assert findings.all_hold()

    def test_findings_values_consistent(self, chars):
        f = evaluate_findings(chars)
        assert f.service_max_ipc < f.da_avg_ipc < f.hpl_ipc
        assert f.da_avg_l2_mpki < f.service_avg_l2_mpki
        assert f.da_avg_mispredict < f.service_avg_mispredict

    def test_findings_need_all_groups(self):
        suite = DCBench.default()
        only_da = [characterize(suite.entry("Grep"), instructions=5_000)]
        with pytest.raises(ValueError):
            evaluate_findings(only_da)
