"""Repetition benchmark: the pinned per-bucket cache-payoff contract."""

import pytest

from repro.hive import run_repetition_benchmark
from repro.hive.repbench import DEFAULT_BUCKETS, _query_stream
import random


class TestContract:
    REPORT = run_repetition_benchmark(queries_per_bucket=16, seed=0)

    def test_hit_rate_grows_monotonically_with_repetitiveness(self):
        rates = [b.hit_rate for b in self.REPORT.buckets]
        assert rates == sorted(rates)
        assert self.REPORT.hit_rates_monotone()

    def test_zero_repetition_bucket_never_hits(self):
        assert self.REPORT.buckets[0].target_rate == 0.0
        assert self.REPORT.buckets[0].hits == 0

    def test_most_repetitive_bucket_has_a_latency_win(self):
        top = self.REPORT.top_bucket
        assert top.saved_s > 0
        assert top.mean_effective_s < top.mean_cold_s
        assert self.REPORT.contract_holds()

    def test_accounting_adds_up(self):
        for bucket in self.REPORT.buckets:
            assert bucket.hits + bucket.misses == bucket.queries
            assert bucket.hit_rate == bucket.hits / bucket.queries

    def test_report_is_deterministic(self):
        again = run_repetition_benchmark(queries_per_bucket=16, seed=0)
        assert again.to_dict() == self.REPORT.to_dict()


class TestCacheOff:
    def test_no_result_cache_means_no_hits(self):
        report = run_repetition_benchmark(
            buckets=(0.0, 0.9), queries_per_bucket=6, use_cache=False
        )
        assert not report.cache_enabled
        assert all(b.hits == 0 for b in report.buckets)
        assert all(b.saved_s == 0.0 for b in report.buckets)
        # nothing to claim with the cache off — the contract is vacuous
        assert report.contract_holds()

    def test_env_escape_hatch_disables_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        report = run_repetition_benchmark(
            buckets=(0.9,), queries_per_bucket=6, use_cache=True
        )
        assert not report.cache_enabled
        assert all(b.hits == 0 for b in report.buckets)


class TestStreams:
    def test_zero_rate_stream_has_no_duplicates(self):
        stream = _query_stream(0.0, 40, random.Random("s"))
        assert len(set(stream)) == len(stream)

    def test_high_rate_stream_repeats(self):
        stream = _query_stream(0.9, 40, random.Random("s"))
        assert len(set(stream)) < len(stream) / 2


class TestValidation:
    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_bad_inputs_are_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            run_repetition_benchmark(buckets=(0.5, 0.1), queries_per_bucket=1)
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            run_repetition_benchmark(buckets=(0.5, 1.5), queries_per_bucket=1)
        with pytest.raises(ValueError, match="positive"):
            run_repetition_benchmark(queries_per_bucket=0)
