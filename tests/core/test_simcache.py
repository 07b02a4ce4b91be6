"""Tests for the persistent simulation result cache and parallel suite runs.

The cache's contract has two halves: keys are *stable* (the same inputs
always address the same entry, and any input change addresses a new one),
and hits are *bit-identical* to cold runs.  Parallel characterization
carries the same promise — ``workers=N`` must return the exact result
list of a serial run, in the same order.  The mix-level cache (whole
``MixOutcome`` values, content-addressed by trace + scheduler config +
fault plan + topology + cluster code digest) repeats both halves at the
cluster layer, for both of its key domains: submitted ``JobWork``s
(``MixCache.run``) and ``run_mix``'s trace.  Neither cache lets a
failed write abort a finished computation.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import struct

import pytest

from repro.core.characterize import characterize_suite, resolve_workers
from repro.core.simcache import (
    MIX_SCHEMA_VERSION,
    MixCache,
    SimCache,
    cache_enabled,
    clear,
    clear_mix,
    cluster_code_version,
    code_version,
    exec_code_version,
    load_mix,
    load_result,
    mix_cache_enabled,
    mix_cache_key,
    mix_outcome_payload,
    sim_cache_key,
    store_mix,
    store_result,
)
from repro.core.suite import DCBench
from repro.uarch.config import XEON_E5645, scaled_machine
from repro.uarch.pipeline import Core
from repro.uarch.trace import SyntheticTrace, TraceSpec

SCALED = scaled_machine(8)


@pytest.fixture()
def spec():
    return TraceSpec(name="cachetest", instructions=5_000, seed=11)


class TestCacheKey:
    def test_key_is_stable(self, spec):
        assert sim_cache_key(spec, SCALED) == sim_cache_key(spec, SCALED)
        # A structurally equal copy hashes identically too.
        assert sim_cache_key(dataclasses.replace(spec), SCALED) == (
            sim_cache_key(spec, SCALED)
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"instructions": 6_000},
            {"seed": 12},
            {"load_fraction": 0.31},
            {"dep_mean": 3.5},
        ],
    )
    def test_any_spec_field_changes_key(self, spec, change):
        other = dataclasses.replace(spec, **change)
        assert sim_cache_key(other, SCALED) != sim_cache_key(spec, SCALED)

    def test_machine_changes_key(self, spec):
        assert sim_cache_key(spec, XEON_E5645) != sim_cache_key(spec, SCALED)

    def test_warmup_changes_key(self, spec):
        assert sim_cache_key(spec, SCALED, warmup=100) != sim_cache_key(spec, SCALED)

    def test_key_folds_in_code_version(self, spec, monkeypatch):
        base = sim_cache_key(spec, SCALED)
        monkeypatch.setattr("repro.core.simcache._code_version", "deadbeefdeadbeef")
        assert sim_cache_key(spec, SCALED) != base

    def test_code_version_shape(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)  # hex digest prefix


class TestStore:
    def test_round_trip_bit_identical(self, spec, tmp_path):
        result = Core(SCALED).run(SyntheticTrace(spec))
        key = sim_cache_key(spec, SCALED)
        store_result(key, result, tmp_path)
        loaded = load_result(key, tmp_path)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(result)

    def test_missing_key_is_none(self, tmp_path):
        assert load_result("0" * 64, tmp_path) is None

    def test_corrupt_entry_is_a_miss(self, spec, tmp_path):
        result = Core(SCALED).run(SyntheticTrace(spec))
        key = sim_cache_key(spec, SCALED)
        store_result(key, result, tmp_path)
        path = tmp_path / "sim" / key[:2] / f"{key}.json"
        path.write_text("{not json", encoding="utf-8")
        assert load_result(key, tmp_path) is None

    def test_clear_counts_and_removes(self, spec, tmp_path):
        result = Core(SCALED).run(SyntheticTrace(spec))
        store_result(sim_cache_key(spec, SCALED), result, tmp_path)
        other = dataclasses.replace(spec, seed=99)
        store_result(sim_cache_key(other, SCALED), result, tmp_path)
        assert clear(tmp_path) == 2
        assert clear(tmp_path) == 0
        assert load_result(sim_cache_key(spec, SCALED), tmp_path) is None


class TestSimCache:
    def test_hit_is_bit_identical_to_cold_run(self, spec, tmp_path):
        cache = SimCache(tmp_path, enabled=True)
        cold = cache.simulate(spec, SCALED)
        warm = cache.simulate(spec, SCALED)
        assert dataclasses.asdict(cold) == dataclasses.asdict(warm)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_engines_share_entries(self, spec, tmp_path):
        # The engine is not part of the key: bit-identity makes the
        # results interchangeable, so a reference run serves fast hits.
        cache = SimCache(tmp_path, enabled=True)
        cold = cache.simulate(spec, SCALED, engine="reference")
        warm = cache.simulate(spec, SCALED, engine="fast")
        assert dataclasses.asdict(cold) == dataclasses.asdict(warm)
        assert cache.hits == 1

    def test_disabled_cache_never_stores(self, spec, tmp_path):
        cache = SimCache(tmp_path, enabled=False)
        cache.simulate(spec, SCALED)
        cache.simulate(spec, SCALED)
        assert cache.hits == 0
        assert cache.misses == 2
        assert not (tmp_path / "sim").exists()

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        assert cache_enabled()
        for off in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_SIM_CACHE", off)
            assert not cache_enabled()
        monkeypatch.setenv("REPRO_SIM_CACHE", "1")
        assert cache_enabled()

    def test_env_dir_override(self, spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "relocated"))
        cache = SimCache(enabled=True)
        cache.simulate(spec, SCALED)
        assert (tmp_path / "relocated" / "sim").exists()


def mix_entry_path(root, key):
    return root / "mix" / key[:2] / f"{key}.mix"


def sealed_mix_entry(header, columns=b"", magic=b"REPROMIX"):
    """A mix entry with a valid length + checksum trailer around an
    arbitrary header and column area."""
    head = json.dumps(header).encode()
    body = struct.pack("<8sI", magic, len(head)) + head + columns
    return body + struct.pack("<Q32s", len(body), hashlib.sha256(body).digest())


def build_small_mix(
    engine="reference", *, seed=0, plan=False, racks=1, tweak=lambda maps: maps
):
    """A small deterministic mix on a fresh cluster, ready to run.

    *tweak* rewrites the first job's map list, for key-sensitivity cases.
    """
    from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
    from repro.cluster.faults import FaultPlan
    from repro.cluster.scheduler import FifoScheduler, MultiJobCluster

    if engine == "fast":
        from repro.perf.clusterpath import FastMultiJobCluster as cls
    else:
        cls = MultiJobCluster
    cluster = make_cluster(
        num_slaves=max(3, racks), map_slots=2, block_size=64 * 1024, racks=racks
    )
    fault_plan = None
    if plan:
        fault_plan = FaultPlan(partitions=(("slave2", 0.2, 0.5),))
    multi = cls(cluster, scheduler=FifoScheduler(), plan=fault_plan)
    rng = random.Random(seed)
    for i in range(4):
        maps = tuple(
            MapWork(1 << 12, rng.uniform(0.05, 0.3), 1 << 10) for _ in range(2)
        )
        multi.submit(
            JobWork(name=f"j{i}", maps=tweak(maps) if i == 0 else maps, reduces=()),
            arrival_s=i * 0.1,
            user=f"u{i % 2}",
        )
    return multi


class TestMixCacheKey:
    def test_key_is_stable_across_builds(self):
        assert mix_cache_key(build_small_mix()) == mix_cache_key(build_small_mix())

    def test_engine_class_shares_the_key(self):
        # Fast vs reference is bit-identical by contract, so either
        # engine's cold run may serve the other's warm hit.
        assert mix_cache_key(build_small_mix("reference")) == (
            mix_cache_key(build_small_mix("fast"))
        )

    @pytest.mark.parametrize(
        "change",
        [{"seed": 1}, {"plan": True}, {"racks": 3}],
    )
    def test_any_input_changes_key(self, change):
        assert mix_cache_key(build_small_mix(**change)) != (
            mix_cache_key(build_small_mix())
        )

    def test_key_folds_in_cluster_code_version(self, monkeypatch):
        base = mix_cache_key(build_small_mix())
        monkeypatch.setattr(
            "repro.core.simcache._cluster_code_version", "feedfacefeedface"
        )
        assert mix_cache_key(build_small_mix()) != base

    def test_key_folds_in_mix_schema_version(self, monkeypatch):
        # The entry codec is versioned by MIX_SCHEMA_VERSION alone (it is
        # not one of the digested modules): a bump orphans every entry.
        base = mix_cache_key(build_small_mix())
        monkeypatch.setattr(
            "repro.core.simcache.MIX_SCHEMA_VERSION", MIX_SCHEMA_VERSION + 1
        )
        assert mix_cache_key(build_small_mix()) != base

    def test_last_bit_of_one_cpu_cost_changes_key(self):
        def nudge(maps):
            first = maps[0]
            cost = math.nextafter(first.cpu_seconds, math.inf)
            return (dataclasses.replace(first, cpu_seconds=cost),) + maps[1:]

        assert mix_cache_key(build_small_mix(tweak=nudge)) != (
            mix_cache_key(build_small_mix())
        )

    def test_placement_hint_order_changes_key(self):
        def hinted(*nodes):
            return lambda maps: (
                dataclasses.replace(maps[0], preferred_nodes=nodes),
            ) + maps[1:]

        forward = mix_cache_key(build_small_mix(tweak=hinted("slave1", "slave2")))
        backward = mix_cache_key(build_small_mix(tweak=hinted("slave2", "slave1")))
        assert forward != backward
        assert forward == mix_cache_key(
            build_small_mix(tweak=hinted("slave1", "slave2"))
        )

    def test_cluster_code_version_shape(self):
        version = cluster_code_version()
        assert len(version) == 16
        int(version, 16)  # hex digest prefix


class TestMixStore:
    def test_round_trip_bit_identical(self, tmp_path):
        multi = build_small_mix(plan=True)
        key = mix_cache_key(multi)
        outcome = multi.run()
        store_mix(key, outcome, tmp_path)
        loaded = load_mix(key, tmp_path)
        assert mix_outcome_payload(loaded) == mix_outcome_payload(outcome)

    def test_missing_key_is_none(self, tmp_path):
        assert load_mix("0" * 64, tmp_path) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        multi = build_small_mix()
        key = mix_cache_key(multi)
        store_mix(key, multi.run(), tmp_path)
        path = mix_entry_path(tmp_path, key)
        assert path.is_file()
        path.write_text("{not json", encoding="utf-8")
        assert load_mix(key, tmp_path) is None

    def test_wrong_shape_entry_is_a_miss(self, tmp_path):
        # Intact by magic, length and checksum, but not this codec's
        # header: what a codec edit without a MIX_SCHEMA_VERSION bump
        # would leave behind.
        multi = build_small_mix()
        key = mix_cache_key(multi)
        store_mix(key, multi.run(), tmp_path)
        path = mix_entry_path(tmp_path, key)
        path.write_bytes(sealed_mix_entry({"sections": [], "reports": 3}))
        assert load_mix(key, tmp_path) is None

    def test_clear_mix_counts_and_removes(self, tmp_path):
        for seed in (0, 1):
            multi = build_small_mix(seed=seed)
            store_mix(mix_cache_key(multi), multi.run(), tmp_path)
        assert clear_mix(tmp_path) == 2
        assert clear_mix(tmp_path) == 0


class TestMixCache:
    def test_hit_is_bit_identical_to_cold_run(self, tmp_path):
        cache = MixCache(tmp_path, enabled=True)
        cold = cache.run(build_small_mix(plan=True))
        warm = cache.run(build_small_mix(plan=True))
        assert mix_outcome_payload(cold) == mix_outcome_payload(warm)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_fast_cold_serves_reference_warm(self, tmp_path):
        cache = MixCache(tmp_path, enabled=True)
        cold = cache.run(build_small_mix("fast"))
        warm = cache.run(build_small_mix("reference"))
        assert mix_outcome_payload(cold) == mix_outcome_payload(warm)
        assert cache.hits == 1

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = MixCache(tmp_path, enabled=False)
        cache.run(build_small_mix())
        cache.run(build_small_mix())
        assert cache.hits == 0
        assert cache.misses == 2
        assert not (tmp_path / "mix").exists()

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_MIX_CACHE", raising=False)
        assert mix_cache_enabled()
        for off in ("0", "false", "off", "no", ""):
            monkeypatch.setenv("REPRO_MIX_CACHE", off)
            assert not mix_cache_enabled()
        monkeypatch.setenv("REPRO_MIX_CACHE", "1")
        assert mix_cache_enabled()

    def test_run_mix_integration(self, tmp_path):
        """run_mix(mix_cache=...) returns identical results warm and cold,
        and the fast and reference engines share entries."""
        from repro.cluster.scheduler import make_scheduler
        from repro.cluster.tenancy import generate_trace, run_mix

        trace = generate_trace(seed=3, num_jobs=4)
        cold_cache = MixCache(tmp_path, enabled=True)
        cold = run_mix(
            trace, make_scheduler("fifo"), engine="fast", mix_cache=cold_cache
        )
        warm_cache = MixCache(tmp_path, enabled=True)
        warm = run_mix(
            trace, make_scheduler("fifo"), engine="reference", mix_cache=warm_cache
        )
        assert (cold_cache.hits, cold_cache.misses) == (0, 1)
        assert (warm_cache.hits, warm_cache.misses) == (1, 0)
        assert mix_outcome_payload(cold.outcome) == (
            mix_outcome_payload(warm.outcome)
        )
        assert warm.to_dict() == cold.to_dict()


#: run_mix's default shared-cluster shape (every shadow has it too)
RUN_MIX_SHAPE = dict(
    num_slaves=4, map_slots=8, reduce_slots=4, block_size=256 * 1024, racks=1
)


def small_trace(seed=3, num_jobs=4):
    from repro.cluster.tenancy import generate_trace

    return generate_trace(seed=seed, num_jobs=num_jobs)


def trace_key(
    trace,
    scheduler=None,
    plan=None,
    observability="full",
    cls=None,
    **shape,
):
    """The key run_mix computes for *trace*, before any workload runs."""
    from repro.cluster.cluster import make_cluster
    from repro.cluster.scheduler import MultiJobCluster

    cluster = make_cluster(**{**RUN_MIX_SHAPE, **shape})
    multi = (cls or MultiJobCluster)(
        cluster, scheduler, plan=plan, observability=observability
    )
    return mix_cache_key(multi, trace=trace)


def replace_first_job(trace, **change):
    first, *rest = trace.jobs
    return dataclasses.replace(
        trace, jobs=(dataclasses.replace(first, **change), *rest)
    )


class TestTraceKey:
    #: every TraceJob field that reaches the outcome, nudged on job 0
    NUDGES = {
        "index": lambda job: job.index + 100,
        "workload": lambda job: "Sort" if job.workload != "Sort" else "Grep",
        "scale": lambda job: math.nextafter(job.scale, math.inf),
        "arrival_s": lambda job: math.nextafter(job.arrival_s, 0.0),
        "user": lambda job: job.user + "x",
        "pool": lambda job: job.pool + "x",
    }

    def test_run_mix_stores_under_this_key(self, tmp_path):
        from repro.cluster.scheduler import FifoScheduler
        from repro.cluster.tenancy import run_mix

        run_mix(small_trace(), FifoScheduler(), mix_cache=MixCache(tmp_path, True))
        key = trace_key(small_trace(), FifoScheduler())
        assert [p.name for p in (tmp_path / "mix").rglob("*.mix")] == [f"{key}.mix"]

    def test_equal_traces_built_twice_give_equal_keys(self):
        from repro.cluster.tenancy import WorkloadTrace

        trace = small_trace()
        assert trace_key(trace) == trace_key(small_trace())
        assert trace_key(trace) == trace_key(WorkloadTrace.from_json(trace.to_json()))

    @pytest.mark.parametrize("field", sorted(NUDGES))
    def test_each_trace_job_field_that_reaches_the_outcome_flips_it(self, field):
        trace = small_trace()
        nudged = replace_first_job(trace, **{field: self.NUDGES[field](trace.jobs[0])})
        assert trace_key(nudged) != trace_key(trace)

    def test_labels_that_never_reach_the_outcome_do_not(self):
        trace = small_trace()
        relabelled = replace_first_job(trace, size_class="huge")
        assert trace_key(relabelled) == trace_key(trace)
        reseeded = dataclasses.replace(trace, seed=99, arrival_rate_per_s=9.0)
        assert trace_key(reseeded) == trace_key(trace)

    def test_dropping_a_job_flips_it(self):
        trace = small_trace()
        assert trace_key(dataclasses.replace(trace, jobs=trace.jobs[:-1])) != (
            trace_key(trace)
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"num_slaves": 3},
            {"map_slots": 4},
            {"reduce_slots": 2},
            {"block_size": 128 * 1024},
            {"racks": 2},
        ],
    )
    def test_each_make_cluster_argument_flips_it(self, change):
        assert trace_key(small_trace(), **change) != trace_key(small_trace())

    def test_scheduler_config_flips_it(self):
        from repro.cluster.scheduler import FairScheduler, FifoScheduler, PoolConfig

        trace = small_trace()
        keys = {
            trace_key(trace, FifoScheduler()),
            trace_key(trace, FairScheduler()),
            trace_key(trace, FairScheduler(pools=[PoolConfig("interactive", 2.0)])),
            trace_key(trace, FairScheduler(preemption=False)),
        }
        assert len(keys) == 4

    def test_plan_and_observability_flip_it(self):
        from repro.cluster.faults import FaultPlan

        trace = small_trace()
        keys = {
            trace_key(trace),
            trace_key(trace, plan=FaultPlan(node_crashes=(("slave2", 0.5),))),
            trace_key(trace, observability="lean"),
        }
        assert len(keys) == 3

    def test_exec_and_cluster_digests_flip_it(self, monkeypatch):
        trace = small_trace()
        base = trace_key(trace)
        monkeypatch.setattr("repro.core.simcache._exec_code_version", "feedfacefeedface")
        after_exec = trace_key(trace)
        monkeypatch.setattr(
            "repro.core.simcache._cluster_code_version", "feedfacefeedface"
        )
        assert len({base, after_exec, trace_key(trace)}) == 3

    def test_exec_digest_is_folded_into_trace_keys_only(self, monkeypatch):
        base = mix_cache_key(build_small_mix())
        monkeypatch.setattr("repro.core.simcache._exec_code_version", "feedfacefeedface")
        assert mix_cache_key(build_small_mix()) == base

    def test_dispatch_engine_class_shares_it(self):
        from repro.perf.clusterpath import FastMultiJobCluster

        assert trace_key(small_trace(), cls=FastMultiJobCluster) == (
            trace_key(small_trace())
        )

    def test_exec_code_version_shape(self):
        version = exec_code_version()
        assert len(version) == 16
        int(version, 16)  # hex digest prefix

    def test_submission_and_trace_entries_never_serve_each_other(self, tmp_path):
        """The two domains of one mix: run_mix's trace entry and a
        ``MixCache.run`` entry for exactly the submissions run_mix makes.
        Same outcome, and still neither is ever a hit for the other."""
        from repro.cluster.cluster import make_cluster
        from repro.cluster.scheduler import FifoScheduler, MultiJobCluster
        from repro.cluster.tenancy import _solo_runs, run_mix

        trace = small_trace()
        solo = _solo_runs(trace, RUN_MIX_SHAPE)

        def submitted():
            multi = MultiJobCluster(make_cluster(**RUN_MIX_SHAPE), FifoScheduler())
            for tjob in trace.jobs:
                multi.submit_chain(
                    solo[tjob.workload, tjob.scale][2],
                    arrival_s=tjob.arrival_s,
                    user=tjob.user,
                    pool=tjob.pool,
                    id_prefix=f"t{tjob.index:03d}",
                )
            return multi

        traced = MixCache(tmp_path / "trace-first", enabled=True)
        mix = run_mix(trace, FifoScheduler(), mix_cache=traced)
        outcome = traced.run(submitted())
        assert (traced.hits, traced.misses) == (0, 2)
        assert mix_outcome_payload(outcome) == mix_outcome_payload(mix.outcome)

        dispatched = MixCache(tmp_path / "submissions-first", enabled=True)
        dispatched.run(submitted())
        run_mix(trace, FifoScheduler(), mix_cache=dispatched)
        assert (dispatched.hits, dispatched.misses) == (0, 2)


class TestUnwritableRoot:
    """A cache whose root cannot hold entries — here a regular file, which
    even root cannot write beneath — still returns every computed result,
    counts each call as a miss, and warns once per handle."""

    @pytest.fixture()
    def root(self, tmp_path):
        path = tmp_path / "not-a-directory"
        path.write_text("", encoding="utf-8")
        return path

    def test_mix_cache_run(self, root):
        expected = mix_outcome_payload(build_small_mix().run())
        cache = MixCache(root, enabled=True)
        with pytest.warns(RuntimeWarning, match="cannot write") as warned:
            for _ in range(2):
                assert mix_outcome_payload(cache.run(build_small_mix())) == expected
        assert len(warned) == 1
        assert (cache.hits, cache.misses) == (0, 2)

    def test_run_mix(self, root):
        from repro.cluster.scheduler import FifoScheduler
        from repro.cluster.tenancy import run_mix

        expected = run_mix(small_trace(), FifoScheduler()).to_dict()
        cache = MixCache(root, enabled=True)
        with pytest.warns(RuntimeWarning, match="cannot write") as warned:
            for _ in range(2):
                mix = run_mix(small_trace(), FifoScheduler(), mix_cache=cache)
                assert mix.to_dict() == expected
        assert len(warned) == 1
        assert (cache.hits, cache.misses) == (0, 2)

    def test_sim_cache_simulate(self, root, spec):
        expected = dataclasses.asdict(Core(SCALED).run(SyntheticTrace(spec)))
        cache = SimCache(root, enabled=True)
        with pytest.warns(RuntimeWarning, match="cannot write") as warned:
            for _ in range(2):
                result = cache.simulate(spec, SCALED, engine="reference")
                assert dataclasses.asdict(result) == expected
        assert len(warned) == 1
        assert (cache.hits, cache.misses) == (0, 2)


class TestParallelSuite:
    def test_resolve_workers(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(3, 2) == 2  # capped at job count
        auto = resolve_workers("auto", 8)
        assert 1 <= auto <= min(8, os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_workers(0, 10)
        with pytest.raises(ValueError):
            resolve_workers("many", 10)

    def test_workers_match_serial(self):
        """workers=4 returns the bit-identical, same-order result list."""
        sub = DCBench.data_analysis_only()
        serial = characterize_suite(sub, instructions=5_000, workers=1)
        parallel = characterize_suite(sub, instructions=5_000, workers=4)
        assert [c.name for c in parallel] == [e.name for e in sub]
        for a, b in zip(serial, parallel):
            assert a.name == b.name
            assert a.metrics == b.metrics
            assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)

    def test_workers_with_shared_cache(self, tmp_path):
        """Parallel workers populate one cache; a serial rerun hits it."""
        sub = DCBench.data_analysis_only()
        cold_cache = SimCache(tmp_path, enabled=True)
        cold = characterize_suite(
            sub, instructions=5_000, workers=2, cache=cold_cache
        )
        warm_cache = SimCache(tmp_path, enabled=True)
        warm = characterize_suite(
            sub, instructions=5_000, workers=1, cache=warm_cache
        )
        assert warm_cache.hits == len(sub)
        for a, b in zip(cold, warm):
            assert dataclasses.asdict(a.result) == dataclasses.asdict(b.result)
