"""The mix path runs with the cyclic collector paused.

``MultiJobCluster.run``, ``mix_cache_key``, ``load_mix`` and ``store_mix``
build tens of thousands of containers each on a data-centre trace, and
CPython collects by allocation count, so with the collector on they
re-walk what they keep building.  :func:`repro._gc.nogc` pauses it around
exactly those four.  These tests pin the decorator's contract, that each
of the four really runs paused, the premise that makes pausing safe (the
paused phases leave no cyclic garbage behind), and the deferred dispatch
state that keeps ``submit`` from allocating containers at all.
"""

from __future__ import annotations

import gc
import inspect

import pytest

from repro._gc import nogc
from repro.cluster.scheduler import FifoScheduler, MultiJobCluster, ScheduledJob
from repro.core import simcache
from repro.core.simcache import MixCache
from repro.perf.clusterpath import FastMultiJobCluster
from tests.cluster.test_clusterpath import build_mix
from tests.cluster.test_scheduler import small_cluster, synthetic_job

DISPATCH_STATE = (
    "pending", "map_starts", "map_ends", "map_nodes", "attempts", "disk_writes"
)


@pytest.fixture
def collector_on():
    """Run the test with the collector on, and leave it as found."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def small_mix(cls=MultiJobCluster, scheduler=None, jobs=4):
    multi = cls(small_cluster(), scheduler=scheduler)
    previous = None
    for i in range(jobs):
        # every other job chains on the one before it
        previous = multi.submit(
            synthetic_job(f"j{i}"), arrival_s=0.1 * i, after=previous if i % 2 else None
        )
    return multi


# -- the decorator -------------------------------------------------------------


class TestNogc:
    def test_restores_the_collector_as_found(self, collector_on):
        seen = []
        probe = nogc(lambda: seen.append(gc.isenabled()))
        probe()
        assert gc.isenabled()
        gc.disable()
        try:
            probe()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False]

    def test_nests(self, collector_on):
        seen = []
        inner = nogc(lambda: seen.append(gc.isenabled()))

        @nogc
        def outer():
            inner()
            seen.append(gc.isenabled())  # the inner call did not re-enable

        outer()
        assert seen == [False, False]
        assert gc.isenabled()

    def test_reenables_after_an_exception(self, collector_on):
        @nogc
        def fails():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            fails()
        assert gc.isenabled()

    def test_keeps_the_wrapped_identity(self):
        def payload(x, *, y=2):
            """Doc."""
            return x + y

        wrapped = nogc(payload)
        assert wrapped(1, y=3) == 4
        assert wrapped.__name__ == "payload"
        assert wrapped.__doc__ == "Doc."
        assert wrapped.__wrapped__ is payload

    def test_refuses_a_generator_function(self):
        def gen():
            yield 1

        with pytest.raises(TypeError):
            nogc(gen)

    @pytest.mark.parametrize(
        "owner,attr",
        [
            (MultiJobCluster, "run"),
            (simcache, "mix_cache_key"),
            (simcache, "load_mix"),
            (simcache, "store_mix"),
        ],
    )
    def test_the_four_paused_functions_keep_their_names(self, owner, attr):
        """The benchmark's tracer patches these by dotted name and reads
        their spans by it."""
        fn = inspect.getattr_static(owner, attr)
        assert fn.__name__ == attr
        assert fn.__wrapped__.__name__ == attr
        assert not inspect.isgeneratorfunction(fn.__wrapped__)


# -- each paused function runs with the collector off --------------------------


class TestPausedPhases:
    def test_dispatch_runs_paused(self, collector_on):
        seen = []

        class Probe(FifoScheduler):
            def pick_job(self, now, runnable, state):
                seen.append(gc.isenabled())
                return super().pick_job(now, runnable, state)

        for cls in (MultiJobCluster, FastMultiJobCluster):
            seen.clear()
            small_mix(cls, Probe()).run()
            assert seen and not any(seen), cls.__name__
            assert gc.isenabled()

    def test_key_store_and_load_run_paused(self, collector_on, tmp_path, monkeypatch):
        seen = {}

        def probe(name, fn):
            def probed(*args, **kwargs):
                seen.setdefault(name, []).append(gc.isenabled())
                return fn(*args, **kwargs)

            monkeypatch.setattr(simcache, fn.__name__, probed)

        probe("key", simcache._cluster_fingerprint)
        probe("store", simcache._encode_mix)
        probe("load", simcache._decode_mix)
        cold = MixCache(tmp_path, enabled=True).run(small_mix())
        assert gc.isenabled()
        warm = MixCache(tmp_path, enabled=True)
        assert simcache.mix_outcome_payload(warm.run(small_mix())) == (
            simcache.mix_outcome_payload(cold)
        )
        assert warm.hits == 1
        assert gc.isenabled()
        assert seen == {"key": [False, False], "store": [False], "load": [False]}


# -- the premise: the paused phases leave no cyclic garbage --------------------


#: the dispatch-policy regimes: fair with preemption, capacity chains on
#: racks, crashes and partitions with speculation
POLICY_CASES = {
    "fair": (11, "fair", 1, None, "full"),
    "capacity": (17, "capacity", 3, None, "full"),
    "faults": (19, "fifo", 1, "faults", "full"),
}


@pytest.mark.parametrize("cls", [MultiJobCluster, FastMultiJobCluster])
@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_miss_and_hit_leave_no_cyclic_garbage(case, cls, tmp_path, collector_on):
    """Pausing the collector is free only if nothing it would have found
    piles up meanwhile.  If a later change makes dispatch, key, store or
    load build reference cycles, this fails instead of peak memory
    silently growing."""
    for kind in ("miss", "hit"):
        _cluster, multi = build_mix(cls, *POLICY_CASES[case])
        cache = MixCache(tmp_path, enabled=True)
        gc.collect()
        gc.disable()
        try:
            outcome = cache.run(multi)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert (cache.misses, cache.hits) == ((1, 0) if kind == "miss" else (0, 1))
        assert garbage == 0, f"{kind}: {garbage} unreachable objects"
        assert outcome.reports and multi.jobs  # both stayed alive


# -- dispatch state exists only while a mix runs -------------------------------


class TestDeferredDispatchState:
    def test_a_submitted_job_owns_no_container(self):
        multi = small_mix()
        for job in multi.jobs:
            for name in DISPATCH_STATE:
                assert getattr(job, name) == (), name
                assert getattr(job, name) is getattr(ScheduledJob, name), name
            assert not job.pending

    def test_a_job_built_directly_has_no_pending_work(self):
        job = ScheduledJob("j", synthetic_job("w"), 0.0)
        assert not job.pending and len(job.map_ends) == 0

    @pytest.mark.parametrize("cls", [MultiJobCluster, FastMultiJobCluster])
    def test_run_gives_every_job_its_own(self, cls):
        multi = small_mix(cls, jobs=6)
        multi.run()
        containers = [
            getattr(job, name) for job in multi.jobs for name in DISPATCH_STATE
        ]
        assert not any(isinstance(c, tuple) for c in containers)
        assert len({id(c) for c in containers}) == len(containers)
        assert all(len(job.map_ends) == 2 and not job.pending for job in multi.jobs)
