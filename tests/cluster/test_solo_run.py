"""``tenancy.solo_run``: one healthy run of a workload on a fresh cluster.

Figure 2 (each workload alone on 1/4/8 slaves) and every mix's slowdown
denominator rest on this one operation.  Its three callers —
``run_mix``, the workflow DAG builders and ``speedup_study`` — each keep
their own memo scope around it, so this file pins three things:

* **what** each caller computes, as digests recorded before the callers
  shared one function (the per-caller copies they replaced computed
  exactly these);
* **how long** each caller remembers a shadow (per ``run_mix`` call,
  or not at all);
* that ``repro.cluster`` stays importable without the workload,
  MapReduce and Hive layers, which ``solo_run`` reaches only at call
  time.

Re-pin only when a change moves an execution on purpose: the digests
are the same canonical forms as ``tests/mapreduce/golden.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.cluster.tenancy as tenancy_mod
from repro.analysis.speedup import speedup_study
from repro.cluster.cluster import make_cluster
from repro.cluster.scheduler import FifoScheduler
from repro.cluster.tenancy import (
    TraceJob,
    WorkloadTrace,
    generate_trace,
    run_mix,
    solo_run,
)
from repro.cluster.workflow import WORKFLOW_DAGS
from repro.mapreduce.engine import LocalEngine
from repro.mapreduce.job import JobConf, MapReduceJob
from repro.workloads import datagen, workload
from repro.workloads.base import DataAnalysisWorkload, WorkloadInfo
from tests.mapreduce.golden import _sha256, canonical, canonical_work

#: run_mix's default shared-cluster shape (every shadow has it too)
RUN_MIX_SHAPE = dict(
    num_slaves=4, map_slots=8, reduce_slots=4, block_size=256 * 1024, racks=1
)


def _count_words(_doc_id, text):
    for word in text.split():
        yield word, 1


def _sum(key, counts):
    yield key, sum(counts)


def _by_count(_word, count):
    yield count, 1


class TermFrequencies(DataAnalysisWorkload):
    """A two-stage workload outside the Table I registry: word counts,
    then how many words share each count."""

    info = WorkloadInfo(
        name="TermFrequencies",
        input_description="synthetic documents",
        input_gb_low=1,
        retired_instructions_1e9=1,
        source="test",
    )

    def run(self, scale=1.0, cluster=None, engine=None):
        engine = engine or LocalEngine()
        docs = datagen.generate_documents(max(2, int(400 * scale)), seed=71)
        counts = engine.execute(
            MapReduceJob(_count_words, _sum, JobConf("tf-count", num_reduces=4),
                         combiner=_sum),
            docs, cluster=cluster, input_name="tf-docs",
        )
        histogram = engine.execute(
            MapReduceJob(_by_count, _sum, JobConf("tf-histogram", num_reduces=2),
                         combiner=_sum),
            counts.output, cluster=cluster, input_name="tf-counts",
        )
        return self._merge_results(
            self.info.name, [counts, histogram], dict(histogram.output)
        )

    def uarch_profile(self):
        return {}


def distinct_pairs(trace) -> list[tuple[str, float]]:
    return list(dict.fromkeys((job.workload, job.scale) for job in trace.jobs))


# -- pins recorded before the callers shared solo_run --------------------------

#: sha256(canonical(speedup_study([Sort, K-means, SVM], (1, 4, 8),
#: scale=0.5).durations))
SPEEDUP_DURATIONS = "de8ac13db8347585ea4cc6b30171555ff6b6421eaeb559dcbf3f77734a15b75b"

#: each registry DAG at its builder defaults: (stages without payloads,
#: the repr of every stage payload)
WORKFLOW_STAGES = {
    "hive-chain": (
        "441a39fd167f54354a0499f70c00ea11d83e3c878d8292e7408e5d907dc94728",
        "2a53d25c6faf39d36c72ed47a20665a0a0830d1b1f046a412a49c73590649c0e",
    ),
    "kmeans": (
        "e7cb6a8c1e45b47dd1b6c79c57e42c9fd400734e72b73fc939c3e2c77a97a5fe",
        "be7f49630f2285541fd2eb7e993b32debce6ce9686cf115fcd640ce261caac30",
    ),
    "pagerank": (
        "5656d353e4ef692cc2c78dd6b36fc38ae5bb50591573c1a0fca7619ab8f7dcce",
        "a5a53dc9e9355d4bd1c53dae408421834a6329e8d4226e5ff84d3cb612e141cc",
    ),
    "diamond": (
        "1125a5b219c413a08192ac1e79614fcef211ae1ffacc7411cb50f12ff24c2125",
        "97fef1f63004c4240269203981e8be708c60fa7c081a37622aa962e650daacb9",
    ),
}

#: every distinct shadow of generate_trace(seed=3, num_jobs=4) on
#: RUN_MIX_SHAPE, in first-occurrence order:
#: [workload, scale, duration hex, canonical works, canonical output]
RUN_MIX_SHADOWS = "39a630a1246a4642ed538e034921e12a82d83dfb3f30c56458da90ab10ac0a41"


class TestPins:
    def test_speedup_study_durations(self):
        studied = [workload(name) for name in ("Sort", "K-means", "SVM")]
        result = speedup_study(studied, slave_counts=(1, 4, 8), scale=0.5)
        assert _sha256(canonical(result.durations)) == SPEEDUP_DURATIONS

    @pytest.mark.parametrize("dag", sorted(WORKFLOW_STAGES))
    def test_workflow_builder_stages(self, dag):
        stages = list(WORKFLOW_DAGS[dag]().stages.values())
        structure = [
            [
                s.name,
                list(s.deps),
                s.output,
                s.output_bytes,
                canonical_work(s.work),
                repr(s.policy),
                s.user,
                s.pool,
            ]
            for s in stages
        ]
        payloads = [repr(s.payload) for s in stages]
        want_structure, want_payloads = WORKFLOW_STAGES[dag]
        assert _sha256(structure) == want_structure
        if dag == "pagerank" and sys.version_info >= (3, 12):
            # CPython >= 3.12's compensated float sum() moves PageRank's
            # last bits (see test_execution_golden.py), so the payload is
            # checked against the run it is the output of instead.
            run = workload("PageRank").run(
                scale=0.05, cluster=make_cluster(num_slaves=4, block_size=256 * 1024)
            )
            assert payloads == [repr(None)] * (len(stages) - 1) + [repr(run.output)]
        else:
            assert _sha256(payloads) == want_payloads

    def test_run_mix_shadows(self):
        trace = generate_trace(seed=3, num_jobs=4)
        rows = []
        for name, scale in distinct_pairs(trace):
            duration_s, works, output = solo_run(name, scale, **RUN_MIX_SHAPE)
            rows.append(
                [
                    name,
                    scale,
                    duration_s.hex(),
                    [canonical_work(work) for work in works],
                    canonical(output),
                ]
            )
        assert _sha256(rows) == RUN_MIX_SHADOWS


# -- the function itself -------------------------------------------------------


class TestSoloRun:
    def test_matches_a_direct_run(self):
        shape = dict(num_slaves=2, map_slots=4, reduce_slots=2, block_size=64 * 1024)
        run = workload("Grep").run(scale=0.05, cluster=make_cluster(**shape))
        duration_s, works, output = solo_run("Grep", 0.05, **shape)
        assert duration_s == run.duration_s
        assert [canonical_work(w) for w in works] == [
            canonical_work(r.work) for r in run.job_results
        ]
        assert output == run.output

    def test_accepts_an_unregistered_workload_object(self):
        run = TermFrequencies().run(scale=0.05, cluster=make_cluster(num_slaves=2))
        duration_s, works, output = solo_run(TermFrequencies(), 0.05, num_slaves=2)
        assert len(works) == 2
        assert (duration_s, len(works), output) == (
            run.duration_s,
            len(run.job_results),
            run.output,
        )

    def test_looks_up_its_collaborators_at_call_time(self, monkeypatch):
        """Profilers patch ``tenancy.make_cluster`` and
        ``workloads.base.workload`` by name; every shadow must go
        through both patched symbols."""
        import repro.workloads.base as base_mod

        calls = []
        real_make, real_workload = tenancy_mod.make_cluster, base_mod.workload

        def counted_make(**shape):
            calls.append("make_cluster")
            return real_make(**shape)

        def counted_workload(name):
            calls.append("workload")
            return real_workload(name)

        monkeypatch.setattr(tenancy_mod, "make_cluster", counted_make)
        monkeypatch.setattr(base_mod, "workload", counted_workload)
        solo_run("Grep", 0.05, num_slaves=2)
        assert calls == ["workload", "make_cluster"]


# -- each caller's memo scope --------------------------------------------------


@pytest.fixture
def shadow_calls(monkeypatch):
    """Every ``solo_run`` call from any caller, as ``(name, scale, shape)``."""
    calls = []

    def counted(name, scale, **shape):
        calls.append((name if isinstance(name, str) else name.info.name, scale, shape))
        return real(name, scale, **shape)

    real = tenancy_mod.solo_run
    monkeypatch.setattr(tenancy_mod, "solo_run", counted)
    import repro.analysis.speedup as speedup_mod
    import repro.cluster.workflow as workflow_mod

    monkeypatch.setattr(speedup_mod, "solo_run", counted)
    monkeypatch.setattr(workflow_mod, "solo_run", counted)
    return calls


class TestMemoScopes:
    def test_run_mix_runs_each_distinct_pair_once_per_call(self, shadow_calls):
        trace = generate_trace(seed=3, num_jobs=4)
        pairs = distinct_pairs(trace)
        first = run_mix(trace, FifoScheduler())
        assert [(n, s) for n, s, _ in shadow_calls] == pairs
        assert all(shape == RUN_MIX_SHAPE for _, _, shape in shadow_calls)
        # a second call shares nothing with the first
        second = run_mix(trace, FifoScheduler())
        assert [(n, s) for n, s, _ in shadow_calls] == pairs + pairs
        assert repr(first.outputs) == repr(second.outputs)

    def test_run_mix_dedupes_repeated_jobs(self, shadow_calls):
        jobs = tuple(
            TraceJob(i, "Grep", 0.05, 0.1 * i, "ada", "interactive", "small")
            for i in range(3)
        )
        trace = WorkloadTrace(jobs, seed=0, arrival_rate_per_s=0.0)
        result = run_mix(trace, FifoScheduler(), num_slaves=2)
        assert [(n, s) for n, s, _ in shadow_calls] == [("Grep", 0.05)]
        assert len({repr(out) for out in result.outputs.values()}) == 1

    def test_warm_hit_reruns_shadows_only_when_outputs_are_read(
        self, shadow_calls, tmp_path
    ):
        from repro.core.simcache import MixCache

        trace = generate_trace(seed=3, num_jobs=4)
        cold = run_mix(trace, FifoScheduler(), mix_cache=MixCache(tmp_path, enabled=True))
        del shadow_calls[:]
        warm = run_mix(trace, FifoScheduler(), mix_cache=MixCache(tmp_path, enabled=True))
        assert shadow_calls == []
        assert repr(warm.outputs) == repr(cold.outputs)
        assert [(n, s) for n, s, _ in shadow_calls] == distinct_pairs(trace)

    def test_builders_and_speedup_keep_no_memo(self, shadow_calls):
        WORKFLOW_DAGS["diamond"]()
        WORKFLOW_DAGS["diamond"]()
        assert len(shadow_calls) == 2
        speedup_study([workload("Grep")], slave_counts=(1, 2), scale=0.05)
        speedup_study([workload("Grep")], slave_counts=(1, 2), scale=0.05)
        assert len(shadow_calls) == 6


# -- import isolation ----------------------------------------------------------


@pytest.mark.parametrize("module", ["repro.cluster", "repro.cluster.tenancy"])
def test_cluster_import_loads_no_execution_layer(module):
    """Importing the cluster package must not pull in the workload,
    MapReduce or Hive layers: ``solo_run`` imports them when it runs,
    not when ``repro.cluster`` loads."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.workloads', 'repro.mapreduce', 'repro.hive'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
