"""The four benchmark workloads.

Each workload builds its inputs in ``setup`` (timed as ``setup_s`` in
fresh interpreters), runs whole *passes* of user-visible ops in
``measure`` (a cold op, then the same op served warm from the
persistent cache), checks outputs in ``verify`` and turns the samples
into metrics.  End-to-end ops call only defaults of the public API, the
way the CLI does; per-layer numbers come from a traced pass whose spans
:mod:`harness` records from outside the program.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import shutil
from contextlib import nullcontext
from pathlib import Path
from statistics import geometric_mean, median

import inputs
from harness import BENCH_DIR, Run, Tracer, digest, tree_bytes

MB = 1e6


class Workload:
    """Shared shape; subclasses fill in the ops."""

    name = ""
    #: host seconds one pass took on the 2-core box the sizes were pinned
    #: on; only used to turn ``--seconds`` into a whole number of passes.
    nominal_pass_s = 1.0
    #: unit of ``work_per_s``
    work_unit = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cache_bytes = 0

    def passes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def setup(self) -> None:
        raise NotImplementedError

    def install_probes(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def measure(self, run: Run, passes: int) -> None:
        raise NotImplementedError

    def verify(self, run: Run) -> None:
        raise NotImplementedError

    def work_per_s(self, run: Run) -> float:
        raise NotImplementedError

    def per_layer(self, run: Run, tracer: Tracer) -> dict[str, float]:
        raise NotImplementedError

    def op_p50_s(self, run: Run, kind: str, raw: bool = False) -> float:
        """Median latency of the *kind* ("cold" or "warm") ops."""
        return median(run.samples_of(kind, raw))

    def end_to_end(self, run: Run) -> dict[str, float]:
        return {
            "op_p50_s": self.op_p50_s(run, "cold"),
            "warm_op_p50_s": self.op_p50_s(run, "warm"),
            "work_per_s": self.work_per_s(run),
            "cache_entry_mb": self.cache_bytes / MB,
        }


def _layer(layers: dict, name: str, field: str) -> float:
    return float(layers.get(name, {}).get(field, 0.0))


# -- uarch-suite ----------------------------------------------------------------


class UarchSuite(Workload):
    name = "uarch-suite"
    nominal_pass_s = 22.0
    work_unit = "uops"

    #: SimCache hits timed after each cold op (26 x 8 = 208 per pass)
    WARM_PER_COLD = 8

    def setup(self) -> None:
        from repro.core import DCBench

        self.suite = DCBench.default()
        self.entries = list(self.suite)
        self.cseed = inputs.characterize_seed(self.seed)
        self.reference = json.loads(
            (BENCH_DIR / "paper_reference.json").read_text(encoding="utf-8")
        )

    def install_probes(self, tracer: Tracer) -> None:
        tracer.patch("repro.core.suite:SuiteEntry.trace_spec", "workloads.trace_spec")
        tracer.patch("repro.uarch.trace:TraceSpec.scaled", "workloads.trace_spec")
        tracer.patch("repro.perf.fastpath:run_fast", "perf.fastpath")
        tracer.patch(
            "repro.uarch.trace:SyntheticTrace.iter_batches", "uarch.trace", kind="generator"
        )
        tracer.patch("repro.uarch.pipeline:Core.run", "uarch.pipeline")
        tracer.patch("repro.core.metrics:Metrics.from_result", "core.metrics")
        tracer.patch("repro.perf.session:PerfSession.measure_result", "perf.session")
        tracer.patch("repro.core.simcache:sim_cache_key", "core.simcache.sim_key")
        tracer.patch("repro.core.simcache:load_result", "core.simcache.sim_load")
        tracer.patch("repro.core.simcache:store_result", "core.simcache.sim_store")

    def measure(self, run: Run, passes: int) -> None:
        from repro.analysis import evaluate_findings
        from repro.core import characterize
        from repro.core.simcache import SimCache

        # The reference-engine cross-check runs first, through an empty
        # SimCache, so it is also the cold fill the warm ops are served
        # from (the engine is not part of the key: engines are
        # bit-identical by contract, and verify() checks it).
        root = self.scratch / "sim"
        self.cache = SimCache(root, enabled=True)
        self.reference_runs = {}
        fill = {"engine": "reference"}
        for name in inputs.VERIFY_ENTRIES:
            with run.untimed("verify.reference", "reference"):
                try:
                    self.reference_runs[name] = characterize(
                        self.suite.entry(name), seed=self.cseed, cache=self.cache, **fill
                    )
                except (TypeError, ValueError):
                    # ROADMAP item 2 may retire the engine switch; the warm
                    # ops must not go with it, so fill with the default.
                    fill = {}
                    run.info["reference_engine"] = "absent: cross-check skipped"
                    characterize(self.suite.entry(name), seed=self.cseed, cache=self.cache)
        self.cache_bytes = tree_bytes(root)

        # Warm ops take under a millisecond, less than one host-speed
        # probe: they are interleaved with the cold ops, so that their
        # median spans the whole run and each is scaled by the probes
        # that follow the cold op before it.
        warm_names = itertools.cycle(inputs.VERIFY_ENTRIES)
        self.pass_s: list[float] = []
        self.chars = []
        self.warm_runs = []
        for _ in range(passes):
            before = sum(run.samples_of("cold"))
            self.chars = []
            for entry in self.entries:
                self.chars.append(
                    run.timed(
                        "cold", "core.characterize",
                        lambda: characterize(entry, seed=self.cseed),
                    )
                )
                for name in itertools.islice(warm_names, self.WARM_PER_COLD):
                    warm = run.timed(
                        "warm", "core.characterize",
                        lambda: characterize(
                            self.suite.entry(name), seed=self.cseed, cache=self.cache
                        ),
                        probed=False,
                    )
                    self.warm_runs.append((name, warm))
            self.pass_s.append(sum(run.samples_of("cold")) - before)
        if None not in self.chars:
            with run.untimed("analysis.summary", "analysis"):
                self.findings = evaluate_findings(self.chars)

    def verify(self, run: Run) -> None:
        if None in self.chars:
            return
        cold = {c.name: dataclasses.asdict(c.result) for c in self.chars}
        for name, ref in self.reference_runs.items():
            run.check(
                f"reference Core.run == default engine on {name}",
                dataclasses.asdict(ref.result) == cold[name],
            )
        warm_ok = all(
            warm is not None and dataclasses.asdict(warm.result) == cold[name]
            for name, warm in self.warm_runs
        )
        run.check("every warm characterize result == its cold result", warm_ok)
        expect = (len(self.warm_runs), len(inputs.VERIFY_ENTRIES))
        run.check(
            "SimCache served every warm op",
            (self.cache.hits, self.cache.misses) == expect,
            f"hits/misses {self.cache.hits}/{self.cache.misses}, want {expect}",
        )
        held = self.findings_held()
        run.check("all five paper findings hold", held == 5, f"({held} of 5)")
        run.info["paper_findings_held"] = held
        run.info["paper_err_mean"] = self.paper_err_mean()
        run.info["sim_digest"] = digest([cold[e.name] for e in self.entries])

    def findings_held(self) -> int:
        f = self.findings
        return sum(
            (
                f.ipc_ordering,
                f.stall_split,
                f.frontend_pressure,
                f.cache_effectiveness,
                f.branch_prediction,
            )
        )

    def paper_err_mean(self) -> float:
        """Mean absolute relative error against PAPER.md's stated scalars."""
        f = self.findings
        da = [c.metrics for c in self.chars if c.group == "data-analysis"]
        sort = next(c.metrics for c in self.chars if c.name == "Sort")
        simulated = {
            "da_mean_ipc": f.da_avg_ipc,
            "da_mean_l1i_mpki": f.da_avg_l1i_mpki,
            "da_mean_l2_mpki": f.da_avg_l2_mpki,
            "service_mean_l2_mpki": f.service_avg_l2_mpki,
            "da_l3_capture": f.da_avg_l3_hit_ratio,
            "service_l3_capture": f.service_avg_l3_hit_ratio,
            "da_mean_kernel_share": sum(m.kernel_instruction_fraction for m in da) / len(da),
            "sort_kernel_share": sort.kernel_instruction_fraction,
        }
        errors = [
            abs(simulated[row["key"]] - row["value"]) / row["value"]
            for row in self.reference["scalars"]
        ]
        return sum(errors) / len(errors)

    def work_per_s(self, run: Run) -> float:
        return inputs.UOPS_PER_ENTRY * len(self.entries) / median(self.pass_s)

    def per_layer(self, run: Run, tracer: Tracer) -> dict[str, float]:
        cold = tracer.layers(run.ops_of("cold"))
        reference = tracer.layers(run.ops_of("reference"))
        analysis = tracer.layers(run.ops_of("analysis"))
        uops = inputs.UOPS_PER_ENTRY * len(run.samples_of("cold"))
        reference_uops = inputs.UOPS_PER_ENTRY * max(1, len(self.reference_runs))
        trace_busy = _layer(cold, "uarch.trace", "busy_s")
        fast_self = _layer(cold, "perf.fastpath", "self_s")
        out = {
            "core.characterize.calls": _layer(cold, "core.characterize", "calls"),
            "core.characterize.busy_s": _layer(cold, "core.characterize", "busy_s"),
            "core.characterize.self_s": _layer(cold, "core.characterize", "self_s"),
            "workloads.trace_spec.busy_s": _layer(cold, "workloads.trace_spec", "busy_s"),
            "uarch.trace.busy_s": trace_busy,
            "uarch.trace.uops": uops,
            "uarch.trace.ns_per_uop": 1e9 * trace_busy / uops,
            "perf.fastpath.busy_s": _layer(cold, "perf.fastpath", "busy_s"),
            "perf.fastpath.self_s": fast_self,
            "perf.fastpath.ns_per_uop": 1e9 * fast_self / uops,
            "uarch.pipeline.busy_s": _layer(reference, "uarch.pipeline", "busy_s"),
            "uarch.pipeline.ns_per_uop": (
                1e9 * _layer(reference, "uarch.pipeline", "busy_s") / reference_uops
            ),
            "core.metrics.busy_s": _layer(cold, "core.metrics", "busy_s"),
            "perf.session.busy_s": _layer(cold, "perf.session", "busy_s"),
            "core.simcache.sim_key_s": _layer(reference, "core.simcache.sim_key", "busy_s"),
            "core.simcache.sim_store_s": _layer(reference, "core.simcache.sim_store", "busy_s"),
            "core.simcache.sim_hit_ms": 1e3 * median(run.samples_of("warm")),
            "core.simcache.sim_hits": self.cache.hits,
            "core.simcache.sim_misses": self.cache.misses,
            "core.simcache.sim_entry_bytes": self.cache_bytes,
            "analysis.summary.busy_s": _layer(analysis, "analysis.summary", "busy_s"),
            "analysis.paper_findings_held": self.findings_held(),
            "analysis.paper_err_mean": self.paper_err_mean(),
        }
        # Modelled components, summed over the suite (simulated, exact).
        results = [c.result for c in self.chars]
        for metric, field in (
            ("uarch.pipeline.cycles", "cycles"),
            ("uarch.pipeline.instructions", "instructions"),
            ("uarch.caches.l1i_misses", "l1i_misses"),
            ("uarch.caches.l1d_misses", "l1d_misses"),
            ("uarch.caches.l2_misses", "l2_misses"),
            ("uarch.caches.l3_misses", "l3_misses"),
            ("uarch.tlb.itlb_walks", "itlb_walks"),
            ("uarch.tlb.dtlb_walks", "dtlb_walks"),
            ("uarch.branch.mispredictions", "branch_mispredictions"),
            ("uarch.pipeline.stall_cycles.fetch", "fetch_stall_cycles"),
            ("uarch.pipeline.stall_cycles.rat", "rat_stall_cycles"),
            ("uarch.pipeline.stall_cycles.load", "load_stall_cycles"),
            ("uarch.pipeline.stall_cycles.rs_full", "rs_full_stall_cycles"),
            ("uarch.pipeline.stall_cycles.store", "store_stall_cycles"),
            ("uarch.pipeline.stall_cycles.rob_full", "rob_full_stall_cycles"),
        ):
            out[metric] = sum(getattr(result, field) for result in results)
        out["trace.op_p50_s"] = self.op_p50_s(run, "cold")
        # characterize() is itself the op: what its callees do not cover
        # is its own glue, reported under both names.
        out["trace.unattributed_s"] = out["core.characterize.self_s"]
        return out


# -- mix-replay -----------------------------------------------------------------


class MixReplay(Workload):
    name = "mix-replay"
    nominal_pass_s = 8.0
    work_unit = "jobs"

    def setup(self) -> None:
        self.trace = inputs.mix_trace(self.seed)

    def install_probes(self, tracer: Tracer) -> None:
        tracer.patch("repro.cluster.tenancy:make_cluster", "cluster.cluster.make_cluster")
        tracer.patch(
            "repro.workloads.base:workload", "workloads.run", kind="factory", method="run"
        )
        import repro.workloads.datagen as datagen

        for attr in sorted(vars(datagen)):
            if attr.startswith("generate_"):
                tracer.patch(f"repro.workloads.datagen:{attr}", "workloads.datagen")
        tracer.patch("repro.mapreduce.engine:LocalEngine.execute", "mapreduce.engine")
        tracer.patch("repro.hive.engine:HiveSession.execute", "hive.engine")
        tracer.patch("repro.cluster.cluster:HadoopCluster.run_job", "cluster.cluster.run_job")
        _patch_mix_cache(tracer)

    def _run_mix(self, root: Path):
        from repro.cluster import FairScheduler
        from repro.cluster.tenancy import default_pools, run_mix
        from repro.core.simcache import MixCache

        cache = MixCache(root, enabled=True)
        result = run_mix(
            self.trace,
            scheduler=FairScheduler(pools=default_pools(self.trace), preemption=True),
            num_slaves=inputs.MIX_SLAVES,
            engine="fast",
            mix_cache=cache,
        )
        return result, cache

    def measure(self, run: Run, passes: int) -> None:
        self.cold = None
        self.checks: list[tuple[str, bool]] = []
        for index in range(passes):
            root = self.scratch / f"mix{index}"
            cold = run.timed("cold", "cluster.tenancy.run_mix", lambda: self._run_mix(root))
            self.cache_bytes = tree_bytes(root)
            warm = run.timed("warm", "cluster.tenancy.run_mix", lambda: self._run_mix(root))
            if cold is None or warm is None:
                continue
            (cold_result, cold_cache), (warm_result, warm_cache) = cold, warm
            self.cold = cold_result
            self.payload = _payload(cold_result.outcome)
            self.checks.append(
                (
                    "cold op missed and warm op hit the mix cache",
                    (cold_cache.hits, cold_cache.misses, warm_cache.hits, warm_cache.misses)
                    == (0, 1, 1, 0),
                )
            )
            self.checks.append(
                (
                    "warm payload == cold payload",
                    _payload(warm_result.outcome) == self.payload
                    and warm_result.outputs == cold_result.outputs,
                )
            )

    def verify(self, run: Run) -> None:
        for label, ok in self.checks:
            run.check(label, ok)
        if self.cold is None:
            return
        outcome = self.cold.outcome
        run.check(
            "run_mix reports no failed or cancelled job",
            not outcome.failed_jobs and not outcome.cancelled_jobs,
            f"failed={outcome.failed_jobs} cancelled={outcome.cancelled_jobs}",
        )
        run.check(
            "every trace job finished", len(self.cold.reports) == len(self.trace.jobs)
        )
        run.check("WordCount outputs == Counter over the same documents", self._wordcounts_ok())
        run.info["sim_digest"] = digest(self.payload)
        run.info["sim_makespan_s"] = outcome.end_s

    def _wordcounts_ok(self) -> bool:
        from repro.workloads import datagen
        from repro.workloads.base import workload

        base_docs = workload("WordCount").BASE_DOCS
        jobs = [job for job in self.trace.jobs if job.workload == "WordCount"]
        for job in jobs:
            docs = datagen.generate_documents(max(1, int(base_docs * job.scale)))
            expected = collections.Counter(
                word for _, text in docs for word in text.split()
            )
            if self.cold.outputs[job.index] != dict(expected):
                return False
        return bool(jobs)

    def work_per_s(self, run: Run) -> float:
        return len(self.trace.jobs) / median(run.samples_of("cold"))

    def per_layer(self, run: Run, tracer: Tracer) -> dict[str, float]:
        cold = tracer.layers(run.ops_of("cold"))
        warm = tracer.layers(run.ops_of("warm"))
        jobs = self.trace.jobs
        distinct = len({(job.workload, job.scale) for job in jobs})
        out = {
            "cluster.tenancy.run_mix.busy_s": _layer(cold, "cluster.tenancy.run_mix", "busy_s"),
            "cluster.tenancy.run_mix.self_s": _layer(cold, "cluster.tenancy.run_mix", "self_s"),
            "workloads.run.calls": _layer(cold, "workloads.run", "calls"),
            "workloads.run.busy_s": _layer(cold, "workloads.run", "busy_s"),
            "workloads.run.shadow_reuse_ratio": 1.0 - distinct / len(jobs),
            "workloads.datagen.calls": _layer(cold, "workloads.datagen", "calls"),
            "workloads.datagen.self_s": _layer(cold, "workloads.datagen", "self_s"),
            "mapreduce.engine.calls": _layer(cold, "mapreduce.engine", "calls"),
            "mapreduce.engine.self_s": _layer(cold, "mapreduce.engine", "self_s"),
            "hive.engine.calls": _layer(cold, "hive.engine", "calls"),
            "hive.engine.self_s": _layer(cold, "hive.engine", "self_s"),
            "cluster.cluster.make_cluster_s": _layer(
                cold, "cluster.cluster.make_cluster", "busy_s"
            ),
            "cluster.cluster.run_job.calls": _layer(cold, "cluster.cluster.run_job", "calls"),
            "cluster.cluster.run_job.self_s": _layer(cold, "cluster.cluster.run_job", "self_s"),
            "cluster.scheduler.sim_makespan_s": self.cold.outcome.end_s,
            "cluster.scheduler.tasks_dispatched": len(self.cold.outcome.task_intervals),
            "cluster.eventbus.events_delivered": len(self.cold.outcome.events),
            "core.simcache.mix_entry_bytes": self.cache_bytes,
            "trace.op_p50_s": self.op_p50_s(run, "cold"),
            # run_mix() is itself the op; its own glue is what is left over
            "trace.unattributed_s": _layer(cold, "cluster.tenancy.run_mix", "self_s"),
        }
        out.update(_mix_cache_layers(cold, warm))
        return out


# -- dispatch-scale / dispatch-policy -------------------------------------------


def _payload(outcome) -> dict:
    """The canonical comparison form of a ``MixOutcome``."""
    try:
        from repro.core.simcache import mix_outcome_payload
    except ImportError:  # ROADMAP item 3 reworks the entry format
        return outcome.to_dict()
    return mix_outcome_payload(outcome)


def _patch_mix_cache(tracer: Tracer) -> None:
    tracer.patch("repro.core.simcache:mix_cache_key", "core.simcache.mix_key")
    tracer.patch("repro.core.simcache:load_mix", "core.simcache.mix_load")
    tracer.patch("repro.core.simcache:store_mix", "core.simcache.mix_store")
    tracer.patch("repro.cluster.scheduler:MultiJobCluster.run", "perf.clusterpath.dispatch")


def _mix_cache_layers(cold: dict, warm: dict) -> dict[str, float]:
    """Cache and dispatch phases: key/dispatch/store from the cold ops,
    load from the warm ops (a cold op's load is a failed ``open``)."""
    return {
        "core.simcache.mix_key_s": _layer(cold, "core.simcache.mix_key", "busy_s"),
        "perf.clusterpath.dispatch_s": _layer(cold, "perf.clusterpath.dispatch", "busy_s"),
        "core.simcache.mix_store_s": _layer(cold, "core.simcache.mix_store", "busy_s"),
        "core.simcache.mix_load_s": _layer(warm, "core.simcache.mix_load", "busy_s"),
        "core.simcache.mix_misses": _layer(cold, "core.simcache.mix_store", "calls"),
        "core.simcache.mix_hits": _layer(warm, "core.simcache.mix_load", "calls")
        - _layer(warm, "core.simcache.mix_store", "calls"),
    }


class _Dispatch(Workload):
    """Build a ``MultiJobCluster`` from prebuilt ``JobWork``s and run it
    through ``MixCache``: a miss (key + dispatch + store), then a fresh
    build served as a hit (key + load)."""

    work_unit = "jobs"
    builders: tuple = ()
    #: mixes whose fast outcome is cross-checked against the reference loop
    reference_mixes: tuple[str, ...] = ()
    #: hits timed per miss: a hit costs a fraction of its miss, it is the
    #: op a busy neighbour slows most (parsing: allocation and pointer
    #: chasing), and the first one pays for fresh pages the rest reuse
    warm_ops = 5

    def setup(self) -> None:
        self.cluster_class, self.cluster_class_name = inputs.resolve_cluster_class()
        self.mixes = [build(self.seed) for build in self.builders]

    def install_probes(self, tracer: Tracer) -> None:
        _patch_mix_cache(tracer)

    def _op(self, run: Run, mix: inputs.MixInput, cache):
        span = run.tracer.span if run.tracer is not None else (lambda name: nullcontext())
        with span("cluster.cluster.build"):
            multi = mix.build(self.cluster_class)
        return cache.run(multi)

    def measure(self, run: Run, passes: int) -> None:
        from repro.core.simcache import MixCache

        self.outcomes: dict[str, object] = {}
        self.payloads: dict[str, dict] = {}
        self.entry_bytes: dict[str, int] = {}
        self.checks: list[tuple[str, bool]] = []
        for index in range(passes):
            for mix in self.mixes:
                root = self.scratch / f"{mix.name}{index}"
                cold_cache = MixCache(root, enabled=True)
                cold = run.timed(
                    f"cold:{mix.name}", f"op.{mix.name}", lambda: self._op(run, mix, cold_cache)
                )
                self.entry_bytes[mix.name] = tree_bytes(root)
                payload = _payload(cold) if cold is not None else None
                warm_cache = MixCache(root, enabled=True)
                warm_same = cold is not None
                # per-layer times are per op: the traced pass times one hit
                warm_ops = self.warm_ops if run.tracer is None else 1
                for _ in range(warm_ops):
                    warm = run.timed(
                        f"warm:{mix.name}", f"op.{mix.name}",
                        lambda: self._op(run, mix, warm_cache),
                    )
                    warm_same = warm_same and warm is not None and _payload(warm) == payload
                    del warm  # a 40 000-job outcome: free it before the next load
                shutil.rmtree(root, ignore_errors=True)
                self.checks.append(
                    (
                        f"{mix.name}: cold op missed and every warm op hit the mix cache",
                        (cold_cache.hits, cold_cache.misses, warm_cache.hits, warm_cache.misses)
                        == (0, 1, warm_ops, 0),
                    )
                )
                self.checks.append((f"{mix.name}: every warm payload == cold payload", warm_same))
                if cold is not None:
                    self.outcomes[mix.name] = cold
                    self.payloads[mix.name] = payload
        self.cache_bytes = sum(self.entry_bytes.values())

    def verify(self, run: Run) -> None:
        from repro.cluster import MultiJobCluster

        for label, ok in self.checks:
            run.check(label, ok)
        for mix in self.mixes:
            outcome = self.outcomes.get(mix.name)
            if outcome is None:
                continue
            completed = sum(1 for report in outcome.reports if report.status == "completed")
            run.check(
                f"{mix.name}: every job completed, none failed or cancelled",
                completed == mix.jobs
                and not outcome.failed_jobs
                and not outcome.cancelled_jobs,
                f"completed={completed}/{mix.jobs}",
            )
            if mix.name in self.reference_mixes:
                with run.untimed(f"verify.reference.{mix.name}", f"reference:{mix.name}"):
                    oracle = mix.build(MultiJobCluster).run()
                run.check(
                    f"{mix.name}: reference MultiJobCluster == {self.cluster_class.__name__}",
                    _payload(oracle) == self.payloads[mix.name],
                )
        run.info["cluster_class"] = self.cluster_class_name
        run.info["sim_digest"] = digest([self.payloads.get(m.name) for m in self.mixes])

    def _rate(self, run: Run, mix: inputs.MixInput) -> float:
        return mix.jobs / median(run.samples[f"cold:{mix.name}"])

    def work_per_s(self, run: Run) -> float:
        return geometric_mean([self._rate(run, mix) for mix in self.mixes])

    def op_p50_s(self, run: Run, kind: str, raw: bool = False) -> float:
        # The mixes differ several-fold in size, so a median over their
        # pooled samples is whichever mix lands in the middle; the
        # geometric mean of per-mix medians weighs each mix equally.
        samples = run.raw if raw else run.samples
        return geometric_mean([median(samples[f"{kind}:{mix.name}"]) for mix in self.mixes])

    def per_layer(self, run: Run, tracer: Tracer) -> dict[str, float]:
        cold = tracer.layers(run.ops_of("cold"))
        warm = tracer.layers(run.ops_of("warm"))
        outcomes = list(self.outcomes.values())
        tasks = sum(len(o.task_intervals) for o in outcomes)
        out = {
            "cluster.cluster.build_s": _layer(cold, "cluster.cluster.build", "busy_s"),
            "core.simcache.mix_entry_bytes": self.cache_bytes,
            "cluster.scheduler.tasks_dispatched": tasks,
            "cluster.scheduler.sim_makespan_s": sum(o.end_s for o in outcomes),
            "cluster.eventbus.events_delivered": sum(len(o.events) for o in outcomes),
        }
        out.update(_mix_cache_layers(cold, warm))
        out["perf.clusterpath.us_per_task"] = 1e6 * out["perf.clusterpath.dispatch_s"] / tasks
        out["trace.op_p50_s"] = self.op_p50_s(run, "cold")
        # the part of the cold ops that no layer span covers
        out["trace.unattributed_s"] = sum(
            row["self_s"] for name, row in cold.items() if name.startswith("op.")
        )
        return out


class DispatchScale(_Dispatch):
    name = "dispatch-scale"
    nominal_pass_s = 15.5
    builders = (inputs.scale_mix,)


class DispatchPolicy(_Dispatch):
    name = "dispatch-policy"
    nominal_pass_s = 15.0
    builders = inputs.POLICY_MIXES
    reference_mixes = ("fair", "faults")

    def per_layer(self, run: Run, tracer: Tracer) -> dict[str, float]:
        out = super().per_layer(run, tracer)
        for mix in self.mixes:
            cold = tracer.layers(run.ops_of(f"cold:{mix.name}"))
            warm = tracer.layers(run.ops_of(f"warm:{mix.name}"))
            phases = _mix_cache_layers(cold, warm)
            out[f"perf.clusterpath.{mix.name}.dispatch_s"] = phases["perf.clusterpath.dispatch_s"]
            out[f"perf.clusterpath.{mix.name}.jobs_per_s"] = self._rate(run, mix)
            out[f"core.simcache.{mix.name}.mix_store_s"] = phases["core.simcache.mix_store_s"]
            out[f"core.simcache.{mix.name}.mix_load_s"] = phases["core.simcache.mix_load_s"]
            out[f"core.simcache.{mix.name}.mix_entry_bytes"] = self.entry_bytes[mix.name]
        oracle = tracer.layers(run.ops_of("reference:fair"))
        out["cluster.scheduler.reference_dispatch_s"] = _layer(
            oracle, "perf.clusterpath.dispatch", "busy_s"
        )
        fair, faults = self.outcomes["fair"], self.outcomes["faults"]
        accounting = faults.fault_accounting
        out["cluster.scheduler.preemptions"] = fair.preemptions
        out["cluster.scheduler.preemption_wasted_sim_s"] = fair.preemption_wasted_s
        out["cluster.faults.speculative_attempts"] = accounting.speculative_attempts
        out["cluster.faults.fenced_attempts"] = faults.fenced_attempts
        out["cluster.faults.stragglers_detected"] = len(accounting.stragglers_detected)
        return out


WORKLOADS = {cls.name: cls for cls in (UarchSuite, MixReplay, DispatchScale, DispatchPolicy)}
