"""Fast engine ≡ reference engine, bit for bit.

The fast path re-implements trace generation (SyntheticTrace.iter_batches,
one _ModeState.emit_run call per user or kernel episode) and the core
timing loop (repro.perf.fastpath, which decodes lines, pages and predictor
keys where it reads them) in batched form; its entire value rests on never
changing a counter.  These tests enforce that contract:

* a hypothesis property over randomized TraceSpecs and machine variants
  asserting every SimulationResult field matches exactly and satisfies
  the counter table's relations (repro.uarch.counters.violations),
* batch-stream equivalence: iter_batches ≡ the scalar iterator, the
  oracle, at batch sizes 1, 7, 777 and DEFAULT_BATCH_SIZE, over specs
  that vary every region field and access_bytes and include one-μop
  kernel episodes,
* a fixed equivalence matrix over representative suite workloads and the
  ablation machines (virtualized, hugepages, prefetch off, each predictor),
* a tight machine (2-entry RS, 1-entry load/store buffers, a 3-entry ROB
  under a 5-wide retire, an 8-entry BTB, 64 predictor entries, and L1D/DTLB
  with non-power-of-two set counts) that keeps every buffer full and
  every fallback path of the fast loop live,
* a direct comparison of the core state each engine leaves behind.

test_trace_golden.py pins every suite entry's stream and fast result by
hash, so a rewrite of either half cannot move a value unnoticed.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.suite import DCBench
from repro.perf.fastpath import run_fast
from repro.uarch.branch import TournamentPredictor
from repro.uarch.config import (
    CacheConfig,
    TlbConfig,
    hugepage_machine,
    scaled_machine,
    virtualized_machine,
)
from repro.uarch.pipeline import Core, simulate
from repro.uarch.trace import DEFAULT_BATCH_SIZE, MemoryRegion, SyntheticTrace, TraceSpec
from tests.uarch.test_counters import broken

SCALED = scaled_machine(8)


PREDICTORS = ["bimodal", "gshare", "tournament"]


def tight_machine(predictor: str):
    """Every buffer a few entries deep; L1D and DTLB with 3 sets."""
    return dataclasses.replace(
        SCALED,
        name=f"tight-{predictor}",
        core=dataclasses.replace(
            SCALED.core,
            rs_entries=2,
            load_buffer_entries=1,
            store_buffer_entries=1,
            rob_entries=3,
            # wider than the ROB: the retire history must span both
            retire_width=5,
            btb_entries=8,
            btb_associativity=2,
            predictor=predictor,
            predictor_entries=64,
        ),
        l1d=CacheConfig("L1D", 3 * 8 * 64, 8, 64, hit_latency=4),
        dtlb=TlbConfig("DTLB", 12, 4),
    )


def machine_variant(kind: str):
    if kind.startswith("tight-"):
        return tight_machine(kind.removeprefix("tight-"))
    if kind == "base":
        return SCALED
    if kind == "virt":
        return virtualized_machine(SCALED)
    if kind == "huge":
        return hugepage_machine(SCALED)
    if kind == "noprefetch":
        return dataclasses.replace(SCALED, name="nopf", prefetch=False)
    # predictor kinds
    return dataclasses.replace(
        SCALED, name=kind, core=dataclasses.replace(SCALED.core, predictor=kind)
    )


#: Every machine variant the equivalence property samples.
MACHINE_KINDS = [
    "base",
    "virt",
    "huge",
    "noprefetch",
    *PREDICTORS,
    *(f"tight-{predictor}" for predictor in PREDICTORS),
]


regions_strategy = st.lists(
    st.builds(
        MemoryRegion,
        name=st.just("r"),
        size_bytes=st.integers(10, 22).map(lambda bits: 1 << bits),
        weight=st.floats(0.1, 1.0),
        pattern=st.sampled_from(["sequential", "strided", "random", "pointer"]),
        stride=st.integers(1, 4096),
        burst=st.integers(1, 8),
        # < 1 is the path that draws one extra rng.random() per jump
        hot_fraction=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        hot_weight=st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=3,
).map(tuple)

spec_strategy = st.builds(
    TraceSpec,
    name=st.just("prop"),
    instructions=st.integers(500, 4000),
    seed=st.integers(0, 2**31 - 1),
    load_fraction=st.floats(0.0, 0.35),
    store_fraction=st.floats(0.0, 0.2),
    fp_fraction=st.floats(0.0, 0.2),
    mul_fraction=st.floats(0.0, 0.1),
    div_fraction=st.floats(0.0, 0.02),
    mean_block_len=st.floats(2.0, 20.0),
    code_footprint=st.integers(4 * 1024, 512 * 1024),
    call_fraction=st.floats(0.0, 0.3),
    indirect_fraction=st.floats(0.0, 0.3),
    loop_branch_fraction=st.floats(0.0, 0.9),
    mean_trip_count=st.floats(1.0, 40.0),
    branch_regularity=st.floats(0.0, 1.0),
    taken_bias=st.floats(0.0, 1.0),
    regions=regions_strategy,
    dep_mean=st.floats(1.0, 12.0),
    dep_density=st.floats(0.0, 1.0),
    partial_register_ratio=st.floats(0.0, 0.3),
    access_bytes=st.integers(1, 64),
    kernel_fraction=st.floats(0.0, 0.3),
    # 1-μop kernel episodes are single-op, budget-1 blocks
    kernel_episode_len=st.one_of(st.just(1), st.integers(1, 300)),
)

#: Every kernel episode is one μop: a block on a budget of one, no branch.
ONE_UOP_EPISODES = TraceSpec(
    name="one-uop", instructions=3000, kernel_fraction=0.3, kernel_episode_len=1
)


class TestFastEqualsReference:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=spec_strategy,
        machine_kind=st.sampled_from(MACHINE_KINDS),
    )
    def test_property_bit_identical(self, spec, machine_kind):
        machine = machine_variant(machine_kind)
        core_ref = Core(machine)
        core_fast = Core(machine)
        ref = core_ref.run(SyntheticTrace(spec))
        fast = run_fast(core_fast, SyntheticTrace(spec))
        assert dataclasses.asdict(ref) == dataclasses.asdict(fast)
        # State a result may not show yet, e.g. a BTB target retrained on
        # an indirect branch's last visit.
        assert core_state(core_fast) == core_state(core_ref)
        # The counter table's relations hold on both engines; the stall
        # bound only without a warmup cut (see test_counters.py).
        for result in (ref, fast):
            assert broken(result, machine, stall_bound=False) == []
        cold_ref = Core(machine).run(SyntheticTrace(spec), warmup=0)
        cold_fast = run_fast(Core(machine), SyntheticTrace(spec), warmup=0)
        assert dataclasses.asdict(cold_ref) == dataclasses.asdict(cold_fast)
        for result in (cold_ref, cold_fast):
            assert broken(result, machine) == []

    @settings(max_examples=100, deadline=None)
    @given(spec=spec_strategy)
    @example(spec=ONE_UOP_EPISODES)
    def test_batch_stream_equals_scalar_stream(self, spec):
        def fields(uops):
            return [
                (u.op, u.pc, u.addr, u.taken, u.target, u.dep1, u.dep2, u.kernel)
                for u in uops
            ]

        scalar_trace = SyntheticTrace(spec)
        scalar = fields(scalar_trace.materialize())
        assert len(scalar) == spec.instructions
        for batch_size in (1, 7, 777, DEFAULT_BATCH_SIZE):
            batch_trace = SyntheticTrace(spec)
            batched = fields(
                uop for batch in batch_trace.iter_batches(batch_size=batch_size)
                for uop in batch.micro_ops()
            )
            assert batched == scalar, f"batch_size={batch_size}"
            assert batch_trace.stats == scalar_trace.stats, f"batch_size={batch_size}"


#: The CI perf tier's equivalence matrix: one workload per family.
MATRIX_WORKLOADS = [
    "WordCount",
    "K-means",
    "Media Streaming",
    "SPECINT",
    "HPCC-STREAM",
    "HPCC-RandomAccess",
]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", MATRIX_WORKLOADS)
    def test_suite_workload(self, name):
        entry = DCBench.default().entry(name)
        spec = entry.trace_spec(30_000).scaled(8)
        ref = Core(SCALED).run(SyntheticTrace(spec))
        fast = run_fast(Core(SCALED), SyntheticTrace(spec))
        assert dataclasses.asdict(ref) == dataclasses.asdict(fast)

    @pytest.mark.parametrize(
        "kind", ["virt", "huge", "noprefetch", *PREDICTORS, "tight-tournament"]
    )
    def test_machine_variants(self, kind):
        machine = machine_variant(kind)
        spec = DCBench.default().entry("Sort").trace_spec(20_000).scaled(8)
        ref = Core(machine).run(SyntheticTrace(spec))
        fast = run_fast(Core(machine), SyntheticTrace(spec))
        assert dataclasses.asdict(ref) == dataclasses.asdict(fast)

    def test_core_state_writeback(self):
        """After run_fast the core holds the same caches, TLBs, predictor
        and counters as after a reference run, for every predictor kind,
        and a second run on the reused core matches."""
        spec = DCBench.default().entry("Grep").trace_spec(10_000).scaled(8)
        for predictor in PREDICTORS:
            machine = machine_variant(predictor)
            core_ref = Core(machine)
            core_fast = Core(machine)
            first_ref = core_ref.run(SyntheticTrace(spec))
            first_fast = run_fast(core_fast, SyntheticTrace(spec))
            assert dataclasses.asdict(first_ref) == dataclasses.asdict(first_fast)
            assert core_state(core_fast) == core_state(core_ref), predictor
            second_ref = core_ref.run(SyntheticTrace(spec))
            second_fast = run_fast(core_fast, SyntheticTrace(spec))
            assert dataclasses.asdict(second_ref) == dataclasses.asdict(second_fast)
            # Warm state changed the numbers (i.e. the write-back mattered).
            assert dataclasses.asdict(first_ref) != dataclasses.asdict(second_ref)


def core_state(core: Core) -> dict:
    """Every piece of core state an engine leaves behind: LRU sets,
    predictor tables and history, and every counter."""
    state = {}
    for name in ("l1i", "l1d", "l2", "l3"):
        cache = getattr(core, name)
        state[name] = (
            cache._sets,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.prefetch_hits,
        )
    for name in ("icache_path", "dcache_path"):
        path = getattr(core, name)
        state[name] = (path.dram_transfers, path.prefetch_fills)
    for name, tlb in (("itlb", core.itlb.l1), ("dtlb", core.dtlb.l1), ("l2tlb", core.l2tlb)):
        state[name] = (tlb._sets, tlb.hits, tlb.misses)
    state["walks"] = (
        core.itlb.completed_walks,
        core.dtlb.completed_walks,
        core.walker.completed_walks,
    )
    unit = core.branch_unit
    state["branch_unit"] = (unit.branches, unit.mispredictions, unit.misfetches)
    state["btb"] = (unit.btb._sets, unit.btb.hits, unit.btb.misses)
    direction = unit.direction
    if isinstance(direction, TournamentPredictor):
        state["chooser"] = bytes(direction._chooser)
        components = (direction._bimodal, direction._gshare)
    else:
        components = (direction,)
    for component in components:
        state[type(component).__name__] = (
            bytes(component._table),
            getattr(component, "_history", None),
        )
    return state


class TestSimulateDispatch:
    def test_engine_fast_on_spec(self):
        spec = TraceSpec(name="d", instructions=3000)
        assert dataclasses.asdict(simulate(spec, SCALED, engine="fast")) == (
            dataclasses.asdict(simulate(spec, SCALED, engine="reference"))
        )

    def test_engine_fast_falls_back_for_iterables(self):
        spec = TraceSpec(name="d", instructions=1000)
        uops = SyntheticTrace(spec).materialize()
        result = simulate(uops, SCALED, engine="fast")
        assert result.instructions == 1000 - 200  # warmup-excluded

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            simulate(TraceSpec(name="d", instructions=1000), SCALED, engine="warp")

    def test_run_fast_rejects_non_synthetic(self):
        with pytest.raises(TypeError):
            run_fast(Core(SCALED), [1, 2, 3])
