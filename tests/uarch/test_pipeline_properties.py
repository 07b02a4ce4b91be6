"""Property-based invariants of the core timing model.

These run arbitrary (hypothesis-generated) workload shapes through the
simulator and assert structural truths that must hold for *any* input —
the guard rails that keep calibration work from breaking the model.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.backend import BufferTracker
from repro.uarch.config import scaled_machine
from repro.uarch.pipeline import Core
from repro.uarch.trace import MemoryRegion, SyntheticTrace, TraceSpec
from tests.uarch import test_fastpath

MACHINE = scaled_machine(8)


def spec_strategy():
    """Random-but-valid TraceSpecs."""
    region = st.builds(
        MemoryRegion,
        name=st.just("r"),
        size_bytes=st.sampled_from([4096, 1 << 16, 1 << 20, 8 << 20]),
        weight=st.floats(0.1, 2.0),
        pattern=st.sampled_from(["sequential", "strided", "random", "pointer"]),
        stride=st.sampled_from([64, 256, 1024]),
        burst=st.integers(1, 8),
    )
    return st.builds(
        TraceSpec,
        name=st.just("prop"),
        instructions=st.integers(3000, 12_000),
        seed=st.integers(0, 2**31),
        load_fraction=st.floats(0.05, 0.4),
        store_fraction=st.floats(0.0, 0.25),
        fp_fraction=st.floats(0.0, 0.25),
        code_footprint=st.sampled_from([4096, 64 << 10, 512 << 10]),
        branch_regularity=st.floats(0.5, 1.0),
        kernel_fraction=st.floats(0.0, 0.5),
        dep_mean=st.floats(1.5, 10.0),
        dep_density=st.floats(0.0, 0.95),
        regions=st.tuples(region),
    )


class TestPipelineInvariants:
    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_cycle_lower_bound(self, spec):
        """Cycles can never beat the retire-width bound."""
        result = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        assert result.cycles >= result.instructions / MACHINE.core.retire_width

    @given(spec_strategy())
    @settings(max_examples=25, deadline=None)
    def test_counters_non_negative_and_consistent(self, spec):
        result = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        assert result.l1i_misses <= result.l1i_accesses
        assert result.l2_misses <= result.l2_accesses
        assert result.l3_misses <= result.l3_accesses
        assert result.branch_mispredictions <= result.branches
        assert result.kernel_instructions <= result.instructions
        assert result.loads + result.stores <= result.instructions
        for value in (
            result.fetch_stall_cycles,
            result.rat_stall_cycles,
            result.rs_full_stall_cycles,
            result.rob_full_stall_cycles,
            result.load_stall_cycles,
            result.store_stall_cycles,
        ):
            assert value >= 0

    @given(spec_strategy())
    @settings(max_examples=20, deadline=None)
    def test_metrics_in_physical_ranges(self, spec):
        result = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        assert 0 < result.ipc() <= MACHINE.core.retire_width
        assert 0.0 <= result.l3_hit_ratio_of_l2_misses() <= 1.0
        assert 0.0 <= result.branch_misprediction_ratio() <= 1.0
        assert 0.0 <= result.kernel_instruction_fraction() <= 1.0

    @given(spec_strategy())
    @settings(max_examples=15, deadline=None)
    def test_warmup_never_increases_instruction_count(self, spec):
        full = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        warmed = Core(MACHINE).run(SyntheticTrace(spec), warmup=spec.instructions // 4)
        assert warmed.instructions < full.instructions
        assert warmed.cycles <= full.cycles

    @given(spec_strategy())
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, spec):
        a = Core(MACHINE).run(SyntheticTrace(spec))
        b = Core(MACHINE).run(SyntheticTrace(spec))
        assert a.cycles == b.cycles
        assert a.l2_misses == b.l2_misses
        assert a.branch_mispredictions == b.branch_mispredictions
        assert a.dtlb_walks == b.dtlb_walks

    @given(spec_strategy())
    @settings(max_examples=15, deadline=None)
    def test_stall_breakdown_normalised_or_zero(self, spec):
        result = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        total = sum(result.stall_breakdown().values())
        assert total == pytest.approx(1.0) or total == 0.0

    @given(spec_strategy(), st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_bigger_llc_never_more_l3_misses(self, spec, factor):
        from dataclasses import replace

        small = Core(MACHINE).run(SyntheticTrace(spec), warmup=0)
        bigger = replace(
            MACHINE, l3=replace(MACHINE.l3, size_bytes=MACHINE.l3.size_bytes * factor)
        )
        big = Core(bigger).run(SyntheticTrace(spec), warmup=0)
        # Identical access stream, larger LRU cache: misses can only drop
        # (modulo prefetch-fill noise — allow a sliver).
        assert big.l3_misses <= small.l3_misses * 1.02 + 8


class TestDispatchBaseMonotone:
    """The premise of the fast engine's lazy buffer drains.

    ``run_fast`` pops stale RS/load/store-buffer entries only once a heap
    is full.  That is exact only if the ``now`` each buffer is asked about
    never decreases within a run, so that an entry stale once is stale
    for good.  Pin it on the reference engine, over every machine variant
    the fast/reference equivalence property samples.
    """

    @given(
        spec=test_fastpath.spec_strategy,
        machine_kind=st.sampled_from(test_fastpath.MACHINE_KINDS),
    )
    @settings(max_examples=30, deadline=None)
    def test_buffer_queries_never_go_back_in_time(self, spec, machine_kind):
        queries: list[int] = []
        earliest_slot = BufferTracker.earliest_slot

        def spy(tracker: BufferTracker, now: int) -> int:
            queries.append(now)
            return earliest_slot(tracker, now)

        machine = test_fastpath.machine_variant(machine_kind)
        with mock.patch.object(BufferTracker, "earliest_slot", spy):
            Core(machine).run(SyntheticTrace(spec))
        assert len(queries) >= spec.instructions  # the RS sees every μop
        assert all(a <= b for a, b in zip(queries, queries[1:]))
