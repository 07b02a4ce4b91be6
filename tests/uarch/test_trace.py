"""Tests for the trace specification and synthesizer."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.isa import OpClass
from repro.uarch.trace import (
    KERNEL_CODE_BASE,
    MAX_DEP_DISTANCE,
    MemoryRegion,
    SyntheticTrace,
    TraceSpec,
    USER_CODE_BASE,
)


def tiny_spec(**kw) -> TraceSpec:
    defaults = dict(name="t", instructions=5000)
    defaults.update(kw)
    return TraceSpec(**defaults)


class TestMemoryRegionValidation:
    def test_defaults_valid(self):
        r = MemoryRegion("r", 1024)
        assert r.pattern == "sequential"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size_bytes=0),
            dict(size_bytes=-5),
            dict(weight=-1.0),
            dict(pattern="zigzag"),
            dict(stride=0),
            dict(burst=0),
            dict(hot_fraction=0.0),
            dict(hot_fraction=1.5),
            dict(hot_weight=-0.1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        base = dict(name="r", size_bytes=1024)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MemoryRegion(**base)


class TestTraceSpecValidation:
    def test_rejects_zero_instructions(self):
        with pytest.raises(ValueError):
            tiny_spec(instructions=0)

    def test_rejects_mix_over_one(self):
        with pytest.raises(ValueError):
            tiny_spec(load_fraction=0.6, store_fraction=0.5)

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            tiny_spec(kernel_fraction=1.2)

    def test_rejects_tiny_block_len(self):
        with pytest.raises(ValueError):
            tiny_spec(mean_block_len=1.0)

    def test_rejects_empty_regions(self):
        with pytest.raises(ValueError):
            tiny_spec(regions=())

    @pytest.mark.parametrize("access_bytes", [0, -8])
    def test_rejects_nonpositive_access_bytes(self, access_bytes):
        # 0 would pin every sequential access to one address; a negative
        # width walks regions backwards and crashes random ones mid-trace.
        with pytest.raises(ValueError, match="access_bytes"):
            tiny_spec(access_bytes=access_bytes)

    def test_with_instructions(self):
        spec = tiny_spec().with_instructions(99)
        assert spec.instructions == 99
        assert spec.name == "t"

    def test_scaled_divides_footprints(self):
        spec = tiny_spec(
            code_footprint=64 * 1024,
            regions=(MemoryRegion("r", 1 << 20),),
        ).scaled(8)
        assert spec.code_footprint == 8 * 1024
        assert spec.regions[0].size_bytes == (1 << 20) // 8

    def test_scaled_one_is_identity(self):
        spec = tiny_spec()
        assert spec.scaled(1) is spec

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tiny_spec().scaled(0)

    def test_scaled_floors_small_footprints(self):
        spec = tiny_spec(code_footprint=2048).scaled(8)
        assert spec.code_footprint >= 1024


class TestGeneration:
    def test_yields_exactly_n_ops(self):
        trace = SyntheticTrace(tiny_spec(instructions=777))
        assert len(list(trace)) == 777
        assert len(trace) == 777

    def test_deterministic_across_iterations(self):
        trace = SyntheticTrace(tiny_spec())
        first = [(u.op, u.pc, u.addr, u.taken, u.target, u.dep1, u.dep2, u.kernel) for u in trace]
        second = [(u.op, u.pc, u.addr, u.taken, u.target, u.dep1, u.dep2, u.kernel) for u in trace]
        assert first == second

    def test_different_seeds_differ(self):
        a = SyntheticTrace(tiny_spec(seed=1)).materialize()
        b = SyntheticTrace(tiny_spec(seed=2)).materialize()
        assert any(
            (x.op, x.pc, x.addr) != (y.op, y.pc, y.addr) for x, y in zip(a, b)
        )

    def test_instruction_mix_close_to_spec(self):
        spec = tiny_spec(
            instructions=40_000,
            load_fraction=0.3,
            store_fraction=0.1,
            kernel_fraction=0.0,
        )
        ops = SyntheticTrace(spec).materialize()
        loads = sum(1 for u in ops if u.op == OpClass.LOAD)
        stores = sum(1 for u in ops if u.op == OpClass.STORE)
        branches = sum(1 for u in ops if u.op == OpClass.BRANCH)
        n = len(ops)
        # Memory fractions apply to non-branch slots; expect to land within
        # a few points once the ~1/mean_block_len branch share is removed.
        non_branch = n - branches
        assert loads / non_branch == pytest.approx(0.3, abs=0.03)
        assert stores / non_branch == pytest.approx(0.1, abs=0.02)
        assert branches / n == pytest.approx(1 / spec.mean_block_len, abs=0.05)

    def test_kernel_fraction_close_to_spec(self):
        for target in (0.04, 0.24, 0.45):
            spec = tiny_spec(instructions=60_000, kernel_fraction=target)
            ops = SyntheticTrace(spec).materialize()
            measured = sum(u.kernel for u in ops) / len(ops)
            assert measured == pytest.approx(target, rel=0.15)

    def test_zero_kernel_fraction_has_no_kernel_ops(self):
        ops = SyntheticTrace(tiny_spec(kernel_fraction=0.0)).materialize()
        assert not any(u.kernel for u in ops)

    def test_kernel_ops_live_in_kernel_code(self):
        ops = SyntheticTrace(tiny_spec(kernel_fraction=0.3)).materialize()
        for u in ops:
            if u.kernel:
                assert u.pc >= KERNEL_CODE_BASE
            else:
                assert USER_CODE_BASE <= u.pc < KERNEL_CODE_BASE

    def test_user_pcs_within_footprint(self):
        spec = tiny_spec(code_footprint=16 * 1024, kernel_fraction=0.0)
        for u in SyntheticTrace(spec).materialize():
            # Sequential drift may pass slightly beyond the footprint within
            # a basic block, never beyond it plus a max block.
            assert USER_CODE_BASE <= u.pc <= USER_CODE_BASE + 16 * 1024 + 64 * 4

    def test_memory_ops_have_addresses(self):
        for u in SyntheticTrace(tiny_spec()).materialize():
            if u.op in (OpClass.LOAD, OpClass.STORE):
                assert u.addr > 0
            elif u.op != OpClass.BRANCH:
                assert u.addr == 0

    def test_branches_have_targets(self):
        for u in SyntheticTrace(tiny_spec()).materialize():
            if u.op == OpClass.BRANCH:
                assert u.target > 0

    def test_dep_distances_bounded(self):
        for i, u in enumerate(SyntheticTrace(tiny_spec()).materialize()):
            assert 0 <= u.dep1 <= min(i, MAX_DEP_DISTANCE)
            assert 0 <= u.dep2 <= min(i, MAX_DEP_DISTANCE)

    def test_stats_populated_after_iteration(self):
        trace = SyntheticTrace(tiny_spec(instructions=3000))
        list(trace)
        assert trace.stats.instructions == 3000
        assert trace.stats.loads > 0
        assert trace.stats.branches > 0

    def test_sequential_region_addresses_advance(self):
        spec = tiny_spec(
            regions=(MemoryRegion("seq", 1 << 16, pattern="sequential"),),
            kernel_fraction=0.0,
        )
        addrs = [u.addr for u in SyntheticTrace(spec).materialize() if u.addr]
        diffs = [b - a for a, b in zip(addrs, addrs[1:])]
        # Sequential region: nearly all gaps equal the access size.
        assert sum(1 for d in diffs if d == spec.access_bytes) / len(diffs) > 0.9

    def test_strided_region_uses_stride(self):
        spec = tiny_spec(
            regions=(MemoryRegion("str", 1 << 20, pattern="strided", stride=256),),
            kernel_fraction=0.0,
        )
        addrs = [u.addr for u in SyntheticTrace(spec).materialize() if u.op == OpClass.LOAD]
        diffs = {b - a for a, b in zip(addrs, addrs[1:])}
        assert 256 in diffs

    def test_random_region_spreads(self):
        spec = tiny_spec(
            instructions=20_000,
            regions=(MemoryRegion("rnd", 1 << 22, pattern="random", burst=1),),
            kernel_fraction=0.0,
        )
        addrs = [u.addr for u in SyntheticTrace(spec).materialize() if u.op == OpClass.LOAD]
        pages = {a >> 12 for a in addrs}
        assert len(pages) > 100

    def test_hot_skew_concentrates_accesses(self):
        hot = tiny_spec(
            instructions=20_000,
            regions=(
                MemoryRegion(
                    "rnd", 1 << 22, pattern="random", burst=1, hot_fraction=0.01, hot_weight=0.95
                ),
            ),
            kernel_fraction=0.0,
        )
        uniform = tiny_spec(
            instructions=20_000,
            regions=(MemoryRegion("rnd", 1 << 22, pattern="random", burst=1),),
            kernel_fraction=0.0,
        )
        pages_hot = {u.addr >> 12 for u in SyntheticTrace(hot).materialize() if u.addr}
        pages_uni = {u.addr >> 12 for u in SyntheticTrace(uniform).materialize() if u.addr}
        assert len(pages_hot) < len(pages_uni) / 2

    def test_pointer_region_serialises_behind_previous_load(self):
        spec = tiny_spec(
            regions=(MemoryRegion("ptr", 1 << 20, pattern="pointer", burst=1),),
            kernel_fraction=0.0,
            dep_density=0.0,
        )
        ops = SyntheticTrace(spec).materialize()
        loads = [(i, u) for i, u in enumerate(ops) if u.op == OpClass.LOAD]
        chained = sum(1 for i, u in loads[1:] if u.dep1 > 0)
        assert chained / max(1, len(loads) - 1) > 0.8

    def test_region_weights_respected(self):
        spec = tiny_spec(
            instructions=30_000,
            regions=(
                MemoryRegion("a", 1 << 16, weight=3.0),
                MemoryRegion("b", 1 << 16, weight=1.0),
            ),
            kernel_fraction=0.0,
        )
        ops = SyntheticTrace(spec).materialize()
        # Region bases are disjoint; region a comes first.
        a_hits = sum(1 for u in ops if u.addr and u.addr < 0x10000000 + (1 << 16) + 4096)
        total = sum(1 for u in ops if u.addr)
        assert a_hits / total == pytest.approx(0.75, abs=0.05)



def code_blocks(spec, block_bytes=256) -> dict[int, int]:
    """Fetches per *block_bytes* code block: the flat profile ``perf
    record`` would sample from this trace."""
    blocks: dict[int, int] = {}
    for u in SyntheticTrace(spec).materialize():
        block = u.pc & ~(block_bytes - 1)
        blocks[block] = blocks.get(block, 0) + 1
    return blocks


def top_share(blocks: dict[int, int], n: int = 10) -> float:
    return sum(sorted(blocks.values(), reverse=True)[:n]) / sum(blocks.values())


class TestCodeStream:
    def test_hot_code_concentrates_fetches(self):
        big = dict(instructions=30_000, code_footprint=512 * 1024, kernel_fraction=0.0)
        concentrated = tiny_spec(hot_code_fraction=0.02, hot_code_weight=0.98, **big)
        flat = tiny_spec(hot_code_fraction=0.9, hot_code_weight=0.5, **big)
        assert top_share(code_blocks(concentrated)) > top_share(code_blocks(flat))

    def test_small_code_footprint_touches_fewer_blocks(self):
        small = tiny_spec(instructions=30_000, code_footprint=2048, kernel_fraction=0.0)
        big = tiny_spec(instructions=30_000, code_footprint=1 << 20,
                        hot_code_fraction=0.8, kernel_fraction=0.0)
        assert len(code_blocks(small)) < len(code_blocks(big))

    def test_kernel_pcs_within_kernel_footprint(self):
        spec = tiny_spec(kernel_fraction=0.5, kernel_code_footprint=8 * 1024)
        kernel = [u.pc for u in SyntheticTrace(spec).materialize() if u.kernel]
        assert kernel
        # as for user code: at most one basic block of sequential drift
        assert all(KERNEL_CODE_BASE <= pc <= KERNEL_CODE_BASE + 8 * 1024 + 64 * 4
                   for pc in kernel)

class TestTraceProperties:
    @given(
        st.integers(min_value=100, max_value=3000),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_any_seed_yields_exact_length(self, n, seed):
        trace = SyntheticTrace(tiny_spec(instructions=n, seed=seed))
        assert sum(1 for _ in trace) == n

    @given(st.floats(min_value=0.0, max_value=0.6))
    @settings(max_examples=15, deadline=None)
    def test_kernel_fraction_tracks_target(self, f):
        spec = tiny_spec(instructions=20_000, kernel_fraction=f)
        ops = SyntheticTrace(spec).materialize()
        measured = sum(u.kernel for u in ops) / len(ops)
        assert abs(measured - f) < 0.08
