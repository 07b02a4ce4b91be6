"""Tests for the out-of-order core timing model and its counters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.config import CoreConfig, MachineConfig, scaled_machine
from repro.uarch.isa import MicroOp, OpClass
from repro.uarch.pipeline import Core, SimulationResult, simulate
from repro.uarch.trace import MemoryRegion, SyntheticTrace, TraceSpec


SMALL_MACHINE = scaled_machine(8)


def run_spec(spec, machine=SMALL_MACHINE, **kw):
    return Core(machine).run(SyntheticTrace(spec), **kw)


def alu_trace(n, pc_base=0x400000):
    """Independent ALU ops looping over a cache-resident 1 KB code region —
    the ideal-IPC trace."""
    return [MicroOp(OpClass.ALU, pc_base + 4 * (i % 256)) for i in range(n)]


class TestCoreBasics:
    def test_empty_trace(self):
        result = Core(SMALL_MACHINE).run([], warmup=0)
        assert result.instructions == 0
        assert result.ipc() == 0.0

    def test_ideal_alu_ipc_near_width(self):
        result = Core(SMALL_MACHINE).run(alu_trace(8000), warmup=0)
        # 4-wide machine on independent single-cycle ops.
        assert result.ipc() > 3.0

    def test_ipc_never_exceeds_retire_width(self):
        result = Core(SMALL_MACHINE).run(alu_trace(8000), warmup=0)
        assert result.ipc() <= SMALL_MACHINE.core.retire_width

    def test_serial_dependency_chain_limits_ipc(self):
        ops = [MicroOp(OpClass.ALU, 0x400000 + 4 * i, dep1=1) for i in range(4000)]
        result = Core(SMALL_MACHINE).run(ops, warmup=0)
        assert result.ipc() <= 1.05

    def test_div_chain_is_slow(self):
        ops = [MicroOp(OpClass.DIV, 0x400000 + 4 * i, dep1=1) for i in range(500)]
        result = Core(SMALL_MACHINE).run(ops, warmup=0)
        assert result.ipc() < 0.1

    def test_instruction_count(self):
        result = Core(SMALL_MACHINE).run(alu_trace(1234), warmup=0)
        assert result.instructions == 1234

    def test_load_store_counters(self):
        ops = [
            MicroOp(OpClass.LOAD, 0x400000, addr=0x10000000),
            MicroOp(OpClass.STORE, 0x400004, addr=0x10000040),
            MicroOp(OpClass.ALU, 0x400008),
        ]
        result = Core(SMALL_MACHINE).run(ops, warmup=0)
        assert result.loads == 1
        assert result.stores == 1

    def test_kernel_instructions_counted(self):
        ops = [MicroOp(OpClass.ALU, 0x400000, kernel=(i % 4 == 0)) for i in range(400)]
        result = Core(SMALL_MACHINE).run(ops, warmup=0)
        assert result.kernel_instruction_fraction() == pytest.approx(0.25)

    def test_simulate_accepts_spec(self):
        result = simulate(TraceSpec("s", 2000), SMALL_MACHINE)
        assert result.instructions > 0
        assert result.name == "s"

    def test_simulate_rejects_garbage(self):
        with pytest.raises(TypeError):
            simulate(42)


class TestWarmup:
    def test_warmup_excluded_from_instruction_count(self):
        spec = TraceSpec("w", 10_000)
        result = run_spec(spec)  # default warmup: 20%
        assert result.instructions == 8000
        assert result.extra["warmup_instructions"] == 2000

    def test_explicit_warmup(self):
        spec = TraceSpec("w", 10_000)
        result = run_spec(spec, warmup=5000)
        assert result.instructions == 5000

    def test_zero_warmup(self):
        spec = TraceSpec("w", 5000)
        result = run_spec(spec, warmup=0)
        assert result.instructions == 5000

    def test_warmup_reduces_cold_start_miss_rates(self):
        spec = TraceSpec(
            "w",
            30_000,
            regions=(MemoryRegion("hot", 64 * 1024, pattern="random"),),
        )
        cold = run_spec(spec, warmup=0)
        warm = run_spec(spec, warmup=15_000)
        assert warm.l2_mpki() <= cold.l2_mpki()

    def test_counters_are_deltas_not_totals(self):
        spec = TraceSpec("w", 10_000)
        full = run_spec(spec, warmup=0)
        measured = run_spec(spec, warmup=5000)
        assert measured.branches < full.branches
        assert measured.l1i_accesses < full.l1i_accesses


class TestCacheCounters:
    def test_small_code_footprint_low_l1i_mpki(self):
        spec = TraceSpec("small-code", 40_000, code_footprint=2048, kernel_fraction=0.0)
        result = run_spec(spec)
        assert result.l1i_mpki() < 2.0

    def test_large_code_footprint_high_l1i_mpki(self):
        small = run_spec(TraceSpec("s", 40_000, code_footprint=2048))
        big = run_spec(
            TraceSpec("b", 40_000, code_footprint=1024 * 1024, hot_code_fraction=0.5)
        )
        assert big.l1i_mpki() > 5 * max(small.l1i_mpki(), 0.1)

    def test_cache_resident_data_low_l2_mpki(self):
        spec = TraceSpec(
            "resident",
            40_000,
            code_footprint=2048,
            kernel_fraction=0.0,
            regions=(MemoryRegion("tiny", 2048, pattern="random"),),
        )
        result = run_spec(spec)
        assert result.l2_mpki() < 1.0

    def test_huge_random_data_high_l2_mpki(self):
        spec = TraceSpec(
            "big", 40_000, regions=(MemoryRegion("huge", 64 << 20, pattern="random", burst=1),)
        )
        result = run_spec(spec)
        assert result.l2_mpki() > 30

    def test_l3_ratio_between_zero_and_one(self):
        spec = TraceSpec(
            "r", 30_000, regions=(MemoryRegion("m", 4 << 20, pattern="random"),)
        )
        result = run_spec(spec)
        assert 0.0 <= result.l3_hit_ratio_of_l2_misses() <= 1.0

    def test_l3_captures_l2_overflow_working_set(self):
        # Working set far beyond L2 (32 KB scaled) but inside L3 (1.5 MB).
        spec = TraceSpec(
            "fit-l3",
            200_000,
            regions=(MemoryRegion("ws", 512 * 1024, pattern="random"),),
        )
        result = run_spec(spec, warmup=100_000)
        assert result.l2_mpki() > 1.0
        assert result.l3_hit_ratio_of_l2_misses() > 0.8

    def test_l2_misses_include_instruction_side(self):
        """The unified L2 serves code misses too (paper's L2 counters)."""
        spec = TraceSpec(
            "codeheavy",
            40_000,
            code_footprint=1024 * 1024,
            hot_code_fraction=0.9,
            regions=(MemoryRegion("tiny", 1024),),
        )
        result = run_spec(spec)
        assert result.l1i_misses > 0
        assert result.l2_accesses >= result.l1i_misses


class TestTlbCounters:
    def test_compact_data_no_walks(self):
        spec = TraceSpec("c", 30_000, regions=(MemoryRegion("one-page", 4096),))
        result = run_spec(spec)
        assert result.dtlb_walks_pki() < 0.5

    def test_sprawling_data_walks(self):
        spec = TraceSpec(
            "s", 30_000, regions=(MemoryRegion("sprawl", 256 << 20, pattern="random", burst=1),)
        )
        result = run_spec(spec)
        assert result.dtlb_walks_pki() > 10

    def test_itlb_walks_grow_with_code_footprint(self):
        small = run_spec(TraceSpec("s", 40_000, code_footprint=4096))
        big = run_spec(
            TraceSpec("b", 40_000, code_footprint=2 << 20, hot_code_fraction=0.6)
        )
        assert big.itlb_walks_pki() > small.itlb_walks_pki()


class TestStallAccounting:
    def test_breakdown_normalised(self):
        result = run_spec(TraceSpec("n", 30_000))
        breakdown = result.stall_breakdown()
        assert set(breakdown) == {"fetch", "rat", "load", "rs_full", "store", "rob_full"}
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_breakdown_all_zero_when_no_stalls(self):
        result = SimulationResult("empty", "m")
        assert sum(result.stall_breakdown().values()) == 0.0

    def test_frontend_plus_backend_shares_sum_to_one(self):
        result = run_spec(TraceSpec("n", 30_000))
        assert result.frontend_stall_share() + result.backend_stall_share() == pytest.approx(1.0)

    def test_memory_bound_trace_stalls_in_ooo_part(self):
        spec = TraceSpec(
            "mem",
            60_000,
            code_footprint=4096,
            regions=(MemoryRegion("big", 64 << 20, pattern="random", burst=2),),
            dep_mean=3.0,
            dep_density=0.8,
        )
        result = run_spec(spec)
        assert result.backend_stall_share() > 0.5

    def test_code_bound_trace_stalls_in_frontend(self):
        spec = TraceSpec(
            "code",
            60_000,
            code_footprint=4 << 20,
            hot_code_fraction=0.5,
            call_fraction=0.3,
            regions=(MemoryRegion("tiny", 4096),),
            partial_register_ratio=0.3,
            dep_density=0.2,
        )
        result = run_spec(spec)
        assert result.frontend_stall_share() > 0.5

    def test_rat_conflicts_charged(self):
        quiet = run_spec(TraceSpec("q", 30_000, partial_register_ratio=0.0))
        noisy = run_spec(TraceSpec("n", 30_000, partial_register_ratio=0.5))
        assert quiet.rat_stall_cycles == 0
        assert noisy.rat_stall_cycles > 0

    def test_rat_conflicts_lower_ipc(self):
        quiet = run_spec(TraceSpec("q", 30_000, partial_register_ratio=0.0))
        noisy = run_spec(TraceSpec("n", 30_000, partial_register_ratio=0.6))
        assert noisy.ipc() < quiet.ipc()


class TestBranchCounters:
    def test_regular_branches_rarely_mispredict(self):
        spec = TraceSpec(
            "reg", 60_000, branch_regularity=1.0, loop_branch_fraction=0.9,
            mean_trip_count=64, call_fraction=0.02, code_footprint=8192,
        )
        result = run_spec(spec)
        assert result.branch_misprediction_ratio() < 0.03

    def test_irregular_branches_mispredict_more(self):
        regular = run_spec(TraceSpec("r", 40_000, branch_regularity=0.98))
        irregular = run_spec(TraceSpec("i", 40_000, branch_regularity=0.5))
        assert irregular.branch_misprediction_ratio() > regular.branch_misprediction_ratio()

    def test_mispredictions_cost_cycles(self):
        regular = run_spec(TraceSpec("r", 40_000, branch_regularity=1.0))
        irregular = run_spec(TraceSpec("i", 40_000, branch_regularity=0.4))
        assert irregular.ipc() < regular.ipc()

    def test_branches_counted(self):
        result = run_spec(TraceSpec("b", 30_000, mean_block_len=6.0))
        # ~1 branch per 6-op block over the 24k measured instructions.
        assert result.branches > 30_000 * 0.8 / 6.0 * 0.85


class TestBandwidthModel:
    def test_streaming_is_bandwidth_bound(self):
        spec = TraceSpec(
            "stream",
            60_000,
            code_footprint=4096,
            regions=(MemoryRegion("s", 256 << 20, pattern="sequential"),),
            load_fraction=0.35,
            store_fraction=0.15,
            dep_density=0.3,
        )
        machine_slow = MachineConfig(
            l1i=SMALL_MACHINE.l1i, l1d=SMALL_MACHINE.l1d, l2=SMALL_MACHINE.l2,
            l3=SMALL_MACHINE.l3, itlb=SMALL_MACHINE.itlb, dtlb=SMALL_MACHINE.dtlb,
            l2tlb=SMALL_MACHINE.l2tlb, dram_cycles_per_line=60,
        )
        machine_fast = MachineConfig(
            l1i=SMALL_MACHINE.l1i, l1d=SMALL_MACHINE.l1d, l2=SMALL_MACHINE.l2,
            l3=SMALL_MACHINE.l3, itlb=SMALL_MACHINE.itlb, dtlb=SMALL_MACHINE.dtlb,
            l2tlb=SMALL_MACHINE.l2tlb, dram_cycles_per_line=4,
        )
        slow = Core(machine_slow).run(SyntheticTrace(spec))
        fast = Core(machine_fast).run(SyntheticTrace(spec))
        assert fast.ipc() > 1.5 * slow.ipc()

    def test_dram_transfers_reported(self):
        spec = TraceSpec(
            "t", 30_000, regions=(MemoryRegion("big", 64 << 20, pattern="sequential"),)
        )
        result = run_spec(spec)
        assert result.extra["dram_transfers"] > 0


class TestDeterminism:
    def test_same_spec_same_result(self):
        spec = TraceSpec("d", 20_000)
        a = run_spec(spec)
        b = run_spec(spec)
        assert a.cycles == b.cycles
        assert a.l2_misses == b.l2_misses
        assert a.branch_mispredictions == b.branch_mispredictions

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_runs_and_is_sane(self, seed):
        result = run_spec(TraceSpec("p", 5000, seed=seed), warmup=0)
        assert result.instructions == 5000
        assert result.cycles >= 5000 // 4
        assert 0 <= result.ipc() <= 4.0
