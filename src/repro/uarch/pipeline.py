"""The out-of-order core: one-pass cycle timing model with stall attribution.

:class:`Core` streams a micro-op trace through the modelled pipeline:

1. **Fetch** (:class:`~repro.uarch.frontend.FetchEngine`): L1I + ITLB +
   branch-redirect timing, producing each op's fetch cycle.
2. **Rename/dispatch**: bounded by rename width, occasional RAT stalls
   (partial-register / read-port conflicts), and free entries in the RS,
   ROB and load/store buffers — waits are charged to the matching Figure 6
   stall counter, and like the hardware counters the categories may
   overlap (the paper normalises them; so do we).
3. **Issue/execute**: ops become ready when their producers complete; loads
   and stores translate through the DTLB and walk the L1D/L2/L3 hierarchy.
4. **Retire**: in-order, bounded by retire width; the final retire cycle is
   the run's cycle count.

The model is one-pass (O(n) with small heaps) rather than cycle-by-cycle,
which keeps multi-hundred-thousand-op traces simulable in seconds of pure
Python while preserving the structural bottlenecks the paper measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.uarch.backend import BufferTracker, ExecutionModel, RingTracker
from repro.uarch.branch import BRANCH_MISFETCH, BRANCH_MISPREDICT, BranchUnit
from repro.uarch.caches import Cache, CacheHierarchy
from repro.uarch.config import MachineConfig, XEON_E5645
from repro.uarch.counters import Rates
from repro.uarch.frontend import FRONT_DEPTH, FetchEngine
from repro.uarch.isa import OpClass
from repro.uarch.tlb import PageWalker, Tlb, TlbHierarchy
from repro.uarch.trace import MAX_DEP_DISTANCE, SyntheticTrace, TraceSpec

#: Extra cycles a retired store occupies its buffer entry while draining.
STORE_DRAIN_LATENCY = 4

#: Cycles charged per RAT (partial-register / read-port) conflict.
RAT_STALL_PENALTY = 3


@dataclass
class SimulationResult(Rates):
    """Raw counters from one trace simulation.

    Field names follow the paper's counter vocabulary: "stall" fields are
    cycle counts, "misses"/"walks" are event counts.  The derived metrics
    (one method per figure, and the Figure 6 breakdown) come from the
    counter table in :mod:`repro.uarch.counters`.
    """

    name: str
    machine: str
    instructions: int = 0
    cycles: int = 0
    kernel_instructions: int = 0
    loads: int = 0
    stores: int = 0
    # cache events
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    l3_accesses: int = 0
    l3_misses: int = 0
    # TLB events
    itlb_walks: int = 0
    dtlb_walks: int = 0
    # branch events
    branches: int = 0
    branch_mispredictions: int = 0
    # Figure 6 stall categories (cycle counts; may overlap)
    fetch_stall_cycles: int = 0
    rat_stall_cycles: int = 0
    load_stall_cycles: int = 0
    rs_full_stall_cycles: int = 0
    store_stall_cycles: int = 0
    rob_full_stall_cycles: int = 0
    # not part of the six categories, reported for completeness
    mispredict_stall_cycles: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class Core:
    """One simulated out-of-order core built from a :class:`MachineConfig`."""

    def __init__(self, machine: MachineConfig = XEON_E5645) -> None:
        self.machine = machine
        # Shared unified L2/L3 between the instruction and data paths.
        self.l2 = Cache(machine.l2)
        self.l3 = Cache(machine.l3)
        self.l1i = Cache(machine.l1i)
        self.l1d = Cache(machine.l1d)
        self.icache_path = CacheHierarchy(
            self.l1i, self.l2, self.l3, machine.memory_latency, prefetch=machine.prefetch
        )
        self.dcache_path = CacheHierarchy(
            self.l1d, self.l2, self.l3, machine.memory_latency, prefetch=machine.prefetch
        )
        walk_latency = machine.page_walk_latency
        if machine.virtualized:
            # Nested paging: every guest walk level needs EPT walks.
            walk_latency *= machine.nested_walk_multiplier
        self.walker = PageWalker(walk_latency)
        self.l2tlb = Tlb(machine.l2tlb)
        self.itlb = TlbHierarchy(Tlb(machine.itlb), self.l2tlb, self.walker)
        self.dtlb = TlbHierarchy(Tlb(machine.dtlb), self.l2tlb, self.walker)
        self.branch_unit = BranchUnit(machine.core)
        self.execution = ExecutionModel()

    def run(
        self,
        trace,
        rat_conflict_ratio: float | None = None,
        name: str | None = None,
        warmup: int | None = None,
    ) -> SimulationResult:
        """Simulate *trace* (an iterable of micro-ops) and return counters.

        ``rat_conflict_ratio`` defaults to the trace spec's
        ``partial_register_ratio`` when the trace is a
        :class:`~repro.uarch.trace.SyntheticTrace`.

        ``warmup`` instructions are executed but excluded from every
        counter — the paper's "ramp-up period ... then start collecting".
        It defaults to 20 % of the trace when the trace length is known.
        """
        spec = getattr(trace, "spec", None)
        if rat_conflict_ratio is None:
            rat_conflict_ratio = getattr(spec, "partial_register_ratio", 0.0)
        if name is None:
            name = getattr(spec, "name", "trace")
        if warmup is None:
            try:
                warmup = len(trace) // 5
            except TypeError:
                warmup = 0

        core_cfg = self.machine.core
        fetch = FetchEngine(
            self.icache_path,
            self.itlb,
            self.branch_unit,
            core_cfg.fetch_width,
            core_cfg.mispredict_penalty,
        )
        rs = BufferTracker(core_cfg.rs_entries)
        rob = RingTracker(core_cfg.rob_entries)
        load_buffer = BufferTracker(core_cfg.load_buffer_entries)
        store_buffer = BufferTracker(core_cfg.store_buffer_entries)
        rng = random.Random((getattr(spec, "seed", 0) or 0) + 0x5A17)

        result = SimulationResult(name=name, machine=self.machine.name)
        execution = self.execution
        dcache = self.dcache_path
        dtlb = self.dtlb
        branch_unit = self.branch_unit

        ring_size = MAX_DEP_DISTANCE + 1
        complete_ring = [0] * ring_size
        retire_ring_size = max(core_cfg.retire_width + 1, 2)
        retire_ring = [0] * retire_ring_size
        last_retire = 0

        dispatch_cycle = -1
        dispatch_in_cycle = 0
        rat_sampled_cycle = -1
        rename_width = core_cfg.rename_width
        retire_width = core_cfg.retire_width
        virtualized = self.machine.virtualized
        vm_transition = self.machine.vm_transition_cycles
        vm_exits = 0
        vm_exit_cycles = 0
        prev_kernel = False

        i = 0
        baseline = self._counter_snapshot(fetch)
        baseline_result = (0, 0, 0)  # kernel_instructions, loads, stores
        baseline_stalls = (0, 0, 0, 0, 0)  # rat, rs, rob, load, store
        baseline_retire = 0
        dram_free = 0
        dram_occupancy = self.machine.dram_cycles_per_line
        # Baseline against the hierarchy's cumulative transfer counter —
        # a reused core must not re-charge traffic from earlier runs.
        dram_seen = dcache.dram_transfers
        port_load = 0
        port_store = 0
        port_fp = 0

        for uop in trace:
            op = uop.op
            if virtualized and uop.kernel and not prev_kernel:
                # Syscall entry under virtualization: privileged I/O work
                # traps to the hypervisor (VM exit + resume).
                fetch.fetch_time += vm_transition
                fetch.slots_used = 0
                vm_exits += 1
                vm_exit_cycles += vm_transition
            prev_kernel = uop.kernel
            fetch_cycle = fetch.fetch(uop)
            base = fetch_cycle + FRONT_DEPTH

            # Rename width: at most rename_width ops begin dispatch per cycle.
            if base <= dispatch_cycle:
                if dispatch_in_cycle >= rename_width:
                    base = dispatch_cycle + 1
                    dispatch_in_cycle = 0
                else:
                    base = dispatch_cycle
            else:
                dispatch_in_cycle = 0

            # RAT conflicts: sampled once per dispatch cycle.
            if rat_conflict_ratio > 0.0 and base != rat_sampled_cycle:
                rat_sampled_cycle = base
                if rng.random() < rat_conflict_ratio:
                    result.rat_stall_cycles += RAT_STALL_PENALTY
                    base += RAT_STALL_PENALTY
                    dispatch_in_cycle = 0

            # Back-end structural constraints.
            t = base
            slot = rs.earliest_slot(base)
            if slot > base:
                result.rs_full_stall_cycles += slot - base
                if slot > t:
                    t = slot
            slot = rob.earliest_slot(base)
            if slot > base:
                result.rob_full_stall_cycles += slot - base
                if slot > t:
                    t = slot
            if op == OpClass.LOAD:
                slot = load_buffer.earliest_slot(base)
                if slot > base:
                    result.load_stall_cycles += slot - base
                    if slot > t:
                        t = slot
            elif op == OpClass.STORE:
                slot = store_buffer.earliest_slot(base)
                if slot > base:
                    result.store_stall_cycles += slot - base
                    if slot > t:
                        t = slot

            if t == dispatch_cycle:
                dispatch_in_cycle += 1
            else:
                dispatch_cycle = t
                dispatch_in_cycle = 1

            # Operand readiness.
            ready = t + 1
            dep = uop.dep1
            if dep:
                producer = complete_ring[(i - dep) % ring_size]
                if producer > ready:
                    ready = producer
            dep = uop.dep2
            if dep:
                producer = complete_ring[(i - dep) % ring_size]
                if producer > ready:
                    ready = producer

            # Execute.  Issue ports: one load, one store, one FP/MUL/DIV
            # pipe and ALU capacity modelled as reciprocal-throughput
            # counters; the op issues when ready *and* its port is free.
            if op == OpClass.LOAD:
                issue = ready if ready > port_load else port_load
                port_load = issue + 1
                tlb_latency = dtlb.translate(uop.addr)
                mem_latency = dcache.access(uop.addr)
                complete = issue + tlb_latency + mem_latency
                # Memory bandwidth: every DRAM line transfer (demand or
                # prefetch) occupies the channel; an access that caused
                # transfers cannot complete before the channel drains.
                transfers = dcache.dram_transfers - dram_seen
                if transfers:
                    dram_seen = dcache.dram_transfers
                    dram_free = (dram_free if dram_free > issue else issue) + (
                        transfers * dram_occupancy
                    )
                    if complete < dram_free:
                        complete = dram_free
                load_buffer.occupy(complete)
                result.loads += 1
            elif op == OpClass.STORE:
                issue = ready if ready > port_store else port_store
                port_store = issue + 1
                tlb_latency = dtlb.translate(uop.addr)
                complete = issue + 1 + tlb_latency
                # The store drains to the cache after retiring; the buffer
                # entry is held until the write completes.
                mem_latency = dcache.access(uop.addr)
                drain_done = complete + STORE_DRAIN_LATENCY + mem_latency
                transfers = dcache.dram_transfers - dram_seen
                if transfers:
                    dram_seen = dcache.dram_transfers
                    dram_free = (dram_free if dram_free > issue else issue) + (
                        transfers * dram_occupancy
                    )
                    if drain_done < dram_free:
                        drain_done = dram_free
                store_buffer.occupy(drain_done)
                result.stores += 1
            elif op == OpClass.BRANCH:
                issue = ready
                complete = issue + execution.latency(op)
                outcome = branch_unit.resolve(uop.pc, uop.taken, uop.target)
                if outcome == BRANCH_MISPREDICT:
                    fetch.redirect(complete)
                elif outcome == BRANCH_MISFETCH:
                    fetch.misfetch()
            elif op == OpClass.ALU:
                issue = ready
                complete = issue + 1
            else:
                # FP / MUL / DIV share one pipe; DIV is unpipelined.
                issue = ready if ready > port_fp else port_fp
                latency = execution.latency(op)
                port_fp = issue + (latency if op == OpClass.DIV else 1)
                complete = issue + latency

            rs.occupy(issue)
            complete_ring[i % ring_size] = complete

            # In-order retirement, bounded by retire width.
            retire = complete
            if retire < last_retire:
                retire = last_retire
            width_gate = retire_ring[(i - retire_width) % retire_ring_size] + 1 if i >= retire_width else 0
            if retire < width_gate:
                retire = width_gate
            retire_ring[i % retire_ring_size] = retire
            last_retire = retire
            rob.push_release(retire)

            if uop.kernel:
                result.kernel_instructions += 1
            i += 1
            if i == warmup:
                # End of ramp-up: rebase every counter here.
                baseline = self._counter_snapshot(fetch)
                baseline_result = (result.kernel_instructions, result.loads, result.stores)
                baseline_stalls = (
                    result.rat_stall_cycles,
                    result.rs_full_stall_cycles,
                    result.rob_full_stall_cycles,
                    result.load_stall_cycles,
                    result.store_stall_cycles,
                )
                baseline_retire = last_retire

        end = self._counter_snapshot(fetch)
        result.instructions = i - (warmup if i > warmup else 0)
        result.cycles = max(last_retire - (baseline_retire if i > warmup else 0), 1)
        result.kernel_instructions -= baseline_result[0]
        result.loads -= baseline_result[1]
        result.stores -= baseline_result[2]
        result.rat_stall_cycles -= baseline_stalls[0]
        result.rs_full_stall_cycles -= baseline_stalls[1]
        result.rob_full_stall_cycles -= baseline_stalls[2]
        result.load_stall_cycles -= baseline_stalls[3]
        result.store_stall_cycles -= baseline_stalls[4]
        delta = {key: end[key] - baseline[key] for key in end}
        result.fetch_stall_cycles = delta["icache_stall"] + delta["itlb_stall"]
        result.mispredict_stall_cycles = delta["mispredict_stall"]
        result.l1i_accesses = delta["l1i_hits"] + delta["l1i_misses"]
        result.l1i_misses = delta["l1i_misses"]
        result.l1d_accesses = delta["l1d_hits"] + delta["l1d_misses"]
        result.l1d_misses = delta["l1d_misses"]
        result.l2_accesses = delta["l2_hits"] + delta["l2_misses"]
        result.l2_misses = delta["l2_misses"]
        result.l3_accesses = delta["l3_hits"] + delta["l3_misses"]
        result.l3_misses = delta["l3_misses"]
        result.itlb_walks = delta["itlb_walks"]
        result.dtlb_walks = delta["dtlb_walks"]
        result.branches = delta["branches"]
        result.branch_mispredictions = delta["mispredictions"]
        result.extra["itlb_stall_cycles"] = delta["itlb_stall"]
        result.extra["icache_stall_cycles"] = delta["icache_stall"]
        result.extra["dram_transfers"] = delta["dram_transfers"]
        result.extra["warmup_instructions"] = warmup if i > warmup else 0
        if virtualized:
            result.extra["vm_exits"] = vm_exits
            result.extra["vm_exit_cycles"] = vm_exit_cycles
        return result

    def _counter_snapshot(self, fetch) -> dict[str, int]:
        """Snapshot of every monotonic hardware counter (for warmup rebasing)."""
        return {
            "l1i_hits": self.l1i.hits,
            "l1i_misses": self.l1i.misses,
            "l1d_hits": self.l1d.hits,
            "l1d_misses": self.l1d.misses,
            "l2_hits": self.l2.hits,
            "l2_misses": self.l2.misses,
            "l3_hits": self.l3.hits,
            "l3_misses": self.l3.misses,
            "itlb_walks": self.itlb.completed_walks,
            "dtlb_walks": self.dtlb.completed_walks,
            "branches": self.branch_unit.branches,
            "mispredictions": self.branch_unit.mispredictions,
            "icache_stall": fetch.icache_stall_cycles,
            "itlb_stall": fetch.itlb_stall_cycles,
            "mispredict_stall": fetch.mispredict_stall_cycles,
            "dram_transfers": self.icache_path.dram_transfers + self.dcache_path.dram_transfers,
        }


def simulate(
    spec_or_trace,
    machine: MachineConfig = XEON_E5645,
    engine: str = "reference",
) -> SimulationResult:
    """Convenience wrapper: build a fresh core and run one trace on it.

    ``engine`` selects the implementation: ``"reference"`` is this module's
    per-μop interpreter; ``"fast"`` is the batched engine in
    :mod:`repro.perf.fastpath`, bit-identical by contract.  The fast engine
    needs a spec-backed trace (it replays generation in batch form), so
    arbitrary micro-op iterables always use the reference path.
    """
    if isinstance(spec_or_trace, TraceSpec):
        trace = SyntheticTrace(spec_or_trace)
    elif hasattr(spec_or_trace, "__iter__"):
        trace = spec_or_trace
    else:
        raise TypeError("expected a TraceSpec or an iterable of micro-ops")
    if engine == "fast":
        if isinstance(trace, SyntheticTrace):
            from repro.perf.fastpath import run_fast

            return run_fast(Core(machine), trace)
        engine = "reference"
    if engine != "reference":
        raise ValueError(f"unknown engine: {engine!r}")
    return Core(machine).run(trace)
