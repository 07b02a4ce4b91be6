"""Batched fast-path simulation engine.

``run_fast(core, trace)`` produces a :class:`~repro.uarch.pipeline.SimulationResult`
**bit-identical** to ``core.run(trace)`` (the reference engine) while running
several times faster.  Three mechanisms, none of which changes a counter:

1. **Batched micro-op streams** — the trace is expanded through
   :meth:`~repro.uarch.trace.SyntheticTrace.iter_batches` into
   struct-of-arrays :class:`~repro.uarch.trace.TraceBatch` chunks instead of
   one ``MicroOp`` object per instruction, eliminating per-op object
   construction and generator suspension.
2. **Decode on use** — the address stages are shifts computed only where
   their result is read: the L1I line per μop, the I-page on a line
   change, the D-line and D-page in the load/store arms, and the
   ``pc >> 2`` predictor/BTB key in the branch arm.
3. **Flattened scalar mechanics** — the inherently sequential parts
   (LRU state machines, branch-history updates, the one-pass timing model)
   run in a single loop over local variables.  The common case is inlined
   in that loop: the DTLB and L1D hit (with its move-to-front), and on an
   I-line change the ITLB and L1I hit.  Only misses call closures over the
   flat state (``translate_*_miss``/``access_*_miss`` start at the L1
   miss), and the branch unit reads each predictor counter once.  The
   RS/load/store buffers drain lazily — stale entries are popped only when
   a heap reaches capacity, which is exact because the dispatch base never
   decreases — and one ``deque`` of recent retire times serves both the
   ROB slot and the retire-width gate.

The sequential mechanics are *transliterated* from the reference modules
(`uarch/pipeline.py`, `frontend.py`, `caches.py`, `tlb.py`, `branch.py`)
line for line: same update order, same float expressions, same RNG call
sequence.  The contract — fast ≡ reference, bit for bit, for every counter
— is enforced by ``tests/uarch/test_fastpath.py`` (hypothesis property over
randomized specs and machines) and by the CI ``perf`` tier's equivalence
matrix.  After a run, the core's cache/TLB/predictor state is written back,
so a reused :class:`~repro.uarch.pipeline.Core` behaves identically no
matter which engine ran first.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush

from repro.uarch.branch import GSharePredictor, TournamentPredictor
from repro.uarch.frontend import FRONT_DEPTH, FetchEngine
from repro.uarch.isa import OpClass
from repro.uarch.pipeline import (
    RAT_STALL_PENALTY,
    STORE_DRAIN_LATENCY,
    SimulationResult,
)
from repro.uarch.trace import (
    DEFAULT_BATCH_SIZE,
    MAX_DEP_DISTANCE,
    SyntheticTrace,
    TraceSpec,
)


def run_fast(
    core,
    trace,
    rat_conflict_ratio: float | None = None,
    name: str | None = None,
    warmup: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> SimulationResult:
    """Fast-engine twin of :meth:`repro.uarch.pipeline.Core.run`.

    Accepts a :class:`TraceSpec` or a :class:`SyntheticTrace` (the batched
    generator needs the spec; arbitrary micro-op iterables stay on the
    reference engine).
    """
    if isinstance(trace, TraceSpec):
        trace = SyntheticTrace(trace)
    if not isinstance(trace, SyntheticTrace):
        raise TypeError("run_fast requires a TraceSpec or SyntheticTrace")
    spec = trace.spec
    if rat_conflict_ratio is None:
        rat_conflict_ratio = getattr(spec, "partial_register_ratio", 0.0)
    if name is None:
        name = getattr(spec, "name", "trace")
    if warmup is None:
        warmup = len(trace) // 5

    machine = core.machine
    core_cfg = machine.core
    result = SimulationResult(name=name, machine=machine.name)

    # ---- flatten the cache hierarchy --------------------------------------
    l1i = core.l1i
    l1d = core.l1d
    l2 = core.l2
    l3 = core.l3
    l1i_sets = l1i._sets
    l1d_sets = l1d._sets
    l2_sets = l2._sets
    l3_sets = l3._sets
    l1i_mask, l1i_nsets, l1i_ways = l1i._set_mask, l1i._num_sets, l1i.ways
    l1d_mask, l1d_nsets, l1d_ways = l1d._set_mask, l1d._num_sets, l1d.ways
    l2_mask, l2_nsets, l2_ways = l2._set_mask, l2._num_sets, l2.ways
    l3_mask, l3_nsets, l3_ways = l3._set_mask, l3._num_sets, l3.ways
    l1i_shift = l1i._line_shift
    l1d_shift = l1d._line_shift
    l2_shift = l2._line_shift
    l3_shift = l3._line_shift
    l1i_hitlat = l1i.config.hit_latency
    l1d_hitlat = l1d.config.hit_latency
    l2_hitlat = l2.config.hit_latency
    l3_hitlat = l3.config.hit_latency
    memory_latency = machine.memory_latency
    prefetch = core.icache_path.prefetch
    i_line_bytes = core.icache_path._line_bytes
    d_line_bytes = core.dcache_path._line_bytes

    l1i_hits, l1i_misses, l1i_evict = l1i.hits, l1i.misses, l1i.evictions
    l1d_hits, l1d_misses, l1d_evict = l1d.hits, l1d.misses, l1d.evictions
    l2_hits, l2_misses, l2_evict = l2.hits, l2.misses, l2.evictions
    l3_hits, l3_misses, l3_evict = l3.hits, l3.misses, l3.evictions
    i_dram = core.icache_path.dram_transfers
    d_dram = core.dcache_path.dram_transfers
    i_pref_fills = core.icache_path.prefetch_fills
    d_pref_fills = core.dcache_path.prefetch_fills

    # ---- flatten the TLBs -------------------------------------------------
    itlb_l1 = core.itlb.l1
    dtlb_l1 = core.dtlb.l1
    l2tlb = core.l2tlb
    walker = core.walker
    itlb_sets, itlb_mask, itlb_nsets, itlb_ways = (
        itlb_l1._sets,
        itlb_l1._set_mask,
        itlb_l1._num_sets,
        itlb_l1.ways,
    )
    dtlb_sets, dtlb_mask, dtlb_nsets, dtlb_ways = (
        dtlb_l1._sets,
        dtlb_l1._set_mask,
        dtlb_l1._num_sets,
        dtlb_l1.ways,
    )
    l2tlb_sets, l2tlb_mask, l2tlb_nsets, l2tlb_ways = (
        l2tlb._sets,
        l2tlb._set_mask,
        l2tlb._num_sets,
        l2tlb.ways,
    )
    itlb_shift = itlb_l1._page_shift
    dtlb_shift = dtlb_l1._page_shift
    l2tlb_shift = l2tlb._page_shift
    walk_latency = walker.walk_latency
    itlb_hits, itlb_misses = itlb_l1.hits, itlb_l1.misses
    dtlb_hits, dtlb_misses = dtlb_l1.hits, dtlb_l1.misses
    l2tlb_hits, l2tlb_misses = l2tlb.hits, l2tlb.misses
    itlb_hier_walks = core.itlb.completed_walks
    dtlb_hier_walks = core.dtlb.completed_walks
    walker_walks = walker.completed_walks

    # ---- flatten the branch unit ------------------------------------------
    branch_unit = core.branch_unit
    direction = branch_unit.direction
    btb = branch_unit.btb
    btb_sets = btb._sets
    btb_set_mask = btb._set_mask
    btb_ways = btb.ways
    btb_hits, btb_misses = btb.hits, btb.misses
    bu_branches = branch_unit.branches
    bu_mispredicts = branch_unit.mispredictions
    bu_misfetches = branch_unit.misfetches

    if isinstance(direction, TournamentPredictor):
        pred_kind = 2
        ch_table, ch_mask = direction._chooser, direction._mask
        b_table, b_mask = direction._bimodal._table, direction._bimodal._mask
        gsh = direction._gshare
        g_table, g_mask = gsh._table, gsh._mask
        g_hist = gsh._history
        g_hist_mask = (1 << gsh._history_bits) - 1
    elif isinstance(direction, GSharePredictor):
        pred_kind = 1
        g_table, g_mask = direction._table, direction._mask
        g_hist = direction._history
        g_hist_mask = (1 << direction._history_bits) - 1
        b_table = b_mask = ch_table = ch_mask = None
    else:  # BimodalPredictor
        pred_kind = 0
        b_table, b_mask = direction._table, direction._mask
        g_table = g_mask = ch_table = ch_mask = None
        g_hist = g_hist_mask = 0

    # ---- front-end / pipeline locals --------------------------------------
    fetch_width = core_cfg.fetch_width
    rename_width = core_cfg.rename_width
    retire_width = core_cfg.retire_width
    mispredict_penalty = core_cfg.mispredict_penalty
    redirect_gap = max(1, mispredict_penalty - FRONT_DEPTH)
    fetch_time = 0
    slots_used = 0
    current_line = -1
    icache_stall = 0
    itlb_stall = 0
    mispredict_stall = 0

    rs_cap = core_cfg.rs_entries
    rob_cap = core_cfg.rob_entries
    lb_cap = core_cfg.load_buffer_entries
    sb_cap = core_cfg.store_buffer_entries
    # Buffer heaps drain lazily: entries <= base are popped only once a
    # heap reaches capacity.  base never decreases (fetch time only grows
    # and rename lifts base to >= the last dispatch cycle), so a stale
    # entry can never gate dispatch again; each heap stays <= its cap.
    rs_heap: list[int] = []
    lb_heap: list[int] = []
    sb_heap: list[int] = []

    rng = random.Random((getattr(spec, "seed", 0) or 0) + 0x5A17)
    rng_random = rng.random

    latencies = core.execution.latencies
    lat_branch = latencies[OpClass.BRANCH]
    # Dense latency table indexed by int op class for the FP/MUL/DIV arm.
    lat_table = [latencies[OpClass(k)] for k in range(len(OpClass))]

    # Power-of-two ring of completion times, > MAX_DEP_DISTANCE slots.
    ring_mask = (1 << MAX_DEP_DISTANCE.bit_length()) - 1
    complete_ring = [0] * (ring_mask + 1)
    # retired[-k] is the retire time of the op k back.  The -1 prefill
    # stands for "no such op": the ROB slot is free (max(-1, base) = base)
    # and the retire-width gate is -1 + 1 = 0, as in RingTracker/Core.run.
    history = max(rob_cap, retire_width)
    retired = deque([-1] * history, history)
    retire_append = retired.append
    rob_back = -rob_cap
    width_back = -retire_width
    last_retire = 0

    # Constants as locals: the loop reads them on every μop.
    op_alu, op_load, op_store = int(OpClass.ALU), int(OpClass.LOAD), int(OpClass.STORE)
    op_branch, op_div = int(OpClass.BRANCH), int(OpClass.DIV)
    front_depth = FRONT_DEPTH
    rat_penalty = RAT_STALL_PENALTY
    misfetch_bubble = FetchEngine.MISFETCH_BUBBLE
    store_drain = STORE_DRAIN_LATENCY
    drain_hit = STORE_DRAIN_LATENCY + l1d_hitlat

    dispatch_cycle = -1
    dispatch_in_cycle = 0
    rat_sampled_cycle = -1
    virtualized = machine.virtualized
    rat_sampling = rat_conflict_ratio > 0.0
    vm_transition = machine.vm_transition_cycles
    vm_exits = 0
    vm_exit_cycles = 0
    prev_kernel = False

    dram_free = 0
    dram_occupancy = machine.dram_cycles_per_line
    dram_seen = d_dram
    port_load = 0
    port_store = 0
    port_fp = 0

    loads = 0
    stores = 0
    kernel_instructions = 0
    rat_stall = 0
    rs_stall = 0
    rob_stall = 0
    load_stall = 0
    store_stall = 0

    # ---- out-of-line component mechanics ----------------------------------
    # The loop below inlines every L1 hit; each closure transliterates the
    # rest of one reference method chain over the flat locals above, from
    # the L1 miss on (``ways`` is the L1 set the loop already looked up).
    # Call sites mirror the reference call order.

    def access_i_miss(addr_: int, line_: int, ways: list) -> int:
        """CacheHierarchy.access on the instruction path, from the L1I miss."""
        nonlocal l1i_misses, l1i_evict, l2_hits, l2_misses, l2_evict
        nonlocal l3_hits, l3_misses, l3_evict, i_dram, i_pref_fills
        l1i_misses += 1
        ways.insert(0, line_)
        if len(ways) > l1i_ways:
            ways.pop()
            l1i_evict += 1
        latency = l1i_hitlat + l2_hitlat
        line2 = addr_ >> l2_shift
        ways = l2_sets[line2 & l2_mask if l2_mask is not None else line2 % l2_nsets]
        if line2 in ways:
            if ways[0] != line2:
                ways.remove(line2)
                ways.insert(0, line2)
            l2_hits += 1
            if prefetch:
                nxt = addr_ + i_line_bytes
                p2 = nxt >> l2_shift
                if p2 not in l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]:
                    p3 = nxt >> l3_shift
                    ways3 = l3_sets[p3 & l3_mask if l3_mask is not None else p3 % l3_nsets]
                    if p3 not in ways3:
                        ways3.insert(0, p3)
                        if len(ways3) > l3_ways:
                            ways3.pop()
                            l3_evict += 1
                        i_dram += 1
                    ways2 = l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]
                    ways2.insert(0, p2)
                    if len(ways2) > l2_ways:
                        ways2.pop()
                        l2_evict += 1
                    i_pref_fills += 1
            return latency
        l2_misses += 1
        ways.insert(0, line2)
        if len(ways) > l2_ways:
            ways.pop()
            l2_evict += 1
        latency += l3_hitlat
        line3 = addr_ >> l3_shift
        ways = l3_sets[line3 & l3_mask if l3_mask is not None else line3 % l3_nsets]
        if line3 in ways:
            if ways[0] != line3:
                ways.remove(line3)
                ways.insert(0, line3)
            l3_hits += 1
        else:
            l3_misses += 1
            ways.insert(0, line3)
            if len(ways) > l3_ways:
                ways.pop()
                l3_evict += 1
            latency += memory_latency
            i_dram += 1
        if prefetch:
            nxt = addr_ + i_line_bytes
            p2 = nxt >> l2_shift
            if p2 not in l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]:
                p3 = nxt >> l3_shift
                ways3 = l3_sets[p3 & l3_mask if l3_mask is not None else p3 % l3_nsets]
                if p3 not in ways3:
                    ways3.insert(0, p3)
                    if len(ways3) > l3_ways:
                        ways3.pop()
                        l3_evict += 1
                    i_dram += 1
                ways2 = l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]
                ways2.insert(0, p2)
                if len(ways2) > l2_ways:
                    ways2.pop()
                    l2_evict += 1
                i_pref_fills += 1
        return latency

    def access_d_miss(addr_: int, line_: int, ways: list) -> int:
        """CacheHierarchy.access on the data path, from the L1D miss."""
        nonlocal l1d_misses, l1d_evict, l2_hits, l2_misses, l2_evict
        nonlocal l3_hits, l3_misses, l3_evict, d_dram, d_pref_fills
        l1d_misses += 1
        ways.insert(0, line_)
        if len(ways) > l1d_ways:
            ways.pop()
            l1d_evict += 1
        latency = l1d_hitlat + l2_hitlat
        line2 = addr_ >> l2_shift
        ways = l2_sets[line2 & l2_mask if l2_mask is not None else line2 % l2_nsets]
        if line2 in ways:
            if ways[0] != line2:
                ways.remove(line2)
                ways.insert(0, line2)
            l2_hits += 1
            if prefetch:
                nxt = addr_ + d_line_bytes
                p2 = nxt >> l2_shift
                if p2 not in l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]:
                    p3 = nxt >> l3_shift
                    ways3 = l3_sets[p3 & l3_mask if l3_mask is not None else p3 % l3_nsets]
                    if p3 not in ways3:
                        ways3.insert(0, p3)
                        if len(ways3) > l3_ways:
                            ways3.pop()
                            l3_evict += 1
                        d_dram += 1
                    ways2 = l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]
                    ways2.insert(0, p2)
                    if len(ways2) > l2_ways:
                        ways2.pop()
                        l2_evict += 1
                    d_pref_fills += 1
            return latency
        l2_misses += 1
        ways.insert(0, line2)
        if len(ways) > l2_ways:
            ways.pop()
            l2_evict += 1
        latency += l3_hitlat
        line3 = addr_ >> l3_shift
        ways = l3_sets[line3 & l3_mask if l3_mask is not None else line3 % l3_nsets]
        if line3 in ways:
            if ways[0] != line3:
                ways.remove(line3)
                ways.insert(0, line3)
            l3_hits += 1
        else:
            l3_misses += 1
            ways.insert(0, line3)
            if len(ways) > l3_ways:
                ways.pop()
                l3_evict += 1
            latency += memory_latency
            d_dram += 1
        if prefetch:
            nxt = addr_ + d_line_bytes
            p2 = nxt >> l2_shift
            if p2 not in l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]:
                p3 = nxt >> l3_shift
                ways3 = l3_sets[p3 & l3_mask if l3_mask is not None else p3 % l3_nsets]
                if p3 not in ways3:
                    ways3.insert(0, p3)
                    if len(ways3) > l3_ways:
                        ways3.pop()
                        l3_evict += 1
                    d_dram += 1
                ways2 = l2_sets[p2 & l2_mask if l2_mask is not None else p2 % l2_nsets]
                ways2.insert(0, p2)
                if len(ways2) > l2_ways:
                    ways2.pop()
                    l2_evict += 1
                d_pref_fills += 1
        return latency

    def translate_i_miss(addr_: int, page_: int, ways: list) -> int:
        """TlbHierarchy.translate on the instruction side, from the ITLB miss."""
        nonlocal itlb_misses, l2tlb_hits, l2tlb_misses, itlb_hier_walks, walker_walks
        itlb_misses += 1
        ways.insert(0, page_)
        if len(ways) > itlb_ways:
            ways.pop()
        page2 = page_ if l2tlb_shift == itlb_shift else addr_ >> l2tlb_shift
        ways = l2tlb_sets[page2 & l2tlb_mask if l2tlb_mask is not None else page2 % l2tlb_nsets]
        if page2 in ways:
            if ways[0] != page2:
                ways.remove(page2)
                ways.insert(0, page2)
            l2tlb_hits += 1
            return 7
        l2tlb_misses += 1
        ways.insert(0, page2)
        if len(ways) > l2tlb_ways:
            ways.pop()
        itlb_hier_walks += 1
        walker_walks += 1
        return walk_latency

    def translate_d_miss(addr_: int, page_: int, ways: list) -> int:
        """TlbHierarchy.translate on the data side, from the DTLB miss."""
        nonlocal dtlb_misses, l2tlb_hits, l2tlb_misses, dtlb_hier_walks, walker_walks
        dtlb_misses += 1
        ways.insert(0, page_)
        if len(ways) > dtlb_ways:
            ways.pop()
        page2 = page_ if l2tlb_shift == dtlb_shift else addr_ >> l2tlb_shift
        ways = l2tlb_sets[page2 & l2tlb_mask if l2tlb_mask is not None else page2 % l2tlb_nsets]
        if page2 in ways:
            if ways[0] != page2:
                ways.remove(page2)
                ways.insert(0, page2)
            l2tlb_hits += 1
            return 7
        l2tlb_misses += 1
        ways.insert(0, page2)
        if len(ways) > l2tlb_ways:
            ways.pop()
        dtlb_hier_walks += 1
        walker_walks += 1
        return walk_latency

    def resolve_branch(pc2_: int, taken_: bool, target_: int) -> int:
        """BranchUnit.resolve: predict, BTB, update, count; returns outcome.

        Each predictor counter is read once: predict and update both use
        the pre-update values, as the reference does.  One BTB scan serves
        the reference's lookup (taken and predicted taken) and install.
        """
        nonlocal bu_branches, bu_mispredicts, bu_misfetches
        nonlocal btb_hits, btb_misses, g_hist
        bu_branches += 1
        if pred_kind == 2:
            c_idx = pc2_ & ch_mask
            b_idx = pc2_ & b_mask
            g_idx = (pc2_ ^ g_hist) & g_mask
            chooser = ch_table[c_idx]
            b_ctr = b_table[b_idx]
            g_ctr = g_table[g_idx]
            b_taken = b_ctr >= 2
            g_taken = g_ctr >= 2
            predicted = g_taken if chooser >= 2 else b_taken
            # Chooser trains toward whichever component alone was right.
            if b_taken != g_taken:
                if g_taken == taken_:
                    if chooser < 3:
                        ch_table[c_idx] = chooser + 1
                elif chooser > 0:
                    ch_table[c_idx] = chooser - 1
            if taken_:
                if b_ctr < 3:
                    b_table[b_idx] = b_ctr + 1
                if g_ctr < 3:
                    g_table[g_idx] = g_ctr + 1
                g_hist = ((g_hist << 1) | 1) & g_hist_mask
            else:
                if b_ctr > 0:
                    b_table[b_idx] = b_ctr - 1
                if g_ctr > 0:
                    g_table[g_idx] = g_ctr - 1
                g_hist = (g_hist << 1) & g_hist_mask
        elif pred_kind == 1:
            g_idx = (pc2_ ^ g_hist) & g_mask
            g_ctr = g_table[g_idx]
            predicted = g_ctr >= 2
            if taken_:
                if g_ctr < 3:
                    g_table[g_idx] = g_ctr + 1
                g_hist = ((g_hist << 1) | 1) & g_hist_mask
            else:
                if g_ctr > 0:
                    g_table[g_idx] = g_ctr - 1
                g_hist = (g_hist << 1) & g_hist_mask
        else:
            b_idx = pc2_ & b_mask
            b_ctr = b_table[b_idx]
            predicted = b_ctr >= 2
            if taken_:
                if b_ctr < 3:
                    b_table[b_idx] = b_ctr + 1
            elif b_ctr > 0:
                b_table[b_idx] = b_ctr - 1
        if not taken_:
            if predicted:
                bu_mispredicts += 1
                return 1
            return 0
        # Taken: the BTB lookup runs only when the direction was right;
        # the install always runs.  Lookup's move-to-front followed by
        # install's remove + insert-at-front is one remove + insert.
        outcome = 0 if predicted else 1
        ways = btb_sets[pc2_ & btb_set_mask]
        for wi, (tag, stored) in enumerate(ways):
            if tag == pc2_:
                if predicted:
                    btb_hits += 1
                    if stored != target_:
                        outcome = 1
                if wi or stored != target_:
                    del ways[wi]
                    ways.insert(0, (pc2_, target_))
                break
        else:
            if predicted:
                btb_misses += 1
                outcome = 2
            ways.insert(0, (pc2_, target_))
            if len(ways) > btb_ways:
                ways.pop()
        if outcome == 1:
            bu_mispredicts += 1
        elif outcome == 2:
            bu_misfetches += 1
        return outcome

    def snapshot() -> tuple:
        """The reference _counter_snapshot, over the flat locals."""
        return (
            l1i_hits,
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l2_hits,
            l2_misses,
            l3_hits,
            l3_misses,
            itlb_hier_walks,
            dtlb_hier_walks,
            bu_branches,
            bu_mispredicts,
            icache_stall,
            itlb_stall,
            mispredict_stall,
            i_dram + d_dram,
        )

    baseline = snapshot()
    baseline_result = (0, 0, 0)
    baseline_stalls = (0, 0, 0, 0, 0)
    baseline_retire = 0

    i = 0
    for batch in trace.iter_batches(batch_size):
        for op_, pc_, addr_, taken_, target_, dep1_, dep2_, kernel_ in zip(
            batch.op,
            batch.pc,
            batch.addr,
            batch.taken,
            batch.target,
            batch.dep1,
            batch.dep2,
            batch.kernel,
        ):
            if virtualized:
                if kernel_ and not prev_kernel:
                    fetch_time += vm_transition
                    slots_used = 0
                    vm_exits += 1
                    vm_exit_cycles += vm_transition
                prev_kernel = kernel_

            # -- fetch (FetchEngine.fetch) --
            iline_ = pc_ >> l1i_shift
            if iline_ != current_line:
                current_line = iline_
                page_ = pc_ >> itlb_shift
                ways = itlb_sets[
                    page_ & itlb_mask if itlb_mask is not None else page_ % itlb_nsets
                ]
                if page_ in ways:
                    if ways[0] != page_:
                        ways.remove(page_)
                        ways.insert(0, page_)
                    itlb_hits += 1
                else:
                    tlb_latency = translate_i_miss(pc_, page_, ways)
                    if tlb_latency:
                        fetch_time += tlb_latency
                        itlb_stall += tlb_latency
                        slots_used = 0
                ways = l1i_sets[iline_ & l1i_mask if l1i_mask is not None else iline_ % l1i_nsets]
                if iline_ in ways:
                    if ways[0] != iline_:
                        ways.remove(iline_)
                        ways.insert(0, iline_)
                    l1i_hits += 1
                else:
                    latency = access_i_miss(pc_, iline_, ways)
                    if latency > l1i_hitlat:
                        stall = latency - l1i_hitlat - 8  # FETCH_HIDE
                        if stall > 0:
                            fetch_time += stall
                            icache_stall += stall
                            slots_used = 0
            fetch_cycle = fetch_time
            slots_used += 1
            if slots_used >= fetch_width:
                fetch_time += 1
                slots_used = 0
            base = fetch_cycle + front_depth

            # -- rename width --
            if base <= dispatch_cycle:
                if dispatch_in_cycle >= rename_width:
                    base = dispatch_cycle + 1
                    dispatch_in_cycle = 0
                else:
                    base = dispatch_cycle
            else:
                dispatch_in_cycle = 0

            # -- RAT conflicts --
            if rat_sampling and base != rat_sampled_cycle:
                rat_sampled_cycle = base
                if rng_random() < rat_conflict_ratio:
                    rat_stall += rat_penalty
                    base += rat_penalty
                    dispatch_in_cycle = 0

            # -- back-end structural constraints --
            # BufferTracker.earliest_slot with a lazy drain: after it,
            # heap[0] > base, so a full buffer always stalls.
            t = base
            if len(rs_heap) >= rs_cap:
                while rs_heap and rs_heap[0] <= base:
                    heappop(rs_heap)
                if len(rs_heap) >= rs_cap:
                    t = rs_heap[0]
                    while rs_heap and rs_heap[0] <= t:
                        heappop(rs_heap)
                    rs_stall += t - base
            # ROB (RingTracker.earliest_slot)
            slot = retired[rob_back]
            if slot > base:
                rob_stall += slot - base
                if slot > t:
                    t = slot
            if op_ == op_load:
                if len(lb_heap) >= lb_cap:
                    while lb_heap and lb_heap[0] <= base:
                        heappop(lb_heap)
                    if len(lb_heap) >= lb_cap:
                        slot = lb_heap[0]
                        while lb_heap and lb_heap[0] <= slot:
                            heappop(lb_heap)
                        load_stall += slot - base
                        if slot > t:
                            t = slot
            elif op_ == op_store:
                if len(sb_heap) >= sb_cap:
                    while sb_heap and sb_heap[0] <= base:
                        heappop(sb_heap)
                    if len(sb_heap) >= sb_cap:
                        slot = sb_heap[0]
                        while sb_heap and sb_heap[0] <= slot:
                            heappop(sb_heap)
                        store_stall += slot - base
                        if slot > t:
                            t = slot

            if t == dispatch_cycle:
                dispatch_in_cycle += 1
            else:
                dispatch_cycle = t
                dispatch_in_cycle = 1

            # -- operand readiness --
            ready = t + 1
            if dep1_:
                producer = complete_ring[(i - dep1_) & ring_mask]
                if producer > ready:
                    ready = producer
            if dep2_:
                producer = complete_ring[(i - dep2_) & ring_mask]
                if producer > ready:
                    ready = producer

            # -- execute --
            if op_ == op_alu:
                issue = ready
                complete = issue + 1
            elif op_ == op_load:
                issue = ready if ready > port_load else port_load
                port_load = issue + 1
                complete = issue
                page_ = addr_ >> dtlb_shift
                ways = dtlb_sets[
                    page_ & dtlb_mask if dtlb_mask is not None else page_ % dtlb_nsets
                ]
                if page_ in ways:
                    if ways[0] != page_:
                        ways.remove(page_)
                        ways.insert(0, page_)
                    dtlb_hits += 1
                else:
                    complete += translate_d_miss(addr_, page_, ways)
                line_ = addr_ >> l1d_shift
                ways = l1d_sets[line_ & l1d_mask if l1d_mask is not None else line_ % l1d_nsets]
                if line_ in ways:
                    if ways[0] != line_:
                        ways.remove(line_)
                        ways.insert(0, line_)
                    l1d_hits += 1
                    complete += l1d_hitlat
                else:
                    complete += access_d_miss(addr_, line_, ways)
                    transfers = d_dram - dram_seen
                    if transfers:
                        dram_seen = d_dram
                        dram_free = (dram_free if dram_free > issue else issue) + (
                            transfers * dram_occupancy
                        )
                        if complete < dram_free:
                            complete = dram_free
                heappush(lb_heap, complete)
                loads += 1
            elif op_ == op_store:
                issue = ready if ready > port_store else port_store
                port_store = issue + 1
                complete = issue + 1
                page_ = addr_ >> dtlb_shift
                ways = dtlb_sets[
                    page_ & dtlb_mask if dtlb_mask is not None else page_ % dtlb_nsets
                ]
                if page_ in ways:
                    if ways[0] != page_:
                        ways.remove(page_)
                        ways.insert(0, page_)
                    dtlb_hits += 1
                else:
                    complete += translate_d_miss(addr_, page_, ways)
                line_ = addr_ >> l1d_shift
                ways = l1d_sets[line_ & l1d_mask if l1d_mask is not None else line_ % l1d_nsets]
                if line_ in ways:
                    if ways[0] != line_:
                        ways.remove(line_)
                        ways.insert(0, line_)
                    l1d_hits += 1
                    drain_done = complete + drain_hit
                else:
                    drain_done = complete + store_drain + access_d_miss(addr_, line_, ways)
                    transfers = d_dram - dram_seen
                    if transfers:
                        dram_seen = d_dram
                        dram_free = (dram_free if dram_free > issue else issue) + (
                            transfers * dram_occupancy
                        )
                        if drain_done < dram_free:
                            drain_done = dram_free
                heappush(sb_heap, drain_done)
                stores += 1
            elif op_ == op_branch:
                issue = ready
                complete = issue + lat_branch
                outcome = resolve_branch(pc_ >> 2, taken_, target_)
                if outcome == 1:
                    # FetchEngine.redirect
                    restart = complete + redirect_gap
                    if restart > fetch_time:
                        mispredict_stall += restart - fetch_time
                        fetch_time = restart
                        slots_used = 0
                        current_line = -1
                elif outcome == 2:
                    # FetchEngine.misfetch
                    fetch_time += misfetch_bubble
                    icache_stall += misfetch_bubble
                    slots_used = 0
            else:
                issue = ready if ready > port_fp else port_fp
                latency = lat_table[op_]
                port_fp = issue + (latency if op_ == op_div else 1)
                complete = issue + latency

            heappush(rs_heap, issue)
            complete_ring[i & ring_mask] = complete

            # -- in-order retirement --
            retire = complete
            if retire < last_retire:
                retire = last_retire
            width_gate = retired[width_back] + 1
            if retire < width_gate:
                retire = width_gate
            retire_append(retire)
            last_retire = retire

            if kernel_:
                kernel_instructions += 1
            i += 1
            if i == warmup:
                baseline = snapshot()
                baseline_result = (kernel_instructions, loads, stores)
                baseline_stalls = (rat_stall, rs_stall, rob_stall, load_stall, store_stall)
                baseline_retire = last_retire

    end = snapshot()
    result.instructions = i - (warmup if i > warmup else 0)
    result.cycles = max(last_retire - (baseline_retire if i > warmup else 0), 1)
    result.kernel_instructions = kernel_instructions - baseline_result[0]
    result.loads = loads - baseline_result[1]
    result.stores = stores - baseline_result[2]
    result.rat_stall_cycles = rat_stall - baseline_stalls[0]
    result.rs_full_stall_cycles = rs_stall - baseline_stalls[1]
    result.rob_full_stall_cycles = rob_stall - baseline_stalls[2]
    result.load_stall_cycles = load_stall - baseline_stalls[3]
    result.store_stall_cycles = store_stall - baseline_stalls[4]
    delta = [end[j] - baseline[j] for j in range(len(end))]
    result.fetch_stall_cycles = delta[12] + delta[13]
    result.mispredict_stall_cycles = delta[14]
    result.l1i_accesses = delta[0] + delta[1]
    result.l1i_misses = delta[1]
    result.l1d_accesses = delta[2] + delta[3]
    result.l1d_misses = delta[3]
    result.l2_accesses = delta[4] + delta[5]
    result.l2_misses = delta[5]
    result.l3_accesses = delta[6] + delta[7]
    result.l3_misses = delta[7]
    result.itlb_walks = delta[8]
    result.dtlb_walks = delta[9]
    result.branches = delta[10]
    result.branch_mispredictions = delta[11]
    result.extra["itlb_stall_cycles"] = delta[13]
    result.extra["icache_stall_cycles"] = delta[12]
    result.extra["dram_transfers"] = delta[15]
    result.extra["warmup_instructions"] = warmup if i > warmup else 0
    if virtualized:
        result.extra["vm_exits"] = vm_exits
        result.extra["vm_exit_cycles"] = vm_exit_cycles

    # ---- write the flattened state back to the core -----------------------
    l1i.hits, l1i.misses, l1i.evictions = l1i_hits, l1i_misses, l1i_evict
    l1d.hits, l1d.misses, l1d.evictions = l1d_hits, l1d_misses, l1d_evict
    l2.hits, l2.misses, l2.evictions = l2_hits, l2_misses, l2_evict
    l3.hits, l3.misses, l3.evictions = l3_hits, l3_misses, l3_evict
    core.icache_path.dram_transfers = i_dram
    core.icache_path.prefetch_fills = i_pref_fills
    core.dcache_path.dram_transfers = d_dram
    core.dcache_path.prefetch_fills = d_pref_fills
    itlb_l1.hits, itlb_l1.misses = itlb_hits, itlb_misses
    dtlb_l1.hits, dtlb_l1.misses = dtlb_hits, dtlb_misses
    l2tlb.hits, l2tlb.misses = l2tlb_hits, l2tlb_misses
    core.itlb.completed_walks = itlb_hier_walks
    core.dtlb.completed_walks = dtlb_hier_walks
    walker.completed_walks = walker_walks
    branch_unit.branches = bu_branches
    branch_unit.mispredictions = bu_mispredicts
    branch_unit.misfetches = bu_misfetches
    btb.hits, btb.misses = btb_hits, btb_misses
    if pred_kind == 2:
        direction._gshare._history = g_hist
    elif pred_kind == 1:
        direction._history = g_hist

    return result
