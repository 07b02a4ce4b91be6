"""Trace-driven micro-architecture simulator.

This package models a modern superscalar out-of-order core in the style of
the Intel Xeon E5645 (Westmere) used by the paper: an in-order front end
(L1 instruction cache, instruction TLB, branch predictor, decoder), a
register allocation table (RAT), and an out-of-order back end (reservation
station, re-order buffer, load/store buffers, execution ports) on top of a
three-level cache hierarchy with data TLBs and a page walker.

The simulator consumes abstract micro-op streams (:mod:`repro.uarch.trace`)
and produces the hardware performance-counter readings the paper collects
with ``perf``: cycles, instructions, cache/TLB miss counters, branch
mispredictions, and the six pipeline-stall categories of Figure 6.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "MicroOp": "isa",
    "OpClass": "isa",
    "CacheConfig": "config",
    "CoreConfig": "config",
    "MachineConfig": "config",
    "TlbConfig": "config",
    "XEON_E5645": "config",
    "hugepage_machine": "config",
    "scaled_machine": "config",
    "virtualized_machine": "config",
    "Cache": "caches",
    "CacheHierarchy": "caches",
    "Tlb": "tlb",
    "TlbHierarchy": "tlb",
    "PageWalker": "tlb",
    "BimodalPredictor": "branch",
    "BranchTargetBuffer": "branch",
    "BranchUnit": "branch",
    "GSharePredictor": "branch",
    "TournamentPredictor": "branch",
    "make_direction_predictor": "branch",
    "MemoryRegion": "trace",
    "SyntheticTrace": "trace",
    "TraceSpec": "trace",
    "TraceStats": "trace",
    "Core": "pipeline",
    "SimulationResult": "pipeline",
    "simulate": "pipeline",
})
