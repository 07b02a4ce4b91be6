"""The core's counter table: every raw counter and paper metric, declared once.

One :class:`Counter` row per integer field of
:class:`~repro.uarch.pipeline.SimulationResult` names the Westmere PMU
event the paper programs for it (event number and umask from the Intel
SDM; ``None`` for a counter no event reads) and the relations the model
must satisfy.  One :class:`Metric` row per scalar figure (Figures 3-4 and
7-12) holds its formula, axis label and formats; Figure 6 is the
normalised breakdown of the six counters with a ``stall`` category.

Everything that names a counter or metric is generated from these rows:
the rate methods of ``SimulationResult`` (:class:`Rates`),
``repro.perf.events.EVENT_CATALOG``, ``repro.core.metrics.Metrics``, the
export columns, ``repro.core.report.FIGURE_METRICS``, the ``characterize``
CLI table and :func:`violations`.

The module is stdlib-only and is not part of the simulation cache's code
digest: it reads counters out of a result and never changes one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple


@dataclass(frozen=True)
class Counter:
    """One raw counter: a ``SimulationResult`` field and its PMU event.

    ``relations`` are ``"<op> <expr>"`` strings with the field on the left:
    ``op`` is ``<=``, ``==`` or ``>=``, and ``expr`` a ``+``-sum of
    ``*``-products of names, each a counter field, an ``extra`` entry of
    the result or a ``CoreConfig`` parameter.
    """

    field: str
    pmu: str | None
    event_select: int
    umask: int
    description: str
    relations: tuple[str, ...] = ()
    #: Figure 6 category, for the six stall counters the figure normalises
    stall: str | None = None


@dataclass(frozen=True)
class Metric:
    """One scalar figure of the paper, computed from a result's counters."""

    name: str
    figure: int
    label: str
    #: value format of the figure's text table
    fmt: str
    formula: Callable
    #: (header, width, format spec) in the ``characterize`` CLI table
    column: tuple[str, int, str] | None = None


#: Every raw counter, in PMU-catalogue order.
COUNTERS: tuple[Counter, ...] = (
    Counter("cycles", "cycles", 0x3C, 0x00, "Unhalted core cycles"),
    Counter("instructions", "instructions", 0xC0, 0x00, "Instructions retired",
            (">= loads + stores", "<= cycles * retire_width")),
    Counter("kernel_instructions", "kernel-instructions", 0xC0, 0x02,
            "Instructions retired in ring 0", ("<= instructions",)),
    Counter("branches", "branches", 0xC4, 0x00, "Branch instructions retired",
            ("<= instructions",)),
    Counter("branch_mispredictions", "branch-misses", 0xC5, 0x00,
            "Mispredicted branch instructions retired", ("<= branches",)),
    Counter("l1i_accesses", "L1-icache-loads", 0x80, 0x03, "L1I fetches"),
    Counter("l1i_misses", "L1-icache-load-misses", 0x80, 0x02, "L1I misses",
            ("<= l1i_accesses",)),
    Counter("l1d_accesses", "L1-dcache-loads", 0x43, 0x01, "L1D accesses",
            ("== loads + stores",)),
    Counter("l1d_misses", "L1-dcache-load-misses", 0x51, 0x01, "L1D misses",
            ("<= l1d_accesses",)),
    Counter("l2_accesses", "l2_rqsts.references", 0x24, 0xFF, "L2 requests",
            ("== l1i_misses + l1d_misses",)),
    Counter("l2_misses", "l2_rqsts.miss", 0x24, 0xAA, "L2 misses", ("<= l2_accesses",)),
    Counter("l3_accesses", "llc.references", 0x2E, 0x4F, "L3 requests", ("== l2_misses",)),
    # prefetch fills count as DRAM transfers too
    Counter("l3_misses", "llc.misses", 0x2E, 0x41, "L3 misses",
            ("<= l3_accesses", "<= dram_transfers")),
    Counter("itlb_walks", "itlb_misses.walk_completed", 0x85, 0x02,
            "Completed page walks from ITLB misses", ("<= l1i_accesses",)),
    Counter("dtlb_walks", "dtlb_misses.walk_completed", 0x49, 0x02,
            "Completed page walks from DTLB misses", ("<= loads + stores",)),
    Counter("loads", "mem_inst_retired.loads", 0x0B, 0x01, "Loads retired"),
    Counter("stores", "mem_inst_retired.stores", 0x0B, 0x02, "Stores retired"),
    # Figure 6's categories are cycle counts that may overlap (the paper
    # normalises them; so do we)
    Counter("fetch_stall_cycles", "ild_stall.any", 0x87, 0x0F,
            "Instruction-fetch stall cycles (L1I + ITLB)", ("<= cycles",), "fetch"),
    Counter("rat_stall_cycles", "rat_stalls.any", 0xD2, 0x0F,
            "Register-allocation-table stall cycles", ("<= cycles",), "rat"),
    Counter("load_stall_cycles", "resource_stalls.load", 0xA2, 0x02,
            "Load-buffer-full stall cycles", ("<= cycles",), "load"),
    Counter("rs_full_stall_cycles", "resource_stalls.rs_full", 0xA2, 0x04,
            "Reservation-station-full stall cycles", ("<= cycles",), "rs_full"),
    Counter("store_stall_cycles", "resource_stalls.store", 0xA2, 0x08,
            "Store-buffer-full stall cycles", ("<= cycles",), "store"),
    Counter("rob_full_stall_cycles", "resource_stalls.rob_full", 0xA2, 0x10,
            "Re-order-buffer-full stall cycles", ("<= cycles",), "rob_full"),
    Counter("mispredict_stall_cycles", None, 0, 0,
            "Front-end cycles lost to branch redirects", ("<= cycles",)),
)

#: Figure 6 stall categories, in the legend's order.
STALL_CATEGORIES = tuple(c.stall for c in COUNTERS if c.stall)


def _ratio(numerator: str, denominator: str) -> Callable:
    num, den = operator.attrgetter(numerator), operator.attrgetter(denominator)
    return lambda r: num(r) / den(r) if den(r) else 0.0


def _per_kilo_instruction(counter: str) -> Callable:
    count = operator.attrgetter(counter)
    return lambda r: 1000.0 * count(r) / r.instructions if r.instructions else 0.0


def _l3_hit_ratio(r) -> float:
    """Equation 1: (L2 misses - L3 misses) / L2 misses."""
    if r.l2_misses == 0:
        return 0.0
    return max(0.0, (r.l2_misses - r.l3_misses) / r.l2_misses)


#: Every scalar figure, in figure order.
METRICS: tuple[Metric, ...] = (
    Metric("ipc", 3, "Instructions per cycle (IPC)", "{:.2f}",
           _ratio("instructions", "cycles"), ("ipc", 6, ".2f")),
    Metric("kernel_instruction_fraction", 4, "kernel instruction fraction", "{:.1%}",
           _ratio("kernel_instructions", "instructions"), ("kern", 7, ".1%")),
    Metric("l1i_mpki", 7, "L1I misses per K-instruction", "{:.1f}",
           _per_kilo_instruction("l1i_misses"), ("l1i", 7, ".1f")),
    Metric("itlb_walks_pki", 8, "ITLB-miss page walks per K-instruction", "{:.3f}",
           _per_kilo_instruction("itlb_walks")),
    Metric("l2_mpki", 9, "L2 misses per K-instruction", "{:.1f}",
           _per_kilo_instruction("l2_misses"), ("l2", 7, ".1f")),
    Metric("l3_hit_ratio_of_l2_misses", 10, "L3-hit ratio of L2 misses", "{:.1%}",
           _l3_hit_ratio, ("l3r", 6, ".0%")),
    Metric("dtlb_walks_pki", 11, "DTLB-miss page walks per K-instruction", "{:.3f}",
           _per_kilo_instruction("dtlb_walks"), ("dtlb", 7, ".2f")),
    Metric("branch_misprediction_ratio", 12, "Branch misprediction ratio", "{:.2%}",
           _ratio("branch_mispredictions", "branches"), ("branch", 8, ".2%")),
)

METRIC_NAMES = tuple(m.name for m in METRICS)


def stall_breakdown(result) -> dict[str, float]:
    """Figure 6: the six stall categories, normalised to sum to 1."""
    raw = {c.stall: getattr(result, c.field) for c in COUNTERS if c.stall}
    total = sum(raw.values())
    if total == 0:
        return {key: 0.0 for key in raw}
    return {key: value / total for key, value in raw.items()}


def frontend_share(breakdown: dict[str, float]) -> float:
    """Share of stalls before the out-of-order part (fetch + RAT)."""
    return breakdown.get("fetch", 0.0) + breakdown.get("rat", 0.0)


def backend_share(breakdown: dict[str, float]) -> float:
    """Share of stalls in the out-of-order part (RS, ROB and buffers)."""
    return 1.0 - frontend_share(breakdown) if any(breakdown.values()) else 0.0


class Rates:
    """The metric formulas as methods of a counter-carrying class.

    ``SimulationResult`` inherits them: one method per :data:`METRICS`
    row, named like it, plus the Figure 6 breakdown and its
    front-end/back-end shares.
    """

    def stall_breakdown(self) -> dict[str, float]:
        return stall_breakdown(self)

    def frontend_stall_share(self) -> float:
        return frontend_share(stall_breakdown(self))

    def backend_stall_share(self) -> float:
        return backend_share(stall_breakdown(self))


for _metric in METRICS:
    setattr(Rates, _metric.name, _metric.formula)
del _metric


class Violation(NamedTuple):
    """A declared relation one result breaks."""

    field: str
    relation: str
    lhs: float
    rhs: float

    def __str__(self) -> str:
        return f"{self.field} {self.relation}: {self.lhs} vs {self.rhs}"


_OPS = {"<=": operator.le, "==": operator.eq, ">=": operator.ge}


def violations(result, machine) -> list[Violation]:
    """Every declared relation *result*, run on *machine*, breaks."""
    names = {**vars(machine.core), **result.extra}
    names.update((c.field, getattr(result, c.field)) for c in COUNTERS)
    found = []
    for counter in COUNTERS:
        for relation in counter.relations:
            op, expr = relation.split(" ", 1)
            lhs = names[counter.field]
            rhs = sum(
                math.prod(names[name] for name in term.split(" * "))
                for term in expr.split(" + ")
            )
            if not _OPS[op](lhs, rhs):
                found.append(Violation(counter.field, relation, lhs, rhs))
    return found
