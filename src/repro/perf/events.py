"""Symbolic performance-event catalogue.

Each :class:`PerfEvent` mirrors a Westmere PMU event the paper programs via
event-select MSRs: a symbolic name, the (event number, umask) pair from the
Intel SDM, and an extractor that reads the corresponding count from a
:class:`~repro.uarch.pipeline.SimulationResult`.  The catalogue covers the
~20 events the paper collects: cycles, instructions, cache and TLB misses,
branch activity, and the six pipeline-stall categories.  It is generated
from the counter table, :data:`repro.uarch.counters.COUNTERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from repro.uarch.counters import COUNTERS
from repro.uarch.pipeline import SimulationResult


@dataclass(frozen=True)
class PerfEvent:
    """One programmable PMU event.

    Attributes:
        name: perf-style symbolic name.
        event_select: hardware event number (Intel SDM, for flavour).
        umask: unit mask.
        description: human-readable description.
        extract: reads the count from a simulation result.
    """

    name: str
    event_select: int
    umask: int
    description: str
    extract: Callable[[SimulationResult], int]

    @property
    def code(self) -> str:
        """The raw perf event code string, e.g. ``r0280``."""
        return f"r{self.umask:02x}{self.event_select:02x}"

    def read(self, result: SimulationResult) -> int:
        return int(self.extract(result))


#: All supported events, keyed by symbolic name: one per counter-table row
#: that has a PMU event.
EVENT_CATALOG: dict[str, PerfEvent] = {
    c.pmu: PerfEvent(c.pmu, c.event_select, c.umask, c.description, attrgetter(c.field))
    for c in COUNTERS
    if c.pmu
}


def lookup_event(name: str) -> PerfEvent:
    """Return the catalogue entry for *name*; raise KeyError with the
    available names otherwise."""
    try:
        return EVENT_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(EVENT_CATALOG))
        raise KeyError(f"unknown perf event {name!r}; known events: {known}") from None
