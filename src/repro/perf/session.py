"""Perf sessions: read the programmed events out of a simulation.

:class:`PerfSession` is the analogue of ``perf stat``: it reads every
event of the catalogue out of a finished
:class:`~repro.uarch.pipeline.SimulationResult` into a
:class:`PerfReading` mapping event names to counts, plus the derived
per-kilo-instruction rates the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.events import EVENT_CATALOG
from repro.uarch.pipeline import SimulationResult


@dataclass
class PerfReading:
    """Counts from one measured run."""

    workload: str
    counts: dict[str, int] = field(default_factory=dict)
    result: SimulationResult | None = None

    def __getitem__(self, event: str) -> int:
        return self.counts[event]

    def per_kilo_instructions(self, event: str) -> float:
        """Rate of *event* per thousand retired instructions."""
        instructions = self.counts.get("instructions", 0)
        if not instructions:
            return 0.0
        return 1000.0 * self.counts[event] / instructions

    def ratio(self, numerator: str, denominator: str) -> float:
        denom = self.counts.get(denominator, 0)
        return self.counts[numerator] / denom if denom else 0.0


class PerfSession:
    """Measure the full event catalogue (the paper collects ~20 events,
    well past the 4 physical counters; real ``perf`` multiplexes — the
    simulator simply exposes everything)."""

    def measure_result(self, result: SimulationResult) -> PerfReading:
        """Read every catalogue event out of an existing simulation result."""
        counts = {event.name: event.read(result) for event in EVENT_CATALOG.values()}
        return PerfReading(workload=result.name, counts=counts, result=result)
