"""The paper's metric set (Figures 3–12) derived from simulation counters.

:class:`Metrics` is generated from :data:`repro.uarch.counters.METRICS`:
one float field per scalar figure, in figure order, then the Figure 6
``stall_breakdown`` (normalised, sums to 1 when there are any stalls).
"""

from __future__ import annotations

from dataclasses import field, make_dataclass

from repro.uarch.counters import (
    METRIC_NAMES,
    METRICS,
    STALL_CATEGORIES,
    backend_share,
    frontend_share,
    stall_breakdown,
)


def _from_result(cls, result) -> "Metrics":
    return cls(*[m.formula(result) for m in METRICS], stall_breakdown(result))


def _value(self, metric: str) -> float:
    """Look up a scalar metric or a stall category by name."""
    if metric in STALL_CATEGORIES:
        return self.stall_breakdown.get(metric, 0.0)
    return getattr(self, metric)


Metrics = make_dataclass(
    "Metrics",
    [(name, float) for name in METRIC_NAMES]
    + [("stall_breakdown", dict, field(default_factory=dict))],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "One workload's characterization metrics: "
        + ", ".join(f"``{m.name}`` (Figure {m.figure})" for m in METRICS)
        + " and ``stall_breakdown`` (Figure 6).",
        "from_result": classmethod(_from_result),
        "value": _value,
        "frontend_stall_share": lambda self: frontend_share(self.stall_breakdown),
        "backend_stall_share": lambda self: backend_share(self.stall_breakdown),
    },
)


def average_metrics(items: list[Metrics]) -> Metrics:
    """Arithmetic mean across workloads — the paper's "avg" bar."""
    if not items:
        raise ValueError("cannot average zero metric sets")
    n = len(items)
    breakdown = {
        cat: sum(m.stall_breakdown.get(cat, 0.0) for m in items) / n
        for cat in STALL_CATEGORIES
    }
    return Metrics(
        *[sum(getattr(m, name) for m in items) / n for name in METRIC_NAMES], breakdown
    )
