"""Text renderings of the paper's tables and figure series.

The benchmark harness prints these: one row/bar per workload in the
paper's order, with the data-analysis "avg" bar where the paper has one.
"""

from __future__ import annotations

from repro.core.characterize import Characterization
from repro.core.metrics import Metrics, average_metrics
from repro.core.suite import DATA_ANALYSIS_NAMES
from repro.uarch.config import MachineConfig, XEON_E5645
from repro.uarch.counters import METRICS, STALL_CATEGORIES
from repro.workloads.base import all_workloads

#: figure-number → (metric attribute, y-axis label, value format)
FIGURE_METRICS = {m.figure: (m.name, m.label, m.fmt) for m in METRICS}


def _with_average(chars: list[Characterization]) -> list[tuple[str, Metrics]]:
    """Insert the data-analysis "avg" row after the DA block, as in the
    figures."""
    rows: list[tuple[str, Metrics]] = []
    da_metrics = [c.metrics for c in chars if c.name in DATA_ANALYSIS_NAMES]
    da_seen = 0
    for c in chars:
        rows.append((c.name, c.metrics))
        if c.name in DATA_ANALYSIS_NAMES:
            da_seen += 1
            if da_seen == len(da_metrics) and len(da_metrics) > 1:
                rows.append(("avg", average_metrics(da_metrics)))
    return rows


def render_figure_series(figure: int, chars: list[Characterization]) -> dict[str, float]:
    """The (workload → value) series behind one scalar figure."""
    if figure not in FIGURE_METRICS:
        raise ValueError(f"figure {figure} has no scalar metric (use the stall table for 6)")
    metric, _, _ = FIGURE_METRICS[figure]
    return {name: metrics.value(metric) for name, metrics in _with_average(chars)}


def render_metric_table(figure: int, chars: list[Characterization]) -> str:
    """Figure as a text table, one bar per row."""
    metric, label, fmt = FIGURE_METRICS[figure]
    lines = [f"Figure {figure}: {label}", "-" * 44]
    for name, metrics in _with_average(chars):
        lines.append(f"{name:<20s} {fmt.format(metrics.value(metric)):>10s}")
    return "\n".join(lines)


def render_stall_table(chars: list[Characterization]) -> str:
    """Figure 6: the six normalised stall categories per workload."""
    header = f"{'workload':<20s}" + "".join(f"{cat:>10s}" for cat in STALL_CATEGORIES)
    lines = ["Figure 6: Pipeline stall breakdown (normalised)", header, "-" * len(header)]
    for name, metrics in _with_average(chars):
        row = f"{name:<20s}" + "".join(
            f"{metrics.stall_breakdown.get(cat, 0.0):>10.1%}" for cat in STALL_CATEGORIES
        )
        lines.append(row)
    return "\n".join(lines)


def render_table1() -> str:
    """Table I: the eleven workloads with inputs and instruction counts."""
    lines = [
        "Table I: Representative data analysis workloads",
        f"{'No.':<4s}{'Workload':<16s}{'Input Data Size':<22s}"
        f"{'#Retired Instructions (1e9)':>28s}  {'Source'}",
    ]
    lines.append("-" * 90)
    for wl in all_workloads():
        info = wl.info
        lines.append(
            f"{info.table1_row:<4d}{info.name:<16s}{info.input_description:<22s}"
            f"{info.retired_instructions_1e9:>28d}  {info.source}"
        )
    return "\n".join(lines)


def render_table2() -> str:
    """Table II: application scenarios per workload and domain."""
    lines = ["Table II: Scenarios of data analysis", "-" * 70]
    for wl in all_workloads():
        for domain, scenario in wl.info.scenarios:
            lines.append(f"{wl.info.name:<16s}{domain:<24s}{scenario}")
    return "\n".join(lines)


def render_table3(machine: MachineConfig = XEON_E5645) -> str:
    """Table III: details of hardware configurations."""
    rows = machine.describe()
    width = max(len(k) for k in rows)
    lines = ["Table III: Details of hardware configurations", "-" * 60]
    for key, value in rows.items():
        lines.append(f"{key:<{width}s}  {value}")
    return "\n".join(lines)
