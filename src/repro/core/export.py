"""Machine-readable exports of the figure data and of cluster runs (CSV / JSON).

The paper's plots are bar charts per workload; downstream users want the
series as data.  Four tables, each with a ``*_to_rows`` / ``*_to_csv``
pair and a JSON form:

* a suite characterization (``to_csv`` / ``to_json``): one row per
  workload with every Figure 3–12 metric;
* cluster ``JobTimeline``s (``timelines_to_*``): one row per job, disk
  rates flattened per node;
* multi-tenant ``MixResult``s (``mix_to_*``): one row per trace job with
  wait/turnaround/slowdown;
* workflow runs (``workflow_to_*``): one row per DAG stage.
"""

from __future__ import annotations

import csv
import io
import json

from repro.core.characterize import Characterization
from repro.uarch.counters import METRIC_NAMES, STALL_CATEGORIES

#: column order of the export: every metric of the counter table, then
#: the Figure 6 categories
COLUMNS = [
    "workload",
    "group",
    *METRIC_NAMES,
    *[f"stall_{category}" for category in STALL_CATEGORIES],
]


def characterizations_to_rows(chars: list[Characterization]) -> list[dict]:
    """One dict per workload with every figure metric."""
    return [
        {
            "workload": c.name,
            "group": c.group,
            **{name: c.metrics.value(name) for name in METRIC_NAMES},
            **{f"stall_{cat}": c.metrics.value(cat) for cat in STALL_CATEGORIES},
        }
        for c in chars
    ]


def _csv(fieldnames: list[str], rows: list[dict]) -> str:
    """*rows* as CSV text under a *fieldnames* header."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def to_csv(chars: list[Characterization]) -> str:
    """The full metric table as CSV text."""
    return _csv(COLUMNS, characterizations_to_rows(chars))


def to_json(chars: list[Characterization], indent: int | None = 2) -> str:
    """The full metric table as a JSON array."""
    return json.dumps(characterizations_to_rows(chars), indent=indent)


#: scalar columns of a per-job timeline export (disk rates are appended
#: per node, in sorted node order, as ``disk_writes_per_second_<node>``)
TIMELINE_COLUMNS = [
    "job_name",
    "start_s",
    "map_phase_end_s",
    "end_s",
    "duration_s",
    "map_tasks",
    "reduce_tasks",
    "network_bytes",
    "maps_node_local",
    "maps_rack_local",
    "maps_off_rack",
]


def timelines_to_rows(timelines: list) -> list[dict]:
    """One flat dict per job timeline.

    Accepts anything with a ``JobTimeline``-shaped ``to_dict()`` —
    including :class:`~repro.cluster.faults.FaultyTimeline`, whose
    resilience counters are dropped from the flat table (use
    ``to_dict()`` directly when you want them).
    """
    dicts = [t.to_dict() for t in timelines]
    nodes = sorted({node for d in dicts for node in d["disk_writes_per_second"]})
    rows = []
    for d in dicts:
        row = {column: d[column] for column in TIMELINE_COLUMNS}
        rates = d["disk_writes_per_second"]
        for node in nodes:
            row[f"disk_writes_per_second_{node}"] = rates.get(node, 0.0)
        rows.append(row)
    return rows


def timelines_to_csv(timelines: list) -> str:
    """Per-job timeline table as CSV text."""
    rows = timelines_to_rows(timelines)
    return _csv(list(rows[0]) if rows else TIMELINE_COLUMNS, rows)


def timelines_to_json(timelines: list, indent: int | None = 2) -> str:
    """Per-job reports as a JSON array (full ``to_dict()``, nothing dropped)."""
    return json.dumps([t.to_dict() for t in timelines], indent=indent)


#: column order of the per-trace-job mix export
MIX_COLUMNS = [
    "index",
    "workload",
    "scale",
    "size_class",
    "user",
    "pool",
    "arrival_s",
    "first_launch_s",
    "finished_s",
    "ideal_s",
    "wait_s",
    "turnaround_s",
    "slowdown",
    "maps_node_local",
    "maps_rack_local",
    "maps_off_rack",
]


def mix_to_rows(mix) -> list[dict]:
    """One dict per trace job of a :class:`~repro.cluster.tenancy.MixResult`."""
    rows = []
    for report in mix.reports:
        d = report.to_dict()
        rows.append({column: d[column] for column in MIX_COLUMNS})
    return rows


def mix_to_csv(mix) -> str:
    """The per-trace-job accounting of a mix as CSV text."""
    return _csv(MIX_COLUMNS, mix_to_rows(mix))


def mix_to_json(mix, indent: int | None = 2) -> str:
    """The whole mix — trace, per-job reports, outcome — as JSON."""
    return json.dumps(mix.to_dict(), indent=indent)


#: column order of the per-stage workflow export
WORKFLOW_COLUMNS = [
    "stage",
    "status",
    "executions",
    "retries",
    "recomputes",
    "first_launch_s",
    "finished_s",
    "output",
    "cancelled_by",
]


def workflow_to_rows(result) -> list[dict]:
    """One dict per stage of a :class:`~repro.cluster.workflow.WorkflowResult`."""
    rows = []
    for report in result.reports:
        d = report.to_dict()
        rows.append({column: d[column] for column in WORKFLOW_COLUMNS})
    return rows


def workflow_to_csv(result) -> str:
    """The per-stage accounting of a workflow run as CSV text."""
    return _csv(WORKFLOW_COLUMNS, workflow_to_rows(result))


def workflow_to_json(result, indent: int | None = 2) -> str:
    """The whole workflow run — stages, accounting, outputs — as JSON."""
    return json.dumps(result.to_dict(), indent=indent)
