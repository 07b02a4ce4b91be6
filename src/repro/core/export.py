"""Machine-readable exports of the figure data (CSV / JSON).

The paper's plots are bar charts per workload; downstream users want the
series as data.  These helpers serialise a suite characterization into
one flat table, one row per workload, with every Figure 3–12 metric —
suitable for spreadsheets, pandas, or re-plotting.

Alongside the figure tables there are per-job exports: cluster
``JobTimeline``s (one row per job, disk rates flattened per node) and
multi-tenant ``MixResult``s (one row per trace job with wait/turnaround/
slowdown), so a whole scheduled day of traffic serialises the same way a
single characterization does.
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


def to_csv(chars: list[Characterization]) -> str:
    """The full metric table as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in characterizations_to_rows(chars):
        writer.writerow(row)
    return buffer.getvalue()


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
    fieldnames = list(rows[0]) if rows else TIMELINE_COLUMNS
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


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
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=MIX_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in mix_to_rows(mix):
        writer.writerow(row)
    return buffer.getvalue()


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
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=WORKFLOW_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    for row in workflow_to_rows(result):
        writer.writerow(row)
    return buffer.getvalue()


def workflow_to_json(result, indent: int | None = 2) -> str:
    """The whole workflow run — stages, accounting, outputs — as JSON."""
    return json.dumps(result.to_dict(), indent=indent)


#: column order of the per-job instance export (the flat CSV view of a
#: WfCommons-style recorded instance; the JSON form is the instance's own
#: validated document, via ``Instance.to_json``)
INSTANCE_COLUMNS = [
    "index",
    "workload",
    "scale",
    "user",
    "pool",
    "size_class",
    "submit_s",
    "start_s",
    "finish_s",
    "ideal_s",
]


def instance_to_rows(instance) -> list[dict]:
    """One flat dict per job of a :class:`~repro.recipes.Instance`."""
    rows = []
    for job in instance.jobs:
        d = job.to_dict()
        rows.append({column: d[column] for column in INSTANCE_COLUMNS})
    return rows


def instance_to_csv(instance) -> str:
    """The per-job view of a recorded instance as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=INSTANCE_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    for row in instance_to_rows(instance):
        writer.writerow(row)
    return buffer.getvalue()


#: column order of the per-bucket repetition-benchmark export
REPBENCH_COLUMNS = [
    "bucket",
    "target_rate",
    "queries",
    "hits",
    "misses",
    "hit_rate",
    "saved_s",
    "executed_s",
    "mean_effective_s",
    "mean_cold_s",
]


def repbench_to_rows(report) -> list[dict]:
    """One dict per bucket of a
    :class:`~repro.recipes.RepetitionBenchReport`."""
    rows = []
    for bucket in report.buckets:
        d = bucket.to_dict()
        rows.append({column: d[column] for column in REPBENCH_COLUMNS})
    return rows


def repbench_to_csv(report) -> str:
    """The per-bucket cache-payoff curve as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=REPBENCH_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    for row in repbench_to_rows(report):
        writer.writerow(row)
    return buffer.getvalue()


def repbench_to_json(report, indent: int | None = 2) -> str:
    """The whole repetition benchmark — buckets + settings — as JSON."""
    return json.dumps(report.to_dict(), indent=indent)
