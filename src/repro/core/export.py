"""Machine-readable exports of the figure data (CSV / JSON).

The paper's plots are bar charts per workload; downstream users want the
series as data.  :func:`to_csv` and :func:`to_json` write a suite
characterization as one row per workload with every Figure 3–12 metric
(``characterize --format csv/json``).  Cluster runs, mixes and workflows
export themselves: their ``to_dict()`` is JSON-serializable.
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
    writer.writerows(characterizations_to_rows(chars))
    return buffer.getvalue()


def to_json(chars: list[Characterization], indent: int | None = 2) -> str:
    """The full metric table as a JSON array."""
    return json.dumps(characterizations_to_rows(chars), indent=indent)

