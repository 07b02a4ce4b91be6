"""DCBench-style workload characterization framework — the paper's
primary contribution, as a reusable tool.

* :mod:`repro.core.characterize` — run one workload's instruction stream
  through the simulated core and derive the paper's metrics;
* :mod:`repro.core.metrics` — the metric set of Figures 3–12;
* :mod:`repro.core.suite` — the DCBench suite: the eleven data-analysis
  workloads plus the comparison suites, in the paper's figure order;
* :mod:`repro.core.report` — text renderings of every table and figure.

Quickstart::

    from repro.core import DCBench, characterize
    result = characterize(DCBench.default().entry("WordCount"))
    print(result.metrics.ipc)
"""

from repro._lazy import attach

from repro.core.characterize import characterize  # a submodule's name: see repro._lazy

__getattr__, __dir__, __all__ = attach(globals(), {
    "Metrics": "metrics",
    "STALL_CATEGORIES": "metrics",
    "Characterization": "characterize",
    "characterize": "characterize",
    "DCBench": "suite",
    "SuiteEntry": "suite",
    "FIGURE_ORDER": "suite",
    "render_figure_series": "report",
    "render_metric_table": "report",
    "render_stall_table": "report",
    "render_table1": "report",
    "render_table2": "report",
    "render_table3": "report",
})
