"""Experiment analyses that sit above single-workload characterization.

* :mod:`repro.analysis.domains` — the Figure 1 application-domain study
  (classifying the top sites by page views and daily visitors);
* :mod:`repro.analysis.speedup` — the Figure 2 scaling study (1/4/8
  slaves, eleven workloads);
* :mod:`repro.analysis.summary` — programmatic checks of the paper's five
  key findings over a set of characterizations.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "TOP_SITES": "domains",
    "DomainShare": "domains",
    "classify_sites": "domains",
    "domain_shares": "domains",
    "top_domains": "domains",
    "SpeedupResult": "speedup",
    "speedup_study": "speedup",
    "Findings": "summary",
    "evaluate_findings": "summary",
})
