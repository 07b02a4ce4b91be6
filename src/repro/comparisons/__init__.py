"""Comparison benchmark suites (Section III-C).

The paper compares its eleven data-analysis workloads against four other
benchmark families.  Each proxy here *really computes* a representative
kernel (LU solve, GUPS updates, FFT, key-value serving, inverted-index
search, …) and declares the micro-architectural profile of the real
benchmark it stands in for:

* :mod:`repro.comparisons.speccpu` — SPEC CPU2006 INT/FP group proxies;
* :mod:`repro.comparisons.hpcc` — HPCC 1.4: HPL, STREAM, PTRANS,
  RandomAccess, DGEMM, FFT, COMM;
* :mod:`repro.comparisons.specweb` — SPECweb2005 (bank);
* :mod:`repro.comparisons.cloudsuite` — CloudSuite: Data Serving, Media
  Streaming, Software Testing, Web Search, Web Serving (its Naive Bayes is
  the shared data-analysis workload and lives in :mod:`repro.workloads`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "COMPARISON_NAMES": "base",
    "SERVICE_WORKLOADS": "base",
    "ComparisonRun": "base",
    "ComparisonWorkload": "base",
    "all_comparisons": "base",
    "comparison": "base",
})
