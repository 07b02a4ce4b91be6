"""Canonical form + SHA-256 of one workload execution.

The execution layer's contract is that byte accounting never changes what
a job computes or what it is charged: every :class:`JobCounters` field,
every :class:`JobWork` and every output is a pure function of the
workload and its scale.  :func:`execution_digests` folds all three into
hashes so ``test_execution_golden.py`` can pin them.

Re-pin (only when a PR changes the accounting *on purpose*)::

    PYTHONPATH=src python -m tests.mapreduce.golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.cluster import make_cluster
from repro.workloads import WORKLOAD_NAMES, workload

#: Small enough that all 22 runs take a few seconds.
GOLDEN_SCALE = 0.2
GOLDEN_SLAVES = 4


def canonical(value):
    """JSON-able form that keeps type and every float bit."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"f": value.hex()}
    if isinstance(value, bytes):
        return {"b": value.hex()}
    if isinstance(value, tuple):
        return {"t": [canonical(v) for v in value]}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        # insertion order is part of the output
        return {"d": [[canonical(k), canonical(v)] for k, v in value.items()]}
    if hasattr(value, "tolist"):  # numpy scalars / arrays
        return {"n": canonical(value.tolist())}
    raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical_work(work) -> dict:
    return {
        "name": work.name,
        "maps": [
            [
                m.input_bytes,
                m.cpu_seconds.hex(),
                m.output_bytes,
                list(m.preferred_nodes),
                list(m.split) if m.split is not None else None,
            ]
            for m in work.maps
        ],
        "reduces": [
            [r.shuffle_bytes, r.cpu_seconds.hex(), r.output_bytes]
            for r in work.reduces
        ],
    }


def canonical_accounting(run) -> dict:
    """Merged counters plus every job's counters and JobWork."""
    return {
        "counters": dataclasses.asdict(run.counters),
        "jobs": [
            {
                "counters": dataclasses.asdict(jr.counters),
                "work": canonical_work(jr.work),
            }
            for jr in run.job_results
        ],
    }


def _sha256(payload) -> str:
    blob = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def execution_digests(name: str, clustered: bool) -> tuple[str, str]:
    """``(accounting, output)`` hashes of one run at the golden scale.

    Two hashes because they have different portability: the accounting is
    integer arithmetic and identical on every interpreter, while a float
    output built with ``sum()`` (Fuzzy K-means, PageRank) differs in the
    last bits between CPython < 3.12 (naive) and >= 3.12 (compensated).
    """
    cluster = make_cluster(GOLDEN_SLAVES) if clustered else None
    run = workload(name).run(scale=GOLDEN_SCALE, cluster=cluster)
    return _sha256(canonical_accounting(run)), _sha256(canonical(run.output))


if __name__ == "__main__":
    for clustered in (True, False):
        for name in WORKLOAD_NAMES:
            accounting, output = execution_digests(name, clustered)
            print(f'    ("{name}", {clustered}): (\n        "{accounting}",\n        "{output}",\n    ),')
