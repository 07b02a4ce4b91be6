"""Canonical form + SHA-256 of one multi-job dispatch run.

``MultiJobCluster.run`` and its indexed twin ``FastMultiJobCluster`` are
rewritten from time to time; their contract is that neither moves an
outcome field, a ``/proc`` counter or the clock.  :func:`dispatch_digest`
folds all three into one hash so ``test_dispatch_golden.py`` can pin them:

* :func:`~repro.core.simcache.mix_outcome_payload` — every report,
  timeline, task interval, fault-accounting field and delivered event
  (sequence numbers included);
* every slave's ``procfs`` counters and its sample stream;
* the cluster clock after the run.

The mixes are ``test_clusterpath.PINNED_CASES``.  Both classes must
produce each case's one digest.

Re-pin (only when a change moves a dispatch outcome *on purpose*)::

    PYTHONPATH=src python -m tests.cluster.golden
"""

from __future__ import annotations

import dataclasses

from repro.cluster.scheduler import MultiJobCluster
from repro.core.simcache import mix_outcome_payload
from repro.perf.clusterpath import FastMultiJobCluster
from tests.cluster.test_clusterpath import PINNED_CASES, build_mix, procfs_state
from tests.mapreduce.golden import _sha256, canonical

CLASSES = (MultiJobCluster, FastMultiJobCluster)


def dispatch_digest(case: tuple, cls: type) -> str:
    """SHA-256 of one pinned mix's outcome, procfs state and final clock."""
    cluster, multi = build_mix(cls, *case)
    outcome = multi.run(raise_on_failure=False)
    procfs = [
        (counters, [dataclasses.astuple(sample) for sample in samples])
        for counters, samples in procfs_state(cluster)
    ]
    return _sha256(canonical([mix_outcome_payload(outcome), procfs, cluster.clock]))


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in PINNED_CASES:
        print(f'    {case!r}: "{dispatch_digest(case, MultiJobCluster)}",')
    print("}")
