"""Perf-style measurement layer.

The paper drives Westmere performance-monitoring MSRs through Linux
``perf`` and samples ``/proc`` for OS-level statistics.  This package
reproduces that interface over the simulator:

* :mod:`repro.perf.events` — the symbolic event catalogue (event number +
  umask, as in the Intel SDM) with accessors into a
  :class:`~repro.uarch.pipeline.SimulationResult`;
* :mod:`repro.perf.session` — a ``PerfSession`` that reads every event
  of the catalogue out of a finished simulation, like ``perf stat``;
* :mod:`repro.perf.procfs` — a simulated ``/proc`` exposing the cluster's
  disk and network activity (the paper's disk-writes-per-second data).

Two fast engines live here too, each bit-identical to the reference it
replaces (the repo's benchmark, ``bench/``, times both):

* :mod:`repro.perf.fastpath` — ``run_fast``, the batched twin of
  :meth:`~repro.uarch.pipeline.Core.run` behind
  ``simulate(..., engine="fast")``;
* :mod:`repro.perf.clusterpath` — ``FastMultiJobCluster``, the indexed
  twin of :class:`~repro.cluster.scheduler.MultiJobCluster` behind
  ``run_mix(..., engine="fast")``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(globals(), {
    "EVENT_CATALOG": "events",
    "PerfEvent": "events",
    "lookup_event": "events",
    "PerfReading": "session",
    "PerfSession": "session",
    "ProcFs": "procfs",
})
