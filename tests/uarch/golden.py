"""Canonical form + SHA-256 of the characterize hot path's outputs.

The batched trace generator and the fast engine are rewritten for speed
from time to time; their contract is that neither changes a value.  Two
digests pin that from outside both, so ``test_trace_golden.py`` can hold
them fixed across any rewrite:

* :func:`stream_digest` — every column of the μop stream a DCBench entry
  synthesises (``op``, ``pc``, ``addr``, ``taken``, ``target``, ``dep1``,
  ``dep2``, ``kernel``, concatenated over all batches) plus the
  generator's :class:`~repro.uarch.trace.TraceStats`;
* :func:`result_digest` — every field of the ``SimulationResult`` the
  fast engine computes from that entry's stream on the scaled machine.

Specs are built the way ``characterize`` builds them
(``entry.trace_spec(n, seed=...).scaled(8)``).

Re-pin (only when a change moves the stream or a counter *on purpose*)::

    PYTHONPATH=src python -m tests.uarch.golden
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from array import array

from repro.core.suite import DCBench
from repro.perf.fastpath import run_fast
from repro.uarch.config import scaled_machine
from repro.uarch.pipeline import Core
from repro.uarch.trace import SyntheticTrace
from tests.mapreduce.golden import _sha256, canonical

#: Long enough for every entry's stream to include kernel episodes.
STREAM_UOPS = 40_000
RESULT_UOPS = 30_000
SCALE = 8
#: ``None`` is each entry's pinned spec seed; 7 is one arbitrary other.
SEEDS = (None, 7)

COLUMNS = ("op", "pc", "addr", "taken", "target", "dep1", "dep2", "kernel")


def entry_names() -> list[str]:
    return [entry.name for entry in DCBench.default()]


def _spec(name: str, uops: int, seed: int | None):
    return DCBench.default().entry(name).trace_spec(uops, seed=seed).scaled(SCALE)


def stream_digest(name: str, seed: int | None) -> str:
    """SHA-256 of one entry's whole batch stream and its ``TraceStats``."""
    trace = SyntheticTrace(_spec(name, STREAM_UOPS, seed))
    columns = {column: array("q") for column in COLUMNS}
    for batch in trace.iter_batches():
        for column in COLUMNS:
            columns[column].extend(getattr(batch, column))
    digest = hashlib.sha256()
    for column in COLUMNS:
        values = columns[column]
        if sys.byteorder == "big":
            values.byteswap()
        digest.update(column.encode("ascii"))
        digest.update(values.tobytes())
    digest.update(_sha256(canonical(dataclasses.asdict(trace.stats))).encode("ascii"))
    return digest.hexdigest()


def result_digest(name: str) -> str:
    """SHA-256 of the fast engine's ``SimulationResult`` for one entry."""
    result = run_fast(Core(scaled_machine(SCALE)), _spec(name, RESULT_UOPS, None))
    return _sha256(canonical(dataclasses.asdict(result)))


if __name__ == "__main__":
    print("GOLDEN_STREAMS = {")
    for name in entry_names():
        for seed in SEEDS:
            print(f'    ("{name}", {seed}): "{stream_digest(name, seed)}",')
    print("}")
    print("GOLDEN_RESULTS = {")
    for name in entry_names():
        print(f'    "{name}": "{result_digest(name)}",')
    print("}")
