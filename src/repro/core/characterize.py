"""Characterize workloads on the simulated core — the measurement arc.

``characterize(entry)`` is the reproduction of the paper's Section III-D
methodology: build the workload's instruction stream, run it through a
core configured like the Xeon E5645 (Table III), discard a ramp-up
window, and read the ~20 hardware events into the Figure 3–12 metrics.

Because our traces are short relative to real runs (hundreds of thousands
of micro-ops instead of 10^12), both the machine's cache/TLB capacities
and the workload's declared footprints are divided by ``scale``
(default 8) so every footprint-to-capacity ratio matches the paper's
setup; latencies, widths and buffer sizes are untouched.  See DESIGN.md.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from repro.core.metrics import Metrics
from repro.core.simcache import SimCache, check_engine, run_engine
from repro.core.suite import DCBench, SuiteEntry
from repro.perf.session import PerfReading, PerfSession
from repro.uarch.config import MachineConfig, scaled_machine
from repro.uarch.pipeline import SimulationResult

#: Default trace length per workload (micro-ops).
DEFAULT_INSTRUCTIONS = 200_000

#: Default machine/footprint scaling factor.
DEFAULT_SCALE = 8


@dataclass
class Characterization:
    """Everything one characterization run produced."""

    name: str
    group: str
    result: SimulationResult
    metrics: Metrics
    reading: PerfReading

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Characterization {self.name} ipc={self.metrics.ipc:.2f} "
            f"l1i={self.metrics.l1i_mpki:.1f} l2={self.metrics.l2_mpki:.1f}>"
        )


#: Default simulation engine for characterization runs.  The fast engine
#: is bit-identical to the reference engine by contract (property-tested
#: in tests/uarch/test_fastpath.py), so it is safe as the default.
DEFAULT_ENGINE = "fast"


@lru_cache(maxsize=16, typed=True)
def _default_machine(scale: int) -> MachineConfig:
    """``scaled_machine(scale)``, built once per exact ``(type, value)`` of
    *scale* (``8`` and ``8.0`` build different machines).  The machine is
    frozen, so every caller can share it, and a suite loop keys all its
    entries against one object (see ``simcache._machine_fragment``)."""
    return scaled_machine(scale)


def characterize(
    entry: SuiteEntry,
    instructions: int = DEFAULT_INSTRUCTIONS,
    scale: int = DEFAULT_SCALE,
    machine: MachineConfig | None = None,
    warmup: int | None = None,
    seed: int | None = None,
    engine: str = DEFAULT_ENGINE,
    cache: "SimCache | None" = None,
) -> Characterization:
    """Measure one suite entry on a fresh simulated core.

    ``machine`` overrides the scaled Table III machine (ablation studies
    pass modified configs here — in that case ``scale`` is still used to
    shrink the *workload* footprints, so pass a machine scaled to match).

    ``engine`` selects ``"fast"`` (batched, default) or ``"reference"``
    (the per-μop interpreter); any other name is a ValueError.  Passing a :class:`~repro.core.simcache.
    SimCache` as ``cache`` memoises the simulation on disk; by default no
    cache is consulted, so tests that patch the model always see live runs.
    """
    if machine is None:
        machine = _default_machine(scale)
    spec = entry.trace_spec(instructions, seed=seed).scaled(scale)
    if cache is not None:
        result = cache.simulate(spec, machine, warmup=warmup, engine=engine)
    else:
        result = run_engine(spec, machine, warmup, engine)
    metrics = Metrics.from_result(result)
    reading = PerfSession().measure_result(result)
    return Characterization(
        name=entry.name, group=entry.group, result=result, metrics=metrics, reading=reading
    )


def _characterize_task(args: tuple) -> tuple[Characterization, int, int]:
    """Top-level (picklable) worker for the process pool: the
    characterization, and the hits and misses of the worker's handle on
    the caller's cache (root and on/off switch)."""
    entry, instructions, scale, machine, engine, cache_root, cache_enabled = args
    cache = None if cache_root is None else SimCache(cache_root, enabled=cache_enabled)
    char = characterize(
        entry,
        instructions=instructions,
        scale=scale,
        machine=machine,
        engine=engine,
        cache=cache,
    )
    return (char, 0, 0) if cache is None else (char, cache.hits, cache.misses)


def resolve_workers(workers: int | str | None, jobs: int) -> int:
    """Normalise a ``workers`` argument to a concrete count.

    ``None`` or 1 → serial; ``"auto"`` → one worker per available CPU,
    capped at the number of jobs.
    """
    if workers is None:
        return 1
    if workers == "auto":
        return max(1, min(jobs, os.cpu_count() or 1))
    count = int(workers)
    if count < 1:
        raise ValueError("workers must be >= 1")
    return min(count, jobs) if jobs else 1


def characterize_suite(
    suite: DCBench | None = None,
    instructions: int = DEFAULT_INSTRUCTIONS,
    scale: int = DEFAULT_SCALE,
    machine: MachineConfig | None = None,
    engine: str = DEFAULT_ENGINE,
    workers: int | str | None = None,
    cache: "SimCache | None" = None,
) -> list[Characterization]:
    """Characterize every entry of *suite* (default: the full DCBench).

    ``workers`` fans entries out over a spawn-context
    :class:`~concurrent.futures.ProcessPoolExecutor` (``"auto"`` sizes the
    pool to the machine).  Results are returned in suite order regardless
    of completion order, and every simulation is seeded from its spec, so
    ``workers=N`` is bit-identical to ``workers=1``.
    """
    check_engine(engine)
    suite = suite or DCBench.default()
    entries = list(suite)
    count = resolve_workers(workers, len(entries))
    if count <= 1:
        return [
            characterize(
                entry,
                instructions=instructions,
                scale=scale,
                machine=machine,
                engine=engine,
                cache=cache,
            )
            for entry in entries
        ]
    # Spawn (not fork) for determinism and safety under pytest/threads;
    # futures are collected in submission order, so output order is stable.
    context = multiprocessing.get_context("spawn")
    cache_root = None if cache is None else str(cache.root)
    cache_enabled = cache is not None and cache.enabled
    tasks = [
        (entry, instructions, scale, machine, engine, cache_root, cache_enabled)
        for entry in entries
    ]
    with ProcessPoolExecutor(max_workers=count, mp_context=context) as pool:
        futures = [pool.submit(_characterize_task, task) for task in tasks]
        results = [future.result() for future in futures]
    if cache is not None:
        cache.hits += sum(hits for _, hits, _ in results)
        cache.misses += sum(misses for _, _, misses in results)
    return [char for char, _, _ in results]
