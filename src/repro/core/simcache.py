"""Persistent content-addressed cache for simulation results.

Characterization work is heavily repetitive: the same (TraceSpec,
MachineConfig, warmup) triples are simulated over and over across figure
benchmarks, CLI invocations and CI jobs, and the simulator is fully
deterministic.  This module memoises :class:`~repro.uarch.pipeline.
SimulationResult`s on disk, content-addressed by a stable hash of

* the trace spec (every field, walked the way ``dataclasses.asdict``
  walks it, see :func:`_plain`),
* the machine config (every field, including nested cache/TLB/core configs),
* the warmup override, and
* the **code version** — a digest of the source bytes of every module that
  can influence a counter value, so any change to the timing model
  invalidates the whole cache automatically.

The engine (fast vs reference) is deliberately *not* part of the key: the
two engines are bit-identical by contract (see ``repro.perf.fastpath``),
so their results are interchangeable.  Cache hits are required to be
bit-identical to cold runs — ``tests/core/test_simcache.py`` round-trips
results through the store and compares every field.

Layout: one sealed binary file per result (format at "sealed entries"
below) under ``.repro-cache/sim/<key[:2]>/<key>.sim``; the two-level
fan-out keeps directories small.  Writes are atomic (``os.replace`` of a
same-directory temp file) so concurrent workers and interrupted runs can
never publish a torn file; a damaged or foreign entry is a miss.

Escape hatches: ``REPRO_SIM_CACHE=0`` (or ``--no-sim-cache`` on the CLI and
pytest runs) disables the cache; ``REPRO_CACHE_DIR`` relocates it;
:func:`clear` invalidates it explicitly.

The cluster layer gets the same treatment one level up: a **mix-level
cache** under ``.repro-cache/mix/`` memoises whole
:class:`~repro.cluster.scheduler.MixOutcome` objects, content-addressed
by the submitted trace, the scheduler's :meth:`describe` fingerprint,
the fault plan, the cluster geometry/topology/device state, the
observability mode, and a digest of every cluster-layer source module
(:func:`cluster_code_version`).  The fast/reference
*dispatch* engine is again excluded from the key — the two are
bit-identical by contract (``repro.perf.clusterpath``) — while anything
that changes the outcome's bytes is included.  ``REPRO_MIX_CACHE=0``
(or ``--no-mix-cache``) disables it independently of the uarch cache.
A mix entry is the same container with a columnar payload,
``mix/<key[:2]>/<key>.mix`` (layout at "mix entry codec" below and in
``docs/performance.md``): a day-long trace is tens of thousands of
reports, and a hit should cost what rebuilding them costs, not what
parsing their JSON would.
``run_mix`` keys its entries on the *trace* rather than on the executed
submissions (see :func:`mix_cache_key`), so a warm replay runs no
workload at all.

A cache that cannot be written (read-only checkout, a root that is a
file) warns once per handle and returns the computed result uncached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
import os
import shutil
import struct
import sys
import tempfile
import warnings
from array import array
from contextlib import suppress
from functools import cache
from itertools import accumulate, chain
from operator import attrgetter
from pathlib import Path

from repro._gc import nogc
from repro.uarch.config import MachineConfig
from repro.uarch.counters import COUNTERS
from repro.uarch.pipeline import Core, SimulationResult
from repro.uarch.trace import SyntheticTrace, TraceSpec

#: Bump when the on-disk entry format (not the simulated values) changes;
#: folded into every sim key, so entries of an older layout become
#: unreachable — there is no reader for them.  (1 was the JSON entry.)
SCHEMA_VERSION = 2

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Modules whose source bytes define the simulated counter values.  Any
#: edit to one of these produces a new code version and a cold cache.
_VERSIONED_MODULES = (
    "repro.uarch.isa",
    "repro.uarch.config",
    "repro.uarch.trace",
    "repro.uarch.caches",
    "repro.uarch.tlb",
    "repro.uarch.branch",
    "repro.uarch.frontend",
    "repro.uarch.backend",
    "repro.uarch.pipeline",
    "repro.perf.fastpath",
)

@cache
def _source_digest(module_names: tuple[str, ...]) -> str:
    """Digest of the names and source bytes of *module_names*, once per process.

    Sources are located, not imported: hashing a module must not execute
    it (a warm ``run_mix`` hit would otherwise load every workload)."""
    from importlib.util import find_spec

    digest = hashlib.sha256()
    for module_name in module_names:
        path = find_spec(module_name).origin
        digest.update(module_name.encode())
        if path and os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def code_version() -> str:
    """Digest of the timing-model source files."""
    return _source_digest(_VERSIONED_MODULES)


def _switch(variable: str, default: bool) -> bool:
    """Honour an on/off environment variable (0/false/off/no disable)."""
    value = os.environ.get(variable)
    if value is None:
        return default
    return value.strip().lower() not in {"0", "false", "off", "no", ""}


def cache_enabled(default: bool = True) -> bool:
    """Honour the ``REPRO_SIM_CACHE`` escape hatch."""
    return _switch("REPRO_SIM_CACHE", default)


def cache_dir(root: str | os.PathLike | None = None) -> Path:
    """Resolve the cache root (arg > ``REPRO_CACHE_DIR`` > default)."""
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return Path(root)


# -- entries: ``<root>/<namespace>/<key[:2]>/<key>.<namespace>`` -------------


def _entry_path(root, namespace: str, key: str) -> str:
    # A string, not a Path: pathlib's joins were a tenth of a warm hit.
    return os.path.join(cache_dir(root), namespace, key[:2], f"{key}.{namespace}")


def _load(namespace: str, key: str, root, decode, *args):
    """``decode(entry bytes, *args)``, or None: a missing, unreadable,
    damaged or foreign entry is a miss, never an error."""
    try:
        with open(_entry_path(root, namespace, key), "rb") as handle:
            return decode(handle.read(), *args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError):
        return None


def _write(namespace: str, key: str, root, entry: bytes) -> None:
    """Publish *entry* atomically (same-directory temp file + rename), so
    a concurrent reader sees a whole file or none."""
    path = _entry_path(root, namespace, key)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(entry)
        os.replace(tmp_name, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_name)
        raise


def _clear(namespace: str, root) -> int:
    """Delete the namespace; return its entry count (others not counted)."""
    directory = cache_dir(root) / namespace
    if not directory.exists():
        return 0
    count = sum(1 for _ in directory.rglob(f"*.{namespace}"))
    shutil.rmtree(directory)
    return count


# -- sealed entries -----------------------------------------------------------
#
# Both caches write one container:
#
#   prefix   magic (8 bytes, one per namespace) + header length (uint32)
#   header   JSON object: the payload's scalars and the section directory
#            [name, typecode, offset, count] of every column
#   columns  raw little-endian ``array`` bytes, one section per column
#   trailer  body length (uint64) + SHA-256 of everything before it

_PREFIX = struct.Struct("<8sI")
_TRAILER = struct.Struct("<Q32s")
_SIM_MAGIC, _MIX_MAGIC = b"REPROSIM", b"REPROMIX"


def _little_endian(column: array) -> array:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _seal(magic: bytes, header: dict, columns: dict[str, array]) -> bytes:
    """One entry: *header* plus the section directory of *columns*."""
    sections = []
    offset = 0
    for name, column in columns.items():
        sections.append([name, column.typecode, offset, len(column)])
        offset += len(column) * column.itemsize
    head = json.dumps({**header, "sections": sections}, separators=(",", ":")).encode()
    body = b"".join(
        [_PREFIX.pack(magic, len(head)), head,
         *(_little_endian(column).tobytes() for column in columns.values())]
    )
    return body + _TRAILER.pack(len(body), hashlib.sha256(body).digest())


def _unseal(blob: bytes, magic: bytes) -> tuple[dict, dict[str, array]]:
    """``(header, columns)`` of an entry :func:`_seal` wrote, or raise: a
    torn, flipped or foreign file fails the magic / length / checksum test
    before any of it is believed.  The payload checks what they must hold."""
    body_len = len(blob) - _TRAILER.size
    if body_len < _PREFIX.size:
        raise ValueError("truncated entry")
    found, header_len = _PREFIX.unpack_from(blob)
    length, checksum = _TRAILER.unpack_from(blob, body_len)
    body = memoryview(blob)[:body_len]
    if (
        found != magic
        or length != body_len
        or hashlib.sha256(body).digest() != checksum
    ):
        raise ValueError("not an intact entry")
    header = json.loads(blob[_PREFIX.size : _PREFIX.size + header_len])
    if not isinstance(header, dict):
        raise ValueError("entry header is not an object")
    data = body[_PREFIX.size + header_len :]
    columns = {}
    for name, typecode, offset, count in header.pop("sections"):
        column = array(typecode)
        size = count * column.itemsize
        if offset < 0 or count < 0 or offset + size > len(data):
            raise ValueError(f"section {name} lies outside the entry")
        column.frombytes(data[offset : offset + size])
        columns[name] = _little_endian(column)
    return header, columns


# -- sim entries ----------------------------------------------------------------


def _counter_fields() -> tuple[str, ...]:
    """A sim entry's counter column layout (not the dataclass field order;
    outside the code digest, so :func:`sim_cache_key` folds it in)."""
    return tuple(counter.field for counter in COUNTERS)


# -- canonical key documents ----------------------------------------------------

#: The one JSON form both cache keys hash (``json.dumps`` with these
#: options, minus a new encoder per call).
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str).encode

_ATOMS = frozenset({str, int, float, bool, type(None)})


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _plain(value):
    """*value* as ``dataclasses.asdict`` would render it, as far as JSON can
    tell: dataclasses become dicts of their fields, lists and tuples (named
    or not) lists, dicts dicts of walked keys and values; anything else is
    left as is, where ``asdict`` deep-copies it — JSON renders a copy and
    its original alike.  ``asdict``'s copy is most of its cost."""
    kind = type(value)
    if kind in _ATOMS:
        return value
    if hasattr(kind, "__dataclass_fields__"):
        return _asdict(value)
    if isinstance(value, (list, tuple)):
        return list(map(_plain, value))
    if isinstance(value, dict):
        return {_plain(key): _plain(item) for key, item in value.items()}
    return value


def _asdict(instance) -> dict:
    """``dataclasses.asdict(instance)`` as :func:`_plain` renders it (a
    TypeError for anything but a dataclass instance, as there)."""
    return {name: _plain(getattr(instance, name)) for name in _field_names(type(instance))}


def _frozen(value) -> bool:
    """Whether *value* can never change: an atom, or a tuple or frozen
    dataclass of such values."""
    kind = type(value)
    if kind in _ATOMS:
        return True
    if isinstance(value, tuple):
        return all(map(_frozen, value))
    params = getattr(kind, "__dataclass_params__", None)
    return (
        params is not None
        and params.frozen
        and all(_frozen(getattr(value, name)) for name in _field_names(kind))
    )


#: The last machine :func:`sim_cache_key` saw, with its fragment.  A
#: suite loop keys every entry against one machine object, so the
#: fragment is rendered once.  Exact: only a machine that can never change
#: is kept (:func:`_frozen`), and the memo holds it, so its id cannot be
#: reused by another object while it is here.
_last_machine: tuple[object, str] = (object(), "")


def _machine_fragment(machine: MachineConfig) -> str:
    global _last_machine
    last, fragment = _last_machine
    if machine is not last:
        fragment = _canonical(_asdict(machine))
        if _frozen(machine):
            _last_machine = (machine, fragment)
    return fragment


def sim_cache_key(
    spec: TraceSpec, machine: MachineConfig, warmup: int | None = None
) -> str:
    """Stable content hash for one simulation's inputs.

    Every field of the spec and machine participates, so *any* change —
    instruction budget, a cache geometry, the predictor kind, a region
    footprint — produces a different key.  The digest also folds in the
    code version, the schema version and the counter-column layout.

    The hashed document is the canonical JSON of ``{"code", "counters",
    "machine", "schema", "spec", "warmup"}`` (spec and machine as
    ``dataclasses.asdict`` gives them), assembled from one fragment per
    part in sorted key order: the same bytes, without the whole-payload
    walk.
    """
    canonical = (
        f'{{"code":{_canonical(code_version())}'
        f',"counters":{_canonical(_counter_fields())}'
        f',"machine":{_machine_fragment(machine)}'
        f',"schema":{_canonical(SCHEMA_VERSION)}'
        f',"spec":{_canonical(_asdict(spec))}'
        f',"warmup":{_canonical(warmup)}}}'
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _encode_sim(result: SimulationResult) -> bytes:
    return _seal(
        _SIM_MAGIC,
        {"name": result.name, "machine": result.machine, "extra": result.extra},
        {"counters": array("q", attrgetter(*_counter_fields())(result))},
    )


def _decode_sim(blob: bytes) -> SimulationResult:
    """Rebuild the result :func:`_encode_sim` wrote, or raise.  The
    checksum catches damage; these checks catch an intact entry of the
    wrong shape."""
    header, columns = _unseal(blob, _SIM_MAGIC)
    name, machine, extra = header["name"], header["machine"], header["extra"]
    counters = columns["counters"]
    fields = _counter_fields()
    if not (
        isinstance(name, str) and isinstance(machine, str) and isinstance(extra, dict)
        and all(type(value) in (int, float) for value in extra.values())
        and counters.typecode == "q" and len(counters) == len(fields)
    ):
        raise ValueError("not a sim entry")
    return SimulationResult(name, machine, extra=extra, **dict(zip(fields, counters)))


def load_result(key: str, root: str | os.PathLike | None = None) -> SimulationResult | None:
    """Fetch a cached result by key, or None on miss/damage."""
    return _load("sim", key, root, _decode_sim)


def store_result(
    key: str, result: SimulationResult, root: str | os.PathLike | None = None
) -> None:
    """Persist *result* under *key* atomically (tmp file + rename)."""
    _write("sim", key, root, _encode_sim(result))


def clear(root: str | os.PathLike | None = None) -> int:
    """Explicit invalidation: delete every cached entry; return the count."""
    return _clear("sim", root)


def check_engine(engine: str) -> None:
    """Refuse an engine other than the batched ``"fast"`` (``run_fast``)
    and the per-μop ``"reference"`` (``Core.run``); callers check before
    keying, so a cache hit cannot hide a misspelt engine."""
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r} (want 'fast' or 'reference')")


def run_engine(
    spec: TraceSpec, machine: MachineConfig, warmup: int | None = None, engine: str = "fast"
) -> SimulationResult:
    """Simulate *spec* on a fresh core of *machine*, uncached."""
    check_engine(engine)
    if engine == "fast":
        from repro.perf.fastpath import run_fast

        return run_fast(Core(machine), SyntheticTrace(spec), warmup=warmup)
    return Core(machine).run(SyntheticTrace(spec), warmup=warmup)


class _CacheHandle:
    """What both cache handles share: a root, an on/off switch (default:
    the escape hatch), hit/miss accounting, and stores that cannot fail a
    finished computation."""

    def __init__(
        self, root: str | os.PathLike | None = None, enabled: bool | None = None
    ) -> None:
        self.root = cache_dir(root)
        self.enabled = self._enabled_by_default() if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self._store_failed = False

    def _lookup(self, load, key: str | None, *args):
        """``load(key, root, *args)`` counted as a hit or a miss; no *key*
        (the cache is off) is a miss."""
        value = None if key is None else load(key, self.root, *args)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _store(self, store, key: str | None, value, **columns) -> None:
        """``store(key, value, root, **columns)`` unless the cache is off.
        A failed write (read-only checkout, root is a file, disk full) only
        costs the next run a recomputation: warn once, keep the result."""
        if key is None:
            return
        try:
            store(key, value, self.root, **columns)
        except OSError as error:
            if not self._store_failed:
                self._store_failed = True
                warnings.warn(
                    f"{type(self).__name__}: cannot write entries under "
                    f"{self.root} ({error}); results are computed, not cached",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SimCache(_CacheHandle):
    """One cache handle with hit/miss accounting.

    ``simulate`` is the memoised twin of building a ``Core`` and running a
    trace: on a hit the stored result is returned without simulating; on a
    miss the chosen engine runs and the result is persisted.  Both paths
    return bit-identical values.
    """

    _enabled_by_default = staticmethod(cache_enabled)

    def simulate(
        self,
        spec: TraceSpec,
        machine: MachineConfig,
        warmup: int | None = None,
        engine: str = "fast",
    ) -> SimulationResult:
        check_engine(engine)
        key = sim_cache_key(spec, machine, warmup) if self.enabled else None
        cached = self._lookup(load_result, key)
        if cached is not None:
            return cached
        result = run_engine(spec, machine, warmup, engine)
        self._store(store_result, key, result)
        return result


# -- mix-level cache (cluster layer) ----------------------------------------

#: Version of the mix entry codec (:func:`store_mix`), folded into every
#: mix key: bump it whenever the on-disk layout changes and entries
#: written by the previous codec become unreachable — there is no reader
#: for old layouts.  (1 was the JSON entry, keyed by ``SCHEMA_VERSION``.)
MIX_SCHEMA_VERSION = 2

#: Modules whose source bytes define a mix's outcome.  Any edit to one of
#: these produces a new cluster code version and a cold mix cache.
_CLUSTER_VERSIONED_MODULES = (
    "repro._gc",
    "repro.cluster.attempts",
    "repro.cluster.cluster",
    "repro.cluster.disk",
    "repro.cluster.eventbus",
    "repro.cluster.faults",
    "repro.cluster.hdfs",
    "repro.cluster.journal",
    "repro.cluster.network",
    "repro.cluster.node",
    "repro.cluster.scheduler",
    "repro.cluster.tenancy",
    "repro.cluster.topology",
    "repro.perf.clusterpath",
    "repro.perf.procfs",
)


def cluster_code_version() -> str:
    """Digest of the cluster-layer source files."""
    return _source_digest(_CLUSTER_VERSIONED_MODULES)


#: Modules a solo-shadow run executes beyond the cluster layer: the
#: workloads, their data generators, the MapReduce engine and Hive.  A
#: trace key (:func:`mix_cache_key` with ``trace=``) stands in for the
#: ``JobWork``s these compute, so any edit to one of them must cold-start
#: trace entries.  ``uarch.trace`` / ``uarch.isa`` are imported by
#: ``workloads.base`` (for ``trace_spec``, which a shadow never calls) and
#: are listed so the import walk in ``tests/core/test_mix_entry.py`` has
#: no exceptions.
_EXEC_VERSIONED_MODULES = (
    "repro.hive.engine",
    "repro.hive.parser",
    "repro.hive.planner",
    "repro.hive.schema",
    "repro.mapreduce.counters",
    "repro.mapreduce.engine",
    "repro.mapreduce.io",
    "repro.mapreduce.job",
    "repro.mapreduce.partitioner",
    "repro.uarch.isa",
    "repro.uarch.trace",
    "repro.workloads.base",
    "repro.workloads.datagen",
    "repro.workloads.fuzzy_kmeans",
    "repro.workloads.grep",
    "repro.workloads.hive_bench",
    "repro.workloads.hmm",
    "repro.workloads.ibcf",
    "repro.workloads.kmeans",
    "repro.workloads.naive_bayes",
    "repro.workloads.pagerank",
    "repro.workloads.sort",
    "repro.workloads.svm",
    "repro.workloads.wordcount",
)


def exec_code_version() -> str:
    """Digest of the execution-layer source files, folded into trace keys
    only (computing it imports none of the modules it lists)."""
    return _source_digest(_EXEC_VERSIONED_MODULES)


def mix_cache_enabled(default: bool = True) -> bool:
    """Honour the ``REPRO_MIX_CACHE`` escape hatch."""
    return _switch("REPRO_MIX_CACHE", default)


def _cluster_fingerprint(cluster) -> dict:
    """Everything about the cluster that can change a mix's outcome.

    Device *state* (slot frees, busy-until times, the clock) is included
    alongside geometry, so a warm hit is legal even for clusters that
    are not pristine — reuse with different prior wear simply misses.
    """
    network = cluster.network
    return {
        "block_size": cluster.hdfs.block_size,
        "replication": cluster.hdfs.replication,
        "bytes_per_checksum": cluster.hdfs.bytes_per_checksum,
        "locality_wait_s": cluster.locality_wait_s,
        "rack_locality_wait_s": cluster.rack_locality_wait_s,
        "journaling": cluster.journal is not None,
        "clock": cluster.clock,
        "topology": (
            [list(pair) for pair in cluster.topology.assignments]
            if cluster.topology is not None
            else None
        ),
        "network": [
            network.latency_s,
            network.fabric_bandwidth,
            network.core_bandwidth,
            network.fabric_busy_until,
            network.core_busy_until,
            sorted(network.uplink_busy_until.items()),
        ],
        "slaves": [
            [
                node.name,
                node.map_slots,
                node.reduce_slots,
                node.cpu_speed,
                node.slow_factor,
                node.disk.read_bw,
                node.disk.write_bw,
                node.disk.seek_s,
                node.nic.bandwidth,
                list(node.map_slot_free),
                list(node.reduce_slot_free),
                node.disk.busy_until,
                node.disk._pending_write_bytes,
                node.nic.tx_busy_until,
                node.nic.rx_busy_until,
            ]
            for node in cluster.slaves
        ],
    }


_map_demands = attrgetter(
    "input_bytes", "cpu_seconds", "output_bytes", "preferred_nodes", "split"
)
_reduce_demands = attrgetter("shuffle_bytes", "cpu_seconds", "output_bytes")


def _exact_record(record: tuple) -> bytes:
    """``marshal`` format 2 is a pure function of the value (binary
    floats, no back-references, no interning flags), so two records are
    equal only if every field is — to the last bit of a float and the
    order of a placement hint.  A value of a type it refuses falls back
    to ``repr``, which can only turn a would-be hit into a miss."""
    try:
        return marshal.dumps(record, 2)
    except ValueError:
        return repr(record).encode()


def _submission_record(job) -> bytes:
    """One submitted job, exactly: identity, arrival, dependency edge and
    every task's resource demands."""
    work = job.work
    upstream = job.depends_on
    return _exact_record(
        (
            job.job_id,
            work.name,
            job.user,
            job.pool,
            job.arrival_s,
            upstream and upstream.job_id,
            list(map(_map_demands, work.maps)),
            list(map(_reduce_demands, work.reduces)),
        )
    )


def _trace_record(tjob) -> bytes:
    """One trace job, exactly: every field that reaches the outcome (the
    index names its job ids; ``size_class`` only labels the report)."""
    return _exact_record(
        (tjob.index, tjob.workload, tjob.scale, tjob.arrival_s, tjob.user, tjob.pool)
    )


@nogc
def mix_cache_key(multi, trace=None) -> str:
    """Stable content hash for one mix execution's inputs.

    *multi* is a :class:`MultiJobCluster` (either dispatch engine — the
    fast path is bit-identical by contract, so the engine class is
    deliberately not part of the key).  The observability mode **is**
    keyed: it decides whether the outcome carries an event log and which
    per-node rates a timeline reports.

    The key lives in one of two domains, named in the key itself so the
    two can never address the same entry:

    * ``"submissions"`` (no *trace*): *multi* is fully submitted and its
      jobs — every task's demands — are the bulk of the key;
    * ``"trace"``: the key of :func:`~repro.cluster.tenancy.run_mix`,
      computable before any workload runs.  *multi* has no submissions
      yet; the trace's jobs stand in for the ``JobWork``s their solo
      shadows would compute, which is exact because a shadow is a fresh
      cluster of *multi*'s shape (pinned by the cluster fingerprint)
      running code pinned by :func:`exec_code_version`.

    The few small parts go in as one canonical JSON document; the jobs —
    all of a day-long trace's bulk — are streamed into the digest one
    record per job, in order, without ever building the trace-sized
    document.
    """
    payload = {
        "schema": MIX_SCHEMA_VERSION,
        "domain": "submissions" if trace is None else "trace",
        "code": cluster_code_version(),
        "observability": multi.observability,
        "scheduler": multi.scheduler.describe(),
        "plan": _asdict(multi.plan) if multi.plan is not None else None,
        "cluster": _cluster_fingerprint(multi.cluster),
    }
    if trace is None:
        records = map(_submission_record, multi.jobs)
    else:
        payload["exec"] = exec_code_version()
        records = map(_trace_record, trace.jobs)
    canonical = _canonical(payload)
    # The JSON document is self-delimiting, so a differing domain field
    # makes the two byte streams differ whatever records follow.
    digest = hashlib.sha256(canonical.encode())
    for record in records:
        digest.update(record)
    return digest.hexdigest()


def _timeline_to_payload(timeline) -> list | None:
    if timeline is None:
        return None
    return [
        timeline.job_name,
        timeline.start_s,
        timeline.map_phase_end_s,
        timeline.end_s,
        timeline.map_tasks,
        timeline.reduce_tasks,
        sorted(timeline.disk_writes_per_second.items()),
        timeline.network_bytes,
        timeline.maps_node_local,
        timeline.maps_rack_local,
        timeline.maps_off_rack,
        sorted(timeline.node_racks.items()),
    ]


def mix_outcome_payload(outcome) -> dict:
    """The canonical *comparison form* for bit-identity checks: every
    outcome field is represented, dicts are key-normalized, and
    :class:`Event` rows carry all fields (the dataclass's own ``__eq__``
    compares only ``(priority, seq)``).  Compact and list-based —
    ``dataclasses.asdict`` walks every nested field generically and is
    far too slow at 100k reports.  Not the on-disk form: entries are
    columnar (:func:`store_mix`)."""
    return {
        "scheduler": outcome.scheduler,
        "end_s": outcome.end_s,
        "preemptions": outcome.preemptions,
        "preemption_wasted_s": outcome.preemption_wasted_s,
        "fenced_attempts": outcome.fenced_attempts,
        "failed_jobs": list(outcome.failed_jobs),
        "cancelled_jobs": list(outcome.cancelled_jobs),
        "reports": [
            [
                r.job_id,
                r.name,
                r.user,
                r.pool,
                r.arrival_s,
                r.first_launch_s,
                r.finished_s,
                r.preempted,
                _timeline_to_payload(r.timeline),
                r.status,
            ]
            for r in outcome.reports
        ],
        "task_intervals": [
            [iv.kind, iv.job_id, iv.node, iv.start_s, iv.end_s]
            for iv in outcome.task_intervals
        ],
        "fault_accounting": (
            dataclasses.asdict(outcome.fault_accounting)
            if outcome.fault_accounting is not None
            else None
        ),
        "events": [
            [e.priority, e.seq, e.type, e.time_s, e.payload]
            for e in outcome.events
        ],
    }


# -- mix entry codec ----------------------------------------------------------
#
# A sealed entry whose header holds the outcome's scalars, one string table
# and the tables rows point into (rate key sets, rack maps, interval kinds,
# event shapes), with one column per field of the JobReport / JobTimeline /
# TaskInterval / Event rows (strings are table indices).

#: ``job_flags`` bits: which of a report's nullable fields are present
#: (all absent for a failed or cancelled job).  A validity column, not a
#: NaN sentinel: no float value is reserved.
_HAS_LAUNCH, _HAS_FINISH, _HAS_TIMELINE = 1, 2, 4

_REPORT_FIELDS = (
    "job_id", "name", "user", "pool", "arrival_s", "first_launch_s",
    "finished_s", "preempted", "timeline", "status",
)
_TIMELINE_FIELDS = (
    "job_name", "start_s", "map_phase_end_s", "end_s", "map_tasks",
    "reduce_tasks", "disk_writes_per_second", "network_bytes",
    "maps_node_local", "maps_rack_local", "maps_off_rack", "node_racks",
)


def _transpose(rows, fields: tuple[str, ...]) -> list[list]:
    """Rows of objects → one list per field."""
    return [list(map(attrgetter(name), rows)) for name in fields]


def _columns(rows: list[tuple], width: int) -> list[tuple]:
    """Field tuples → one tuple per field (*width* empty ones for no rows)."""
    return list(zip(*rows)) or [()] * width


def _scalar_code(value) -> str:
    """Which value column an event payload entry goes to (the event bus
    admits exactly these scalars)."""
    if isinstance(value, str):
        return "s"
    if isinstance(value, float):
        return "f"
    if value is None:
        return "n"
    if isinstance(value, bool):
        return "b"
    if isinstance(value, int):
        return "i"
    raise TypeError(f"event payload value {value!r} is not a plain scalar")


def _encode_mix(outcome, ideals=None, stages=None) -> bytes:
    (job_ids, job_names, users, pools, arrivals, launches, finishes,
     preempted, timelines, statuses) = _transpose(outcome.reports, _REPORT_FIELDS)
    flags = [
        (first is not None) * _HAS_LAUNCH
        + (done is not None) * _HAS_FINISH
        + (timeline is not None) * _HAS_TIMELINE
        for first, done, timeline in zip(launches, finishes, timelines)
    ]
    (tl_names, starts, map_ends, ends, map_tasks, reduce_tasks, writes, net_bytes,
     node_local, rack_local, off_rack, racks) = _transpose(
        [timeline for timeline in timelines if timeline is not None],
        _TIMELINE_FIELDS,
    )
    # Per-node write rates, CSR style: the distinct node-name tuples once
    # each, then per timeline a key-set index and a run of rates.
    keysets = {}
    keyset_ids = [keysets.setdefault(tuple(rates), len(keysets)) for rates in writes]
    rate_offsets = array("q", [0])
    rate_offsets.extend(accumulate(map(len, writes)))
    rack_maps = {}
    rack_ids = [
        rack_maps.setdefault(tuple(mapping.items()), len(rack_maps))
        for mapping in racks
    ]
    kinds, iv_jobs, iv_nodes, iv_starts, iv_ends = _columns(
        outcome.rows("task_intervals"), 5
    )
    kind_ids = {kind: index for index, kind in enumerate(dict.fromkeys(kinds))}
    priorities, seqs, types, times, payloads = _columns(outcome.rows("events"), 5)
    # Event payloads: the distinct (type, keys, value kinds) shapes once
    # each; values appended, in row order, to one column per kind.
    shapes = {}
    shape_ids = []
    ev_texts, ev_floats, ev_ints = [], [], []
    sinks = {
        "s": ev_texts.append, "f": ev_floats.append,
        "i": ev_ints.append, "b": ev_ints.append,
    }
    for event_type, payload in zip(types, payloads):
        codes = "".join(map(_scalar_code, payload.values()))
        shape_ids.append(
            shapes.setdefault((event_type, codes, *payload), len(shapes))
        )
        for code, value in zip(codes, payload.values()):
            if code != "n":
                sinks[code](value)

    strings = list(
        dict.fromkeys(
            chain(job_ids, job_names, users, pools, statuses, tl_names, iv_jobs,
                  iv_nodes, ev_texts, chain.from_iterable(keysets))
        )
    )
    text_ids = dict(zip(strings, range(len(strings)))).__getitem__

    def texts(values) -> array:
        return array("i", map(text_ids, values))

    columns = {
        "job_id": texts(job_ids),
        "job_name": texts(job_names),
        "job_user": texts(users),
        "job_pool": texts(pools),
        "job_arrival": array("d", arrivals),
        "job_launch": array("d", [0.0 if v is None else v for v in launches]),
        "job_finish": array("d", [0.0 if v is None else v for v in finishes]),
        "job_preempted": array("i", preempted),
        "job_status": texts(statuses),
        "job_flags": array("b", flags),
        "tl_name": texts(tl_names),
        "tl_start": array("d", starts),
        "tl_map_end": array("d", map_ends),
        "tl_end": array("d", ends),
        "tl_map_tasks": array("i", map_tasks),
        "tl_reduce_tasks": array("i", reduce_tasks),
        "tl_keyset": array("i", keyset_ids),
        "tl_rate_offsets": rate_offsets,
        "tl_rates": array(
            "d", chain.from_iterable(rates.values() for rates in writes)
        ),
        "tl_network_bytes": array("q", net_bytes),
        "tl_node_local": array("i", node_local),
        "tl_rack_local": array("i", rack_local),
        "tl_off_rack": array("i", off_rack),
        "tl_rack_map": array("i", rack_ids),
        "iv_kind": array("b", map(kind_ids.__getitem__, kinds)),
        "iv_job": texts(iv_jobs),
        "iv_node": texts(iv_nodes),
        "iv_start": array("d", iv_starts),
        "iv_end": array("d", iv_ends),
        "ev_priority": array("i", priorities),
        "ev_seq": array("q", seqs),
        "ev_shape": array("i", shape_ids),
        "ev_time": array("d", times),
        "ev_text": texts(ev_texts),
        "ev_float": array("d", ev_floats),
        "ev_int": array("q", ev_ints),
    }
    if ideals is not None:
        columns["trace_ideal"] = array("d", ideals)
        columns["trace_stages"] = array("i", stages)
    accounting = outcome.fault_accounting
    return _seal(
        _MIX_MAGIC,
        {
            "scheduler": outcome.scheduler,
            "end_s": outcome.end_s,
            "preemptions": outcome.preemptions,
            "preemption_wasted_s": outcome.preemption_wasted_s,
            "fenced_attempts": outcome.fenced_attempts,
            "failed_jobs": outcome.failed_jobs,
            "cancelled_jobs": outcome.cancelled_jobs,
            "fault_accounting": (
                dataclasses.asdict(accounting) if accounting is not None else None
            ),
            "strings": strings,
            "rate_keysets": [list(map(text_ids, keys)) for keys in keysets],
            "rack_maps": list(rack_maps),
            "interval_kinds": list(kind_ids),
            "event_shapes": [
                [event_type, codes, keys] for event_type, codes, *keys in shapes
            ],
        },
        columns,
    )


def _decode_mix(blob: bytes, trace_jobs: int | None = None):
    """Rebuild the outcome :func:`_encode_mix` wrote, or raise (see
    :func:`_unseal`).  With *trace_jobs*, rebuild ``(outcome, ideals,
    stages)`` of a trace entry for that many jobs."""
    from repro.cluster.cluster import JobTimeline
    from repro.cluster.eventbus import Event
    from repro.cluster.scheduler import (
        JobReport,
        MixFaultAccounting,
        MixOutcome,
        TaskInterval,
    )

    header, columns = _unseal(blob, _MIX_MAGIC)

    def rows(*names) -> list[array]:
        """The columns of one row type; ``map`` over them would silently
        stop at the shortest, so they must agree in length."""
        section = [columns[name] for name in names]
        if len({len(column) for column in section}) > 1:
            raise ValueError(f"ragged columns {names}")
        return section

    text = header["strings"].__getitem__
    (tl_names, starts, map_ends, ends, map_tasks, reduce_tasks, keyset_ids,
     net_bytes, node_local, rack_local, off_rack, rack_ids) = rows(
        "tl_name", "tl_start", "tl_map_end", "tl_end", "tl_map_tasks",
        "tl_reduce_tasks", "tl_keyset", "tl_network_bytes", "tl_node_local",
        "tl_rack_local", "tl_off_rack", "tl_rack_map",
    )
    keysets = [tuple(map(text, keys)) for keys in header["rate_keysets"]]
    rates = columns["tl_rates"]
    offsets = columns["tl_rate_offsets"]
    if len(offsets) != len(tl_names) + 1 or offsets[-1] != len(rates):
        raise ValueError("rate offsets do not cover the rates column")
    writes = [
        dict(zip(keysets[keys], rates[start:end]))
        for keys, start, end in zip(keyset_ids, offsets, offsets[1:])
    ]
    rack_maps = header["rack_maps"]
    timelines = map(
        JobTimeline, map(text, tl_names), starts, map_ends, ends, map_tasks,
        reduce_tasks, writes, net_bytes, node_local, rack_local, off_rack,
        map(dict, map(rack_maps.__getitem__, rack_ids)),
    )
    (job_ids, job_names, users, pools, arrivals, launches, finishes,
     preempted, statuses, flags) = rows(
        "job_id", "job_name", "job_user", "job_pool", "job_arrival",
        "job_launch", "job_finish", "job_preempted", "job_status", "job_flags",
    )
    if sum(1 for flag in flags if flag & _HAS_TIMELINE) != len(tl_names):
        raise ValueError("timeline rows do not match the reports that have one")
    reports = list(
        map(
            JobReport,
            map(text, job_ids), map(text, job_names), map(text, users),
            map(text, pools), arrivals,
            [v if f & _HAS_LAUNCH else None for v, f in zip(launches, flags)],
            [v if f & _HAS_FINISH else None for v, f in zip(finishes, flags)],
            preempted,
            [next(timelines) if f & _HAS_TIMELINE else None for f in flags],
            map(text, statuses),
        )
    )

    kinds = header["interval_kinds"]
    iv_kinds, iv_jobs, iv_nodes, iv_starts, iv_ends = rows(
        "iv_kind", "iv_job", "iv_node", "iv_start", "iv_end"
    )

    def task_intervals() -> list:
        return list(
            map(
                TaskInterval, map(kinds.__getitem__, iv_kinds), map(text, iv_jobs),
                map(text, iv_nodes), iv_starts, iv_ends,
            )
        )

    shapes = header["event_shapes"]
    event_rows = rows("ev_priority", "ev_seq", "ev_shape", "ev_time")
    # Bound here, not inside the decoder: a closure over ``columns``
    # would keep every other section alive until the events are read.
    text_values, float_values, int_values = (
        columns["ev_text"], columns["ev_float"], columns["ev_int"]
    )

    def events() -> tuple:
        ev_texts = map(text, text_values)
        ev_floats = iter(float_values)
        ev_ints = iter(int_values)
        readers = {
            "s": ev_texts.__next__,
            "f": ev_floats.__next__,
            "i": ev_ints.__next__,
            "b": lambda: bool(next(ev_ints)),
            "n": lambda: None,
        }
        plans = [
            (event_type, [(key, readers[code]) for key, code in zip(keys, codes)])
            for event_type, codes, keys in shapes
        ]
        log = []
        for priority, seq, shape, time_s in zip(*event_rows):
            event_type, fields = plans[shape]
            payload = {key: read() for key, read in fields}
            log.append(Event(priority, seq, event_type, time_s, payload))
        return tuple(log)

    accounting = header["fault_accounting"]
    if accounting is not None:
        accounting = MixFaultAccounting(
            **{
                name: tuple(value) if isinstance(value, list) else value
                for name, value in accounting.items()
            }
        )
    outcome = MixOutcome.deferred(
        scheduler=header["scheduler"],
        reports=reports,
        end_s=header["end_s"],
        preemptions=header["preemptions"],
        preemption_wasted_s=header["preemption_wasted_s"],
        task_intervals=task_intervals,
        fault_accounting=accounting,
        fenced_attempts=header["fenced_attempts"],
        failed_jobs=tuple(header["failed_jobs"]),
        cancelled_jobs=tuple(header["cancelled_jobs"]),
        events=events,
    )
    if trace_jobs is None:
        return outcome
    # One row per trace job; its stage count says how many consecutive
    # reports (submission order) are its chain.
    ideals, stages = rows("trace_ideal", "trace_stages")
    if (
        len(ideals) != trace_jobs
        or min(stages, default=1) < 1
        or sum(stages) != len(reports)
    ):
        raise ValueError("trace columns do not match the trace")
    return outcome, ideals.tolist(), stages.tolist()


@nogc
def load_mix(
    key: str, root: str | os.PathLike | None = None, trace_jobs: int | None = None
):
    """Fetch a cached mix outcome by key, or None on miss/damage.

    One bulk read, one checksum pass, one ``frombytes`` per column.
    Reports and timelines are rebuilt here; ``task_intervals`` and
    ``events`` — most of the objects, read by occupancy analysis and the
    event-log export but not by ``run_mix`` or the ``mix`` table — are
    rebuilt from their (already validated) columns on first access.

    With *trace_jobs* the entry is a trace entry (:func:`store_mix` with
    ``ideals``): the result is ``(outcome, ideals, stages)``, and an entry
    without exactly *trace_jobs* rows of them is a miss.
    """
    return _load("mix", key, root, _decode_mix, trace_jobs)


@nogc
def store_mix(
    key: str, outcome, root: str | os.PathLike | None = None, ideals=None, stages=None
) -> None:
    """Persist *outcome* under *key* atomically (tmp file + rename).

    A trace entry also carries, per trace job, its solo-shadow seconds
    (*ideals*) and its stage count (*stages*): two more columns, written
    only when given, so a submission entry's bytes do not change."""
    _write("mix", key, root, _encode_mix(outcome, ideals, stages))


def clear_mix(root: str | os.PathLike | None = None) -> int:
    """Delete every cached mix outcome; return the count."""
    return _clear("mix", root)


class MixCache(_CacheHandle):
    """One mix-cache handle with hit/miss accounting.

    ``run`` is the memoised twin of :meth:`MultiJobCluster.run`: on a
    hit the stored outcome is returned without dispatching a single
    task; on a miss the mix runs and the outcome is persisted.  Both
    paths return bit-identical values (``tests/core/test_simcache.py``
    round-trips every field).  ``load_trace`` / ``store_trace`` are the
    same memo keyed on a trace instead, for
    :func:`~repro.cluster.tenancy.run_mix`.
    """

    _enabled_by_default = staticmethod(mix_cache_enabled)

    def run(self, multi):
        key = mix_cache_key(multi) if self.enabled else None
        cached = self._lookup(load_mix, key)
        if cached is not None:
            return cached
        outcome = multi.run()
        self._store(store_mix, key, outcome)
        return outcome

    def load_trace(self, multi, trace):
        """Look up the trace entry for playing *trace* on *multi* (not yet
        submitted to) and count the hit or miss.

        Returns ``(key, entry)``: *entry* is ``(outcome, ideals, stages)``
        on a hit and None on a miss; *key* is what :meth:`store_trace`
        takes, None when the cache is off.
        """
        key = mix_cache_key(multi, trace=trace) if self.enabled else None
        return key, self._lookup(load_mix, key, len(trace.jobs))

    def store_trace(self, key: str | None, outcome, ideals, stages) -> None:
        """Persist a missed trace's outcome with its per-trace-job ideal
        seconds and stage counts under the *key* :meth:`load_trace` gave."""
        self._store(store_mix, key, outcome, ideals=ideals, stages=stages)
