"""Measurement plumbing shared by the four workloads.

* :class:`HostSpeed` — how fast the shared host runs right now, from a
  fixed probe computation sampled around and during every timed op;
* :class:`Run` — one measured run: timed ops with their samples, the
  attempted/failed count, verification checks and information lines;
* :class:`Tracer` — in-memory spans (name, start, end, parent, op id)
  recorded by wrapping a layer's public callables *from here*, never by
  editing ``src/``; self-times come from the span tree;
* small statistics and fingerprint helpers.

All times are host seconds from ``time.perf_counter``; the samples of an
untraced run are scaled to the reference host speed (see
:class:`HostSpeed`), spans are not.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import importlib
import inspect
import json
import os
import platform
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

perf = time.perf_counter


# -- statistics -----------------------------------------------------------------


def tail_percentile(values) -> tuple[str, float] | None:
    """The highest percentile that still has ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.0f}", ordered[n - 11]


# -- host speed -----------------------------------------------------------------

#: One probe on the 2-core box the sizes were pinned on, while nothing
#: shares its core.  Scaled samples therefore read as seconds on that
#: box when it is quiet.
PROBE_REFERENCE_S = 0.00125
#: probes run back to back before and after every timed op
FLANK_PROBES = 15
#: one probe every so often while an op runs (≈3 % of the op)
PROBE_INTERVAL_S = 0.04

_PROBE_JSON = json.dumps(
    [{"a": i, "b": [i, i + 1, i / 3], "c": {"x": str(i)}} for i in range(500)]
)


def probe() -> float:
    """Host seconds of one fixed computation: an interpreter loop, then
    parsing and dropping a small JSON document — bytecode, allocation and
    pointer chasing, which is what every op of the benchmark is made of.
    It calls nothing from ``src/``, so only the host can change it."""
    start = perf()
    total = 0
    for i in range(15000):
        total += i * i
    json.loads(_PROBE_JSON)
    return perf() - start


def settle() -> None:
    """Empty the collector's generations and set everything alive aside,
    so that collections during the next op or probe visit only what it
    allocates itself.  Otherwise a cache hit is charged a walk over the
    benchmark's own inputs and kept results, two thirds of its time."""
    gc.collect()
    gc.freeze()


class HostSpeed:
    """Scales op times to the reference host speed.

    This sandbox alternates between two speeds about 1.6x apart every
    0.3-3 s, and the share of slow time drifts over minutes, so raw
    seconds of the same code differ by a quarter from run to run.  The
    probe is slowed by the same neighbour as the op: ``FLANK_PROBES``
    run before and after each op, and a timer runs one more every
    ``PROBE_INTERVAL_S`` inside it (a Python signal handler runs on the
    main thread between two bytecodes — no second thread).  The op's
    time, less the probes inside it, is divided by their mean over
    ``PROBE_REFERENCE_S``.
    """

    def __init__(self) -> None:
        self._inside: list[float] = []
        self._flank: list[float] = []
        self._flank_end = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        gc.disable()  # a collection that comes due here is the program's, not the probe's
        self._inside.append(probe())
        gc.enable()

    def flank(self) -> list[float]:
        """Probe now; ops that follow each other at once share a flank."""
        if perf() - self._flank_end > 0.02:
            settle()
            self._flank = [probe() for _ in range(FLANK_PROBES)]
            self._flank_end = perf()
        return self._flank

    def timed(self, fn, probed: bool = True):
        """Run *fn*; returns its result, its seconds as they passed (less
        the probes inside it) and the same scaled.  An op too short to
        probe (*probed* false) is scaled by the last flank."""
        if not probed:
            start = perf()
            result = fn()
            elapsed = perf() - start
            return result, elapsed, elapsed * self.factor(self._flank)
        before = self.flank()
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            start = perf()
            result = fn()
            elapsed = perf() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        inside = self._inside
        own = elapsed - sum(inside)
        return result, own, own * self.factor(before + inside + self.flank())

    @staticmethod
    def factor(probes: list[float]) -> float:
        return PROBE_REFERENCE_S / fmean(probes)


# -- tracing --------------------------------------------------------------------


class Tracer:
    """Span recorder.  Spans live in memory and are written out once."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []
        #: probes whose symbol could not be found: (target, reason)
        self.absent: list[tuple[str, str]] = []

    # recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf(), None, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def op(self, name: str):
        """A top-level span; everything beneath shares its op id."""
        self._op += 1
        with self.span(name):
            yield self._op

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_generator(self, fn, name: str):
        """One span per ``next()``: the time spent *inside* the generator,
        not the time its consumer takes between items."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        return traced

    def wrap_factory(self, fn, method: str, name: str):
        """Wrap *method* of every object the factory *fn* returns."""

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            obj = fn(*args, **kwargs)
            setattr(obj, method, self.wrap(getattr(obj, method), name))
            return obj

        return factory

    # patching ----------------------------------------------------------------

    def patch(self, target: str, name: str, kind: str = "call", method: str = "") -> bool:
        """Wrap ``module:attr.path`` so calls record a span called *name*.

        Returns False (and notes the probe as absent) when the symbol is
        gone — per-layer probes may disappear with the code they watch.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError) as error:
            self.absent.append((target, f"{type(error).__name__}: {error}"))
            return False
        wrap = {
            "call": lambda fn: self.wrap(fn, name),
            "generator": lambda fn: self.wrap_generator(fn, name),
            "factory": lambda fn: self.wrap_factory(fn, method, name),
        }[kind]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrap(raw.__func__))
        else:
            wrapped = wrap(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        return True

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # reading -----------------------------------------------------------------

    def layers(self, ops: set[int] | None = None) -> dict[str, dict]:
        """Per span name: calls, busy seconds (outermost spans only, so
        recursion is not double-counted) and self seconds (duration minus
        the part direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            nested = False
            while parent is not None:
                if self.spans[parent][0] == name:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                row["busy_s"] += end - start
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["absent"] = [list(pair) for pair in self.absent]
        payload["spans"] = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


# -- one measured run -----------------------------------------------------------


class Run:
    """Samples, failures, checks and notes of one benchmark run."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        #: a traced run reports spans, which are raw: it is not scaled
        self.speed = HostSpeed() if tracer is None else None
        #: per op kind: seconds at the reference host speed (raw if traced)
        self.samples: dict[str, list[float]] = {}
        #: per op kind: seconds as they passed on this host
        self.raw: dict[str, list[float]] = {}
        self.op_ids: dict[str, set[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.info: dict[str, object] = {}
        self.failures: list[str] = []
        #: an op raised, so its sample is missing and medians would lie
        self.op_failed = False

    def samples_of(self, kind: str, raw: bool = False) -> list[float]:
        """Samples of every op kind that starts with *kind* ("cold" pools
        "cold:fair", "cold:capacity", ...)."""
        samples = self.raw if raw else self.samples
        return [s for k, values in samples.items() if k.startswith(kind) for s in values]

    def ops_of(self, kind: str) -> set[int]:
        return {i for k, ids in self.op_ids.items() if k.startswith(kind) for i in ids}

    def timed(self, kind: str, span_name: str, fn, probed: bool = True):
        """Run one user-visible op; returns its result, or None if it raised.

        An exception is a failed op, not a crashed benchmark: the count
        goes into ``failed`` and the run carries on.  Pass *probed* false
        for an op of well under a probe's length that follows a probed one.
        """
        self.attempted += 1
        tracer = self.tracer
        try:
            if tracer is None:
                result, elapsed, scaled = self.speed.timed(fn, probed)
            else:
                if probed:
                    settle()
                with tracer.op(span_name) as op_id:
                    start = perf()
                    result = fn()
                    elapsed = scaled = perf() - start
                self.op_ids.setdefault(kind, set()).add(op_id)
        except Exception:
            self.op_failed = True
            self.fail(f"{kind} op {span_name} raised:\n{traceback.format_exc()}")
            return None
        self.samples.setdefault(kind, []).append(scaled)
        self.raw.setdefault(kind, []).append(elapsed)
        return result

    @contextmanager
    def untimed(self, span_name: str, kind: str):
        """Work outside the end-to-end samples that the trace still shows."""
        if self.tracer is None:
            yield
            return
        with self.tracer.op(span_name) as op_id:
            self.op_ids.setdefault(kind, set()).add(op_id)
            yield

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        """One verification op: counted as attempted, failed when not ok."""
        self.attempted += 1
        if not ok:
            self.fail(f"verification failed: {label} {detail}".rstrip())

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


# -- helpers --------------------------------------------------------------------


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def digest(obj) -> str:
    """SHA-256 over canonical JSON (sorted keys, repr-exact floats)."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def fingerprint() -> dict:
    """Where and on what the numbers were taken."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    commit = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref:"):
            commit = (REPO_ROOT / ".git" / ref.split(None, 1)[1]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass  # a driver checkout is not a git repository
    from repro.core.simcache import cluster_code_version, code_version

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "code_version": code_version(),
        "cluster_code_version": cluster_code_version(),
    }
