"""Both caches' sealed binary entries, and the mix cache's payload.

Three promises, each with its own class below:

* **round trip** — whatever ``MultiJobCluster.run`` can produce
  (failed and cancelled jobs, non-ASCII names, no events, either
  observability mode) loads back ``==`` to the outcome stored, with an
  identical canonical payload, and no float value doubles as ``None``;
* **laziness** — ``task_intervals`` and ``events`` are rebuilt on first
  read, invisibly: no flag, no second type;
* **damage is a miss** — a torn, flipped, foreign, stale or concurrently
  rewritten entry never raises and never yields a wrong value.  One
  battery runs on a ``mix`` entry and on a ``sim`` entry; an intact sim
  entry of the wrong shape is a miss too.

``run_mix``'s trace entries keep all three and add one: a warm replay
runs no workload, and its outputs are computed on first read.

Plus the guard on what the keys digest: every module a dispatch can
execute is in ``_CLUSTER_VERSIONED_MODULES``, every module a shadow
run can execute is in it or in ``_EXEC_VERSIONED_MODULES``, and every
module either μop engine can execute is in the ``SimCache`` key's
``_VERSIONED_MODULES``.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import JobTimeline, JobWork, MapWork, make_cluster
from repro.cluster.faults import FaultPlan
from repro.cluster.scheduler import (
    FifoScheduler,
    JobReport,
    MixOutcome,
    MultiJobCluster,
    TaskInterval,
)
from repro.cluster.tenancy import WorkloadTrace, generate_trace, run_mix
from repro.core import simcache
from repro.core.simcache import (
    MixCache,
    SimCache,
    clear,
    clear_mix,
    code_version,
    load_mix,
    load_result,
    mix_cache_key,
    mix_outcome_payload,
    sim_cache_key,
    store_mix,
    store_result,
)
from repro.perf.clusterpath import FastMultiJobCluster
from repro.uarch.pipeline import Core
from repro.uarch.trace import SyntheticTrace, TraceSpec
from tests.cluster.test_clusterpath import build_mix
from tests.core.test_simcache import SCALED, build_small_mix, entry_path, sealed_entry

KEY = "ab" * 32


def round_trip(outcome, root) -> MixOutcome:
    store_mix(KEY, outcome, root)
    loaded = load_mix(KEY, root)
    assert loaded is not None
    return loaded


def blackout_outcome(observability="full"):
    """One job completes, then every node dies: the chain head fails and
    its dependents are cancelled (``first_launch_s`` / ``finished_s`` /
    ``timeline`` all ``None``).  Names are deliberately not ASCII."""
    cluster = make_cluster(num_slaves=2, map_slots=2, block_size=64 * 1024)
    plan = FaultPlan(node_crashes=(("slave1", 0.2), ("slave2", 0.2)))
    multi = MultiJobCluster(
        cluster, FifoScheduler(), plan=plan, observability=observability
    )

    def work(name):
        return JobWork(name=name, maps=(MapWork(1 << 12, 0.05, 1 << 10),), reduces=())

    multi.submit(work("одиночка ✓"), arrival_s=0.0, user="zoë")
    head = multi.submit(work("頭"), arrival_s=0.5, user="zoë")
    mid = multi.submit(work("mitté"), after=head, arrival_s=0.5, user="bjørn")
    multi.submit(work("tail\U0001f980"), after=mid, arrival_s=0.5, user="bjørn")
    return multi.run(raise_on_failure=False)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scheduler_kind=st.sampled_from(["fifo", "fair", "capacity"]),
        racks=st.sampled_from([1, 3]),
        plan_kind=st.sampled_from([None, "faults", "slow"]),
        observability=st.sampled_from(["full", "lean"]),
    )
    def test_property_loaded_equals_stored(
        self, seed, scheduler_kind, racks, plan_kind, observability
    ):
        _, multi = build_mix(
            FastMultiJobCluster, seed, scheduler_kind, racks, plan_kind, observability
        )
        outcome = multi.run(raise_on_failure=False)
        with tempfile.TemporaryDirectory() as root:
            loaded = round_trip(outcome, root)
        assert mix_outcome_payload(loaded) == mix_outcome_payload(outcome)
        assert loaded == outcome
        # Event.__eq__ compares (priority, seq) only; the payload form
        # above compared the rest.  Dict *order* survives too, so a warm
        # run's JSON export is the cold run's, byte for byte.
        for cold, warm in zip(outcome.reports, loaded.reports):
            if cold.timeline is not None:
                assert list(warm.timeline.disk_writes_per_second) == list(
                    cold.timeline.disk_writes_per_second
                )
                assert list(warm.timeline.node_racks) == list(cold.timeline.node_racks)

    @pytest.mark.parametrize("observability", ["full", "lean"])
    def test_failed_and_cancelled_jobs_with_unicode_names(self, tmp_path, observability):
        outcome = blackout_outcome(observability)
        assert outcome.failed_jobs and len(outcome.cancelled_jobs) == 2
        assert bool(outcome.events) == (observability == "full")
        loaded = round_trip(outcome, tmp_path)
        assert loaded == outcome
        assert mix_outcome_payload(loaded) == mix_outcome_payload(outcome)
        statuses = {report.name: report for report in loaded.reports}
        assert statuses["одиночка ✓"].timeline is not None
        for name in ("頭", "mitté", "tail\U0001f980"):
            report = statuses[name]
            assert report.status in ("failed", "cancelled")
            assert (report.first_launch_s, report.finished_s, report.timeline) == (
                None,
                None,
                None,
            )

    def test_empty_outcome(self, tmp_path):
        outcome = MixOutcome("fifo", [], 0.0, 0, 0.0, [])
        loaded = round_trip(outcome, tmp_path)
        assert loaded == outcome
        assert loaded.events == () and loaded.task_intervals == []

    def test_no_float_value_stands_for_none(self, tmp_path):
        """Presence is a validity column: NaN, infinities and -0.0 come
        back as themselves, and each nullable field is independent."""
        timeline = JobTimeline(
            job_name="t", start_s=-0.0, map_phase_end_s=math.inf, end_s=math.nan,
            map_tasks=1, reduce_tasks=0, disk_writes_per_second={"n1": math.nan},
            network_bytes=2**40,
        )
        reports = [
            JobReport("a", "a", "u", "p", 0.0, math.nan, -0.0, 0, timeline),
            # launched, never finished: only one of the three is present
            JobReport("b", "b", "u", "p", 1.0, 0.0, None, 2, None, "failed"),
            JobReport("c", "c", "u", "p", 2.0, None, None, 0, None, "cancelled"),
        ]
        outcome = MixOutcome(
            "fifo", reports, math.inf, 1, 0.5,
            [TaskInterval("map", "a", "n1", 0.0, math.nan)],
            failed_jobs=("b",), cancelled_jobs=("c",),
        )
        loaded = round_trip(outcome, tmp_path)
        a, b, c = loaded.reports
        assert math.isnan(a.first_launch_s)
        assert a.finished_s == 0.0 and math.copysign(1.0, a.finished_s) == -1.0
        assert math.copysign(1.0, a.timeline.start_s) == -1.0
        assert a.timeline.map_phase_end_s == math.inf
        assert math.isnan(a.timeline.end_s)
        assert math.isnan(a.timeline.disk_writes_per_second["n1"])
        assert a.timeline.network_bytes == 2**40
        assert (b.first_launch_s, b.finished_s, b.timeline) == (0.0, None, None)
        assert (c.first_launch_s, c.finished_s, c.timeline) == (None, None, None)
        assert loaded.end_s == math.inf
        assert math.isnan(loaded.task_intervals[0].end_s)
        # NaN != NaN, so compare the canonical form as JSON text
        assert json.dumps(mix_outcome_payload(loaded)) == json.dumps(
            mix_outcome_payload(outcome)
        )


class TestLaziness:
    def loaded(self, tmp_path):
        outcome = build_small_mix(plan=True).run()
        return outcome, round_trip(outcome, tmp_path)

    def test_big_sections_wait_for_their_first_reader(self, tmp_path):
        outcome, loaded = self.loaded(tmp_path)
        assert type(loaded) is MixOutcome
        assert "task_intervals" not in vars(loaded) and "events" not in vars(loaded)
        # what run_mix and the mix table read does not touch them
        assert loaded.report(outcome.reports[0].job_id) == outcome.reports[0]
        assert loaded.by_pool() == outcome.by_pool()
        assert "task_intervals" not in vars(loaded) and "events" not in vars(loaded)
        assert loaded.peak_concurrency() == outcome.peak_concurrency()
        assert "task_intervals" in vars(loaded) and "events" not in vars(loaded)
        assert len(loaded.events) == len(outcome.events) > 0
        assert loaded.events is loaded.events
        assert loaded == outcome

    def test_copies_decode_independently(self, tmp_path):
        outcome, loaded = self.loaded(tmp_path)
        twin = copy.copy(loaded)
        assert twin.task_intervals == outcome.task_intervals
        assert loaded.task_intervals == outcome.task_intervals
        assert copy.deepcopy(round_trip(outcome, tmp_path)) == outcome

    def test_unknown_attribute_still_raises(self, tmp_path):
        _, loaded = self.loaded(tmp_path)
        with pytest.raises(AttributeError):
            loaded.no_such_field

    def test_run_mix_hit_never_decodes_them(self, tmp_path):
        from repro.cluster.scheduler import make_scheduler
        from repro.cluster.tenancy import generate_trace, run_mix

        trace = generate_trace(seed=3, num_jobs=4)
        cold = run_mix(trace, make_scheduler("fifo"), mix_cache=MixCache(tmp_path, True))
        warm = run_mix(trace, make_scheduler("fifo"), mix_cache=MixCache(tmp_path, True))
        assert "task_intervals" not in vars(warm.outcome)
        assert "events" not in vars(warm.outcome)
        assert warm.to_dict() == cold.to_dict()
        assert warm.outcome == cold.outcome


def entry_layout(blob, magic=b"REPROMIX"):
    """(data start, section directory) of a well-formed entry."""
    found, header_len = struct.unpack_from("<8sI", blob)
    assert found == magic
    header = json.loads(blob[12 : 12 + header_len])
    return 12 + header_len, header["sections"]


def resealed(blob, magic=b"REPROMIX", **change):
    """*blob*'s header with *change* applied, resealed around its columns."""
    data_start, _ = entry_layout(blob, magic)
    header = {**json.loads(blob[12:data_start]), **change}
    return sealed_entry(header, blob[data_start:-40], magic)


#: the simulation the sim battery stores (small: the bit-flip test reads
#: the entry once per byte)
SIM_SPEC = TraceSpec(name="damage", instructions=2_000, seed=5)


@dataclasses.dataclass(frozen=True)
class Namespace:
    """How the damage battery drives one cache namespace."""

    name: str
    magic: bytes
    key: Callable[[], str]
    compute: Callable[[], object]
    load: Callable  # (key, root) -> value or None
    store: Callable  # (key, value, root)
    clear: Callable  # (root) -> entries removed
    handle: Callable  # (root) -> an enabled cache handle
    through: Callable  # (handle) -> the value, memoised by the handle
    #: a column the battery cuts one row short
    short_section: str
    #: the JSON text the namespace's previous layout left at ``<key>.json``
    stale: Callable[[object], str]


NAMESPACES = {
    "mix": Namespace(
        name="mix",
        magic=b"REPROMIX",
        key=lambda: mix_cache_key(build_small_mix(plan=True)),
        compute=lambda: build_small_mix(plan=True).run(),
        load=load_mix,
        store=store_mix,
        clear=clear_mix,
        handle=lambda root: MixCache(root, enabled=True),
        through=lambda cache: cache.run(build_small_mix(plan=True)),
        short_section="iv_end",  # a lazily decoded section, checked eagerly
        stale=lambda _: json.dumps(
            {"schema": 1, "outcome": {"scheduler": "fifo", "reports": []}}
        ),
    ),
    "sim": Namespace(
        name="sim",
        magic=b"REPROSIM",
        key=lambda: sim_cache_key(SIM_SPEC, SCALED),
        compute=lambda: Core(SCALED).run(SyntheticTrace(SIM_SPEC)),
        load=load_result,
        store=store_result,
        clear=clear,
        handle=lambda root: SimCache(root, enabled=True),
        through=lambda cache: cache.simulate(SIM_SPEC, SCALED),
        short_section="counters",
        stale=lambda result: json.dumps(
            {"schema": 1, "code": code_version(), "result": dataclasses.asdict(result)}
        ),
    ),
}


class TestDamageIsAMiss:
    """Damage to a stored ``mix`` entry; :class:`TestSimDamageIsAMiss`
    runs the same battery on a ``sim`` entry."""

    NAMESPACE = "mix"

    @pytest.fixture()
    def ns(self) -> Namespace:
        return NAMESPACES[self.NAMESPACE]

    @pytest.fixture()
    def entry(self, tmp_path, ns):
        key, value = ns.key(), ns.compute()
        ns.store(key, value, tmp_path)
        path = entry_path(tmp_path, ns.name, key)
        return key, value, path, path.read_bytes()

    def test_truncation_anywhere_is_a_miss(self, tmp_path, ns, entry):
        key, _, path, blob = entry
        data_start, sections = entry_layout(blob, ns.magic)
        cuts = {0, 1, 8, 12, data_start // 2, data_start, len(blob) - 40, len(blob) - 1}
        for _name, typecode, offset, count in sections:
            size = count * struct.calcsize(typecode)
            cuts.add(data_start + offset)  # section boundary
            cuts.add(data_start + offset + size // 2)  # mid-column
        assert len(cuts) > len(sections)
        for cut in sorted(cuts):
            path.write_bytes(blob[:cut])
            assert ns.load(key, tmp_path) is None, f"cut at {cut}"
        path.write_bytes(blob + b"\0")  # and growth
        assert ns.load(key, tmp_path) is None

    def test_any_single_flipped_bit_is_a_miss(self, tmp_path, ns, entry):
        """Every byte of the file — prefix, header, each column, trailer
        — with one bit flipped."""
        key, value, path, blob = entry
        for position in range(len(blob)):
            damaged = bytearray(blob)
            damaged[position] ^= 1 << (position % 8)
            path.write_bytes(damaged)
            assert ns.load(key, tmp_path) is None, f"flip in byte {position}"
        path.write_bytes(blob)
        assert ns.load(key, tmp_path) == value

    def test_wrong_magic_is_a_miss(self, tmp_path, ns, entry):
        """One bit off, or the other namespace's: resealed, so only the
        magic is wrong."""
        key, _, path, blob = entry
        path.write_bytes(resealed(blob, ns.magic))
        assert ns.load(key, tmp_path) is not None  # the helper reseals faithfully
        data_start, _ = entry_layout(blob, ns.magic)
        header, columns = json.loads(blob[12:data_start]), blob[data_start:-40]
        near = ns.magic[:-1] + bytes([ns.magic[-1] ^ 1])
        for magic in {near} | {other.magic for other in NAMESPACES.values()} - {ns.magic}:
            path.write_bytes(sealed_entry(header, columns, magic))
            assert ns.load(key, tmp_path) is None, magic

    def test_section_outside_the_entry_is_a_miss(self, tmp_path, ns, entry):
        """Past the end, before the start, or ending before it starts."""
        key, _, path, blob = entry
        for field, change in ((3, 10**6), (2, -1), (3, -1)):  # count / offset
            _, sections = entry_layout(blob, ns.magic)
            sections[0][field] += change
            path.write_bytes(resealed(blob, ns.magic, sections=sections))
            assert ns.load(key, tmp_path) is None, (field, change)

    def test_ragged_columns_are_a_miss(self, tmp_path, ns, entry):
        key, _, path, blob = entry
        _, sections = entry_layout(blob, ns.magic)
        by_name = {section[0]: section for section in sections}
        by_name[ns.short_section][3] -= 1
        path.write_bytes(resealed(blob, ns.magic, sections=sections))
        assert ns.load(key, tmp_path) is None

    def test_header_that_is_not_an_object_is_a_miss(self, tmp_path, ns, entry):
        """Intact by magic, length and checksum, but the header is a JSON
        array: a miss, which the next run through the handle repairs."""
        key, value, path, blob = entry
        data_start, _ = entry_layout(blob, ns.magic)
        path.write_bytes(sealed_entry([], blob[data_start:-40], ns.magic))
        assert ns.load(key, tmp_path) is None
        cache = ns.handle(tmp_path)
        assert ns.through(cache) == value
        assert (cache.hits, cache.misses) == (0, 1)
        assert path.read_bytes() == blob

    def test_zero_length_file_is_a_miss(self, tmp_path, ns, entry):
        key, _, path, _ = entry
        path.write_bytes(b"")
        assert ns.load(key, tmp_path) is None

    def test_miss_is_repaired_by_the_next_run(self, tmp_path, ns, entry):
        key, value, path, blob = entry
        path.write_bytes(blob[: len(blob) // 2])
        cache = ns.handle(tmp_path)
        assert ns.through(cache) == value
        assert (cache.hits, cache.misses) == (0, 1)
        assert path.read_bytes() == blob  # a clean overwrite, same bytes
        assert ns.through(cache) == value
        assert cache.hits == 1

    def test_pre_binary_json_entry_is_ignored(self, tmp_path, ns):
        """An entry the namespace's JSON codec left behind, at the key the
        old path would have used, is neither read nor tripped over, and
        ``clear`` removes it without counting it."""
        key = ns.key()
        stale = entry_path(tmp_path, ns.name, key).with_suffix(".json")
        stale.parent.mkdir(parents=True)
        stale.write_text(ns.stale(ns.compute()), encoding="utf-8")
        assert ns.load(key, tmp_path) is None
        cache = ns.handle(tmp_path)
        cold = ns.through(cache)
        warm = ns.through(cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert warm == cold
        assert stale.exists()
        assert ns.clear(tmp_path) == 1  # counts sealed entries only
        assert not stale.exists()

    def test_concurrent_stores_of_one_key(self, tmp_path, ns):
        """Several processes publish the same key while this one reads:
        every read is a miss or the right value, and nothing is left
        half-written."""
        key, value = ns.key(), ns.compute()
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(
                target=_store_repeatedly, args=(ns.name, str(tmp_path), key, 40)
            )
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        try:
            reads = 0
            while any(worker.is_alive() for worker in workers) or reads < 50:
                loaded = ns.load(key, tmp_path)
                assert loaded is None or loaded == value
                reads += 1
        finally:
            for worker in workers:
                worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0, 0, 0]
        assert ns.load(key, tmp_path) == value
        leftovers = [p.name for p in entry_path(tmp_path, ns.name, key).parent.iterdir()]
        assert leftovers == [f"{key}.{ns.name}"]


class TestSimDamageIsAMiss(TestDamageIsAMiss):
    NAMESPACE = "sim"


def _store_repeatedly(namespace: str, root: str, key: str, times: int) -> None:
    ns = NAMESPACES[namespace]
    value = ns.compute()
    for _ in range(times):
        ns.store(key, value, root)


#: a header field absent from the entry
MISSING = object()


class TestSimEntryShape:
    """A sim entry intact by magic, length and checksum but of the wrong
    shape — what a codec edit without a ``SCHEMA_VERSION`` bump would
    leave — is a miss: the checksum cannot catch what was sealed wrong."""

    @pytest.fixture()
    def entry(self, tmp_path):
        ns = NAMESPACES["sim"]
        key = ns.key()
        ns.store(key, ns.compute(), tmp_path)
        path = entry_path(tmp_path, "sim", key)
        blob = path.read_bytes()
        path.write_bytes(resealed(blob, ns.magic))
        assert load_result(key, tmp_path) is not None  # resealed faithfully
        data_start, _ = entry_layout(blob, ns.magic)
        header = json.loads(blob[12:data_start])
        return key, path, header, blob[data_start:-40]

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("name", 7, id="name-int"),
            pytest.param("name", None, id="name-null"),
            pytest.param("name", MISSING, id="name-missing"),
            pytest.param("machine", ["Intel"], id="machine-list"),
            pytest.param("machine", MISSING, id="machine-missing"),
            pytest.param("extra", [], id="extra-list"),
            pytest.param("extra", None, id="extra-null"),
            pytest.param("extra", {"dram_transfers": "233"}, id="extra-str-value"),
            pytest.param("extra", {"dram_transfers": True}, id="extra-bool-value"),
            pytest.param("extra", {"dram_transfers": None}, id="extra-null-value"),
            pytest.param("extra", {"dram_transfers": [233]}, id="extra-list-value"),
            pytest.param("extra", MISSING, id="extra-missing"),
        ],
    )
    def test_wrong_typed_header_field_is_a_miss(self, tmp_path, entry, field, value):
        key, path, header, columns = entry
        if value is MISSING:
            del header[field]
        else:
            header[field] = value
        path.write_bytes(sealed_entry(header, columns, b"REPROSIM"))
        assert load_result(key, tmp_path) is None

    @pytest.mark.parametrize("typecode", ["d", "Q", "i", "b"])
    def test_counter_column_of_another_type_is_a_miss(self, tmp_path, entry, typecode):
        key, path, header, columns = entry
        (section,) = header["sections"]
        section[1] = typecode  # the same count, read as another type
        path.write_bytes(sealed_entry(header, columns, b"REPROSIM"))
        assert load_result(key, tmp_path) is None

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_counter_column_of_another_length_is_a_miss(self, tmp_path, entry, rows):
        key, path, header, columns = entry
        (section,) = header["sections"]
        section[3] += rows
        padded = columns + bytes(8 * max(rows, 0))  # every row inside the entry
        path.write_bytes(sealed_entry(header, padded, b"REPROSIM"))
        assert load_result(key, tmp_path) is None

    def test_missing_counter_column_is_a_miss(self, tmp_path, entry):
        key, path, header, columns = entry
        header["sections"][0][0] = "counts"
        path.write_bytes(sealed_entry(header, columns, b"REPROSIM"))
        assert load_result(key, tmp_path) is None


# -- run_mix's trace entries ----------------------------------------------------


def replay_trace() -> WorkloadTrace:
    """Four jobs (one a nine-stage Hive chain) plus a repeat of the first:
    five trace jobs, four distinct ``(workload, scale)`` shadows."""
    base = generate_trace(seed=3, num_jobs=4)
    repeat = dataclasses.replace(
        base.jobs[0], index=4, arrival_s=base.jobs[-1].arrival_s + 0.25
    )
    return dataclasses.replace(base, jobs=(*base.jobs, repeat))


def replay(root):
    cache = MixCache(root, enabled=True)
    return run_mix(replay_trace(), FifoScheduler(), mix_cache=cache), cache


@pytest.fixture()
def shadow_runs(monkeypatch):
    """Every ``workload(name).run(scale=...)`` call, as ``(name, scale)``."""
    import repro.workloads.base as base

    calls = []
    real = base.workload

    def counting(name):
        inner = real(name)

        def run(**kwargs):
            calls.append((name, kwargs["scale"]))
            return inner.run(**kwargs)

        return SimpleNamespace(run=run)

    monkeypatch.setattr(base, "workload", counting)
    return calls


class TestTraceEntry:
    """``run_mix`` through ``MixCache``: a warm replay runs no workload and
    equals the cold one; a damaged or mismatched entry is a miss that
    re-runs and rewrites it."""

    DISTINCT = sorted({(j.workload, j.scale) for j in replay_trace().jobs})

    @pytest.fixture()
    def cold(self, tmp_path):
        cold, cache = replay(tmp_path)
        assert (cache.hits, cache.misses) == (0, 1)
        (path,) = (tmp_path / "mix").rglob("*.mix")
        return cold, path, path.read_bytes()

    def test_warm_replay_runs_no_workload(self, tmp_path, cold, shadow_runs):
        cold, _, _ = cold
        assert len(self.DISTINCT) < len(cold.trace.jobs)
        warm, cache = replay(tmp_path)
        assert (cache.hits, cache.misses) == (1, 0)
        assert shadow_runs == []
        assert warm.to_dict() == cold.to_dict()
        assert mix_outcome_payload(warm.outcome) == mix_outcome_payload(cold.outcome)
        assert shadow_runs == []  # neither comparison form reads outputs
        assert max(len(r.job_ids) for r in warm.reports) > 1  # a chain came back

    def test_outputs_are_computed_on_first_read(self, tmp_path, cold, shadow_runs):
        cold, _, _ = cold
        warm, _ = replay(tmp_path)
        assert "outputs" not in vars(warm)
        assert "outputs" not in repr(warm)
        assert warm.outputs == cold.outputs
        assert sorted(shadow_runs) == self.DISTINCT  # each distinct shadow once
        assert warm.outputs is warm.outputs
        assert sorted(shadow_runs) == self.DISTINCT

    def test_eq_repr_and_deepcopy(self, tmp_path, cold):
        cold, _, _ = cold
        warm, _ = replay(tmp_path)
        twin = copy.deepcopy(warm)
        assert "outputs" not in vars(twin)
        assert twin == cold
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_size_class_relabels_a_hit(self, tmp_path, cold):
        cold, _, _ = cold
        first, *rest = replay_trace().jobs
        relabelled = dataclasses.replace(
            replay_trace(), jobs=(dataclasses.replace(first, size_class="huge"), *rest)
        )
        cache = MixCache(tmp_path, enabled=True)
        warm = run_mix(relabelled, FifoScheduler(), mix_cache=cache)
        assert cache.hits == 1
        assert warm.reports[0].to_dict()["size_class"] == "huge"
        assert warm.reports[0].slowdown == cold.reports[0].slowdown

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped", "short ideals"])
    def test_damage_is_a_miss_that_reruns_and_rewrites(
        self, tmp_path, cold, shadow_runs, damage
    ):
        cold, path, blob = cold
        if damage == "truncated":
            path.write_bytes(blob[: len(blob) // 2])
        elif damage == "bit-flipped":
            flipped = bytearray(blob)
            flipped[len(blob) // 2] ^= 0x10
            path.write_bytes(flipped)
        else:
            # An intact entry with one trace job fewer, where this trace's
            # entry belongs: its ideal column is one row short.
            short = dataclasses.replace(replay_trace(), jobs=replay_trace().jobs[:-1])
            run_mix(short, FifoScheduler(), mix_cache=MixCache(tmp_path / "short", True))
            (other,) = (tmp_path / "short" / "mix").rglob("*.mix")
            path.write_bytes(other.read_bytes())
            shadow_runs.clear()
        assert load_mix(path.stem, tmp_path, trace_jobs=len(cold.trace.jobs)) is None
        warm, cache = replay(tmp_path)
        assert (cache.hits, cache.misses) == (0, 1)
        assert sorted(shadow_runs) == self.DISTINCT
        assert warm.to_dict() == cold.to_dict()
        assert path.read_bytes() == blob

    def test_concurrent_writers_of_one_trace_key(self, tmp_path, cold):
        """Three processes replay the trace into one empty root and then
        keep republishing its entry while this one replays it: every
        replay equals the cold one and nothing is left half-written."""
        cold, path, blob = cold
        root = tmp_path / "shared"
        entry = root / path.relative_to(tmp_path)
        context = multiprocessing.get_context("spawn")
        workers = [
            context.Process(target=_replay_and_store, args=(str(root), path.stem, 20))
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        try:
            replays = 0
            while any(worker.is_alive() for worker in workers) or replays < 20:
                warm, _ = replay(root)
                assert warm.to_dict() == cold.to_dict()
                replays += 1
        finally:
            for worker in workers:
                worker.join(timeout=120)
        assert [worker.exitcode for worker in workers] == [0, 0, 0]
        assert entry.read_bytes() == blob
        assert [p.name for p in entry.parent.iterdir()] == [entry.name]
        _, cache = replay(root)
        assert cache.hits == 1


def _replay_and_store(root: str, key: str, times: int) -> None:
    mix, _ = replay(root)
    ideals = [report.ideal_s for report in mix.reports]
    stages = [len(report.job_ids) for report in mix.reports]
    for _ in range(times):
        store_mix(key, mix.outcome, root, ideals=ideals, stages=stages)


# -- what the key digests -------------------------------------------------------


def _module_file(name: str) -> Path | None:
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:
        return None
    if spec is None or spec.origin is None:
        return None
    return Path(spec.origin)


def _repro_imports(name: str) -> set[str]:
    """Every ``repro.*`` module *name* imports, at any nesting depth."""
    found = set()
    for node in ast.walk(ast.parse(_module_file(name).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            candidates = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from pkg import sub`` may name a submodule or an attribute
            candidates = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        for candidate in candidates:
            if candidate.startswith("repro.") and _module_file(candidate) is not None:
                found.add(candidate)
    return found


def _reachable(roots) -> set[str]:
    """*roots* and every ``repro.*`` module they transitively import."""
    seen, frontier = set(), list(roots)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(_repro_imports(name))
    # a package's __init__ re-exports; the modules it names are
    # reached (or not) through their own importers
    return {name for name in seen if _module_file(name).name != "__init__.py"}


class TestDigestCoverage:
    #: what ``MixCache.run`` can execute on a miss: both dispatch engines
    ROOTS = ("repro.cluster.scheduler", "repro.perf.clusterpath")

    def test_every_module_a_dispatch_can_execute_is_digested(self):
        reachable = _reachable(self.ROOTS)
        assert "repro.cluster.eventbus" in reachable  # the walk follows edges
        assert "repro.perf.procfs" in reachable  # ... across packages
        missing = reachable - set(simcache._CLUSTER_VERSIONED_MODULES)
        assert not missing, (
            f"{sorted(missing)} can change a MixOutcome but edits to them "
            "would not invalidate the mix cache: add them to "
            "simcache._CLUSTER_VERSIONED_MODULES"
        )

    def test_every_module_a_shadow_can_execute_is_digested(self):
        """A trace key stands in for the ``JobWork``s the registered
        workloads compute, so everything they import is digested."""
        from repro.workloads.base import WORKLOAD_NAMES, workload

        assert len(WORKLOAD_NAMES) == 11  # the paper's DA workloads
        reachable = _reachable(
            {type(workload(name)).__module__ for name in WORKLOAD_NAMES}
        )
        assert "repro.hive.planner" in reachable  # through the hive package
        assert "repro.mapreduce.io" in reachable  # through the engine
        missing = reachable - set(simcache._CLUSTER_VERSIONED_MODULES) - set(
            simcache._EXEC_VERSIONED_MODULES
        )
        assert not missing, (
            f"{sorted(missing)} can change a shadow run's JobWork but edits "
            "to them would not invalidate run_mix's trace entries: add them "
            "to simcache._EXEC_VERSIONED_MODULES"
        )

    #: imported by the core model, but it only reads a finished result:
    #: the counter table's formulas and relations.  Stdlib-only, so it
    #: cannot reach the engines either.
    READ_ONLY = {"repro.uarch.counters"}

    def test_every_module_a_simulation_can_execute_is_digested(self):
        """A ``SimCache`` key stands in for a run of either μop engine."""
        reachable = _reachable(("repro.perf.fastpath", "repro.uarch.pipeline"))
        assert "repro.uarch.trace" in reachable  # the batch generator
        assert "repro.uarch.caches" in reachable  # through the core model
        assert all(_repro_imports(name) == set() for name in self.READ_ONLY)
        missing = reachable - set(simcache._VERSIONED_MODULES) - self.READ_ONLY
        assert not missing, (
            f"{sorted(missing)} can change a SimulationResult but edits to "
            "them would not invalidate the sim cache: add them to "
            "simcache._VERSIONED_MODULES"
        )

    def test_digested_modules_exist(self):
        for name in (
            simcache._VERSIONED_MODULES
            + simcache._CLUSTER_VERSIONED_MODULES
            + simcache._EXEC_VERSIONED_MODULES
        ):
            assert _module_file(name) is not None, name

    def test_the_codec_is_versioned_by_its_schema_constant(self):
        # simcache itself is not digested (every μop-cache edit would
        # orphan every mix entry); MIX_SCHEMA_VERSION covers its codec —
        # see TestMixCacheKey.test_key_folds_in_mix_schema_version.
        assert "repro.core.simcache" not in simcache._CLUSTER_VERSIONED_MODULES
        assert isinstance(simcache.MIX_SCHEMA_VERSION, int)
