"""A fresh mix outcome is built like a cached one.

``MultiJobCluster.run`` records task intervals and events as plain rows
and returns an outcome whose ``task_intervals`` and ``events`` are
:class:`~repro.cluster.scheduler.RowDecoder`s, built into objects on first
read; the entry codec writes the rows without building them.  These
tests pin that the rows and the objects are the same outcome (same entry
bytes either way), that a decoder is a self-contained value, that nothing
of the rows outlives the first read, that the recorded event log reads
as the bus-delivered one did, and that a deferred field whose decoder
raises keeps raising its own error.
"""

from __future__ import annotations

import copy
import gc
import sys

import pytest

from repro.cluster.eventbus import EVENT_SUBMIT, Event, EventBus
from repro.cluster.scheduler import (
    FifoScheduler,
    MixOutcome,
    MultiJobCluster,
    RowDecoder,
    TaskInterval,
)
from repro.core.simcache import MixCache, _encode_mix
from repro.perf.clusterpath import FastMultiJobCluster
from tests.cluster.test_clusterpath import build_mix
from tests.cluster.test_nogc import collector_on  # noqa: F401 - a fixture
from tests.cluster.test_scheduler import small_cluster

ENGINES = [MultiJobCluster, FastMultiJobCluster]

#: (build_mix case, what the mix must exercise): fair preempts (so
#: _replace_interval tombstones rows) and speculates on a limping node,
#: capacity chains stages on racks, faults re-executes a map lost in a
#: crash, and the lean FIFO mix records no event at all
CASES = {
    "fair": ((70, "fair", 1, "slow", "full"), "preempts"),
    "capacity": ((17, "capacity", 3, None, "full"), "chains"),
    "faults": ((6, "fifo", 1, "faults", "full"), "re-executes"),
    "lean-fifo": ((7, "fifo", 1, None, "lean"), "records no event"),
}


def fresh(case: str, cls) -> MixOutcome:
    _cluster, multi = build_mix(cls, *CASES[case][0])
    return multi.run()


def chained(case: str, cls) -> bool:
    _cluster, multi = build_mix(cls, *CASES[case][0])
    return any(job.depends_on is not None for job in multi.jobs)


def pending_decoders(outcome: MixOutcome) -> list[str]:
    return [name for name in vars(outcome) if name.startswith("_deferred_")]


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
class TestFreshOutcome:
    def test_the_case_exercises_its_regime(self, case, cls):
        outcome = fresh(case, cls)
        accounting = outcome.fault_accounting
        regime = CASES[case][1]
        if regime == "preempts":
            assert outcome.preemptions > 0
            assert accounting.speculative_attempts > 0
        elif regime == "re-executes":
            assert accounting.maps_reexecuted > 0
        elif regime == "records no event":
            assert outcome.rows("events") == []
        else:
            assert chained(case, cls)

    def test_entry_bytes_from_rows_equal_bytes_from_objects(self, case, cls):
        outcome = fresh(case, cls)
        assert pending_decoders(outcome) == ["_deferred_task_intervals", "_deferred_events"]
        from_rows = _encode_mix(outcome)
        outcome.task_intervals, outcome.events  # decode both
        assert pending_decoders(outcome) == []
        assert _encode_mix(outcome) == from_rows

    def test_a_copy_taken_before_the_first_read_decodes_on_its_own(self, case, cls):
        outcome = fresh(case, cls)
        twin = copy.copy(outcome)
        assert outcome.task_intervals and outcome.events is not None
        assert pending_decoders(twin) == ["_deferred_task_intervals", "_deferred_events"]
        assert twin == outcome
        assert twin.task_intervals is not outcome.task_intervals

    def test_after_both_reads_no_decoder_and_no_row_list_is_held(self, case, cls):
        outcome = fresh(case, cls)
        rows = outcome.rows("task_intervals")
        assert all(type(row) is tuple for row in rows)
        intervals = outcome.task_intervals
        events = outcome.events
        assert pending_decoders(outcome) == []
        assert not any(isinstance(value, RowDecoder) for value in vars(outcome).values())
        # nothing but this frame refers to the rows any more
        assert sys.getrefcount(rows) == 2
        assert all(type(iv) is TaskInterval for iv in intervals)
        assert all(type(event) is Event for event in events)
        assert outcome.rows("task_intervals") == rows


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("case", ["fair", "capacity", "faults"])
def test_events_number_themselves_with_one_payload_each(case, cls):
    events = fresh(case, cls).events
    assert type(events) is tuple and events
    assert [event.seq for event in events] == list(range(len(events)))
    assert {event.priority for event in events} == {0}
    assert len({id(event.payload) for event in events}) == len(events)


def test_interval_and_event_rows_follow_the_field_order():
    outcome = fresh("fair", FastMultiJobCluster)
    interval_rows = outcome.rows("task_intervals")
    event_rows = outcome.rows("events")
    assert [TaskInterval(*row) for row in interval_rows] == outcome.task_intervals
    assert [Event(*row) for row in event_rows] == list(outcome.events)
    # once decoded, the rows are rebuilt from the objects, equal
    assert outcome.rows("task_intervals") == interval_rows
    assert outcome.rows("events") == event_rows


def test_interval_and_event_objects_carry_no_dict():
    interval = TaskInterval("map", "j", "slave1", 0.0, 1.0)
    event = Event(0, 0, EVENT_SUBMIT, 0.0, {})
    assert not hasattr(interval, "__dict__") and not hasattr(event, "__dict__")
    assert interval == TaskInterval("map", "j", "slave1", 0.0, 1.0)
    assert hash(interval) == hash(TaskInterval("map", "j", "slave1", 0.0, 1.0))


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("kind", ["miss", "hit"])
def test_the_first_read_runs_paused_and_builds_no_cycle(kind, cls, tmp_path, collector_on):
    """The objects are built where run() and load_mix built them before:
    with the collector paused, which is free only if they form no cycle."""

    def outcome(root):
        if kind == "hit":
            MixCache(root, enabled=True).run(build_mix(cls, *CASES["fair"][0])[1])
        cache = MixCache(root, enabled=True)
        outcome = cache.run(build_mix(cls, *CASES["fair"][0])[1])
        assert cache.hits == (kind == "hit")
        return outcome

    probed, plain = outcome(tmp_path / "probed"), outcome(tmp_path / "plain")
    seen = []
    for name in ("task_intervals", "events"):
        decode = probed.__dict__["_deferred_" + name]
        probed.__dict__["_deferred_" + name] = (
            lambda decode=decode: (seen.append(gc.isenabled()), decode())[1]
        )
    probed.task_intervals, probed.events  # read both
    assert seen == [False, False]
    assert gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        plain.task_intervals, plain.events  # read both
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert plain == probed


# -- the recorder refuses what the bus refuses ----------------------------------


def recording_mix() -> MultiJobCluster:
    multi = MultiJobCluster(small_cluster(), FifoScheduler())
    multi._events = []  # what run() starts a full-observability log with
    return multi


@pytest.mark.parametrize(
    "event_type,payload,error",
    [
        ("rebalance", {}, ValueError),
        (EVENT_SUBMIT, {"nodes": ["slave1"]}, TypeError),
        (EVENT_SUBMIT, {"when": {"t": 1}}, TypeError),
    ],
)
def test_publish_refuses_what_the_bus_refuses(event_type, payload, error):
    with pytest.raises(error) as from_bus:
        EventBus().publish(event_type, time_s=0.0, **payload)
    multi = recording_mix()
    with pytest.raises(error) as from_dispatch:
        multi._publish(event_type, time_s=0.0, **payload)
    assert str(from_dispatch.value) == str(from_bus.value)
    assert multi._events == []


def test_publish_records_a_row_per_event():
    multi = recording_mix()
    multi._publish(EVENT_SUBMIT, time_s=1.5, job_id="a", after=None)
    multi._publish(EVENT_SUBMIT, time_s=2.0, job_id="b", after="a")
    assert multi._events == [
        (0, 0, EVENT_SUBMIT, 1.5, {"job_id": "a", "after": None}),
        (0, 1, EVENT_SUBMIT, 2.0, {"job_id": "b", "after": "a"}),
    ]


# -- a raising decoder keeps its error ------------------------------------------


def raising_outcome() -> MixOutcome:
    def broken():
        raise ValueError("damaged intervals")

    return MixOutcome.deferred(
        scheduler="fifo",
        reports=[],
        end_s=0.0,
        preemptions=0,
        preemption_wasted_s=0.0,
        task_intervals=broken,
        events=tuple,
    )


def test_a_raising_decoder_raises_its_own_error_on_every_read():
    outcome = raising_outcome()
    for _ in range(2):
        with pytest.raises(ValueError, match="damaged intervals"):
            outcome.task_intervals
    with pytest.raises(ValueError, match="damaged intervals"):
        hasattr(outcome, "task_intervals")
    with pytest.raises(ValueError, match="damaged intervals"):
        outcome == raising_outcome()  # == reads every field
    assert pending_decoders(outcome) == ["_deferred_task_intervals", "_deferred_events"]
    assert outcome.events == ()
