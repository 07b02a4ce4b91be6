"""Tests for the deterministic event bus and the bus-driven dispatcher.

Two load-bearing contracts:

* **The dispatch log** — under ``observability="full"``
  ``MultiJobCluster.run`` records every control-plane transition, in the
  order a bus delivers it, and the log rides on the outcome; under
  ``"lean"`` it records nothing.  That the log never moves a timeline, /proc counter or the
  clock is pinned by ``test_dispatch_golden.py``.
* **Deterministic replay** — the same mix produces the same delivered
  event log, and :func:`replay` re-dispatches a recorded log so a fresh
  observer reconstructs exactly the per-job history the live run saw.
"""

import pytest

from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
from repro.cluster.eventbus import (
    EVENT_ATTEMPT_FINISHED,
    EVENT_DISPATCH,
    EVENT_JOB_FINISHED,
    EVENT_SUBMIT,
    EVENT_TYPES,
    Event,
    EventBus,
    replay,
)
from repro.cluster.scheduler import FifoScheduler, MultiJobCluster


def small_cluster():
    return make_cluster(2, map_slots=4, reduce_slots=2, block_size=64 * 1024)


def synthetic_job(name, n_maps=2, cpu=0.05, n_reduces=1):
    return JobWork(
        name,
        maps=[MapWork(1024, cpu, 1024) for _ in range(n_maps)],
        reduces=[ReduceWork(1024, cpu, 1024) for _ in range(n_reduces)],
    )


# -- the bus itself ------------------------------------------------------------


class TestEventBus:
    def test_delivery_is_fifo_within_a_priority(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EVENT_SUBMIT, lambda e: seen.append(e.payload["job"]))
        for name in ("a", "b", "c"):
            bus.publish(EVENT_SUBMIT, job=name)
        bus.pump()
        assert seen == ["a", "b", "c"]

    def test_lower_priority_drains_first(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EVENT_SUBMIT, lambda e: seen.append(("submit", e.seq)))
        bus.subscribe(EVENT_DISPATCH, lambda e: seen.append(("dispatch", e.seq)))
        bus.publish(EVENT_DISPATCH, priority=1)
        bus.publish(EVENT_SUBMIT, priority=0)
        bus.pump()
        assert [kind for kind, _ in seen] == ["submit", "dispatch"]

    def test_handlers_run_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(EVENT_SUBMIT, lambda e: seen.append("first"))
        bus.subscribe(EVENT_SUBMIT, lambda e: seen.append("second"))
        bus.publish(EVENT_SUBMIT)
        bus.pump()
        assert seen == ["first", "second"]

    def test_unknown_event_type_rejected_everywhere(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.publish("rebalance")
        with pytest.raises(ValueError):
            bus.subscribe("rebalance", lambda e: None)

    def test_non_scalar_payload_rejected(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.publish(EVENT_SUBMIT, nodes=["slave1"])
        with pytest.raises(TypeError):
            bus.subscribe(EVENT_SUBMIT, "not callable")

    def test_events_published_by_handlers_are_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(
            EVENT_SUBMIT,
            lambda e: bus.publish(EVENT_JOB_FINISHED, job=e.payload["job"]),
        )
        bus.subscribe(EVENT_JOB_FINISHED, lambda e: seen.append(e.payload["job"]))
        bus.publish(EVENT_SUBMIT, job="j0")
        delivered = bus.pump()
        assert seen == ["j0"]
        assert delivered == 2

    def test_pump_runaway_guard(self):
        bus = EventBus()
        bus.subscribe(EVENT_DISPATCH, lambda e: bus.publish(EVENT_DISPATCH))
        bus.publish(EVENT_DISPATCH)
        with pytest.raises(RuntimeError):
            bus.pump(max_events=50)

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        handler = lambda e: seen.append(e.type)  # noqa: E731
        bus.subscribe(EVENT_SUBMIT, handler)
        bus.unsubscribe(EVENT_SUBMIT, handler)
        bus.publish(EVENT_SUBMIT)
        bus.pump()
        assert seen == []
        assert bus.subscribers(EVENT_SUBMIT) == ()

    def test_log_records_delivered_events_only(self):
        bus = EventBus()
        bus.publish(EVENT_SUBMIT, job="a")
        bus.publish(EVENT_SUBMIT, job="b")
        assert bus.log == []
        assert len(bus) == 2
        bus.process_one()
        assert [e.payload["job"] for e in bus.log] == ["a"]

    def test_describe_excludes_seq(self):
        a = Event(priority=0, seq=0, type=EVENT_SUBMIT, time_s=0.0, payload={"j": 1})
        b = Event(priority=0, seq=9, type=EVENT_SUBMIT, time_s=2.0, payload={"j": 1})
        assert a.describe() == b.describe()

    def test_taxonomy_is_closed_and_unique(self):
        assert len(set(EVENT_TYPES)) == len(EVENT_TYPES)

    def test_replay_dispatches_in_log_order(self):
        bus = EventBus()
        for name in ("a", "b"):
            bus.publish(EVENT_SUBMIT, job=name)
        bus.publish(EVENT_JOB_FINISHED, job="a")
        bus.pump()
        seen = []
        replayed = replay(
            bus.log,
            {
                EVENT_SUBMIT: lambda e: seen.append(("submit", e.payload["job"])),
                EVENT_JOB_FINISHED: lambda e: seen.append(("done", e.payload["job"])),
            },
        )
        assert seen == [("submit", "a"), ("submit", "b"), ("done", "a")]
        assert replayed == bus.log


# -- deterministic event logs --------------------------------------------------


class TestDeterministicLog:
    def build(self, multi):
        first = multi.submit(synthetic_job("a", n_maps=3))
        multi.submit(synthetic_job("b"), after=first)
        multi.submit(synthetic_job("c"), arrival_s=0.2)

    def run_once(self):
        cluster = small_cluster()
        multi = MultiJobCluster(cluster, FifoScheduler())
        self.build(multi)
        return multi.run()

    def test_full_run_logs_every_transition(self):
        events = self.run_once().events
        # delivered as published: nothing queued, nothing reordered
        assert [e.seq for e in events] == list(range(len(events)))
        types = [e.type for e in events]
        assert types[0] == EVENT_SUBMIT
        assert EVENT_DISPATCH in types
        assert EVENT_ATTEMPT_FINISHED in types
        assert EVENT_JOB_FINISHED in types

    def test_lean_run_builds_no_bus(self):
        multi = MultiJobCluster(small_cluster(), FifoScheduler(), observability="lean")
        self.build(multi)
        outcome = multi.run()
        # the unread outcome holds the rows dispatch recorded: none
        assert outcome.rows("events") == []
        assert outcome.events == ()

    def test_same_mix_same_history(self):
        one = self.run_once()
        two = self.run_once()
        assert [e.describe() for e in one.events] == [
            e.describe() for e in two.events
        ]

    def test_replayed_log_reconstructs_per_job_history(self):
        outcome = self.run_once()
        live = {}
        for event in outcome.events:
            job = event.payload.get("job_id")
            if job is not None:
                live.setdefault(job, []).append(event.type)

        rebuilt = {}

        def observe(event):
            job = event.payload.get("job_id")
            if job is not None:
                rebuilt.setdefault(job, []).append(event.type)

        replay(list(outcome.events), {t: observe for t in EVENT_TYPES})
        assert rebuilt == live
        # Every job's history starts with its submission and ends with
        # its commit.
        for types in rebuilt.values():
            assert types[0] == EVENT_SUBMIT
            assert types[-1] == EVENT_JOB_FINISHED
