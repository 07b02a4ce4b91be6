"""A seeded, deterministic event bus for cluster control flow.

iDDS orchestrates multi-stage scientific workflows as transforms wired
through an event bus: every control-plane transition (submit, ready,
finished, failed, heal) is a typed event, handlers subscribe by type, and
the delivered sequence *is* the execution history.  This module is that
architecture scaled to the simulator:

* :class:`Event` — an immutable typed record ``(type, seq, priority,
  time_s, payload)``; the payload is a plain dict of JSON-ish scalars so
  an event log can be serialised, diffed and replayed.
* :class:`EventBus` — a subscriber registry plus a FIFO-per-priority
  queue.  Delivery order is a pure function of ``(priority, seq)``: lower
  priorities drain first, ties break by publication order.  No wall
  clock, no randomness — two runs that publish the same events observe
  the same delivery sequence, bit for bit.
* the **event log** — every *delivered* event is appended to
  :attr:`EventBus.log`.  :func:`replay` re-dispatches a recorded log into
  fresh handlers, which is both the debugging story ("what did the
  control plane decide, in order?") and the determinism contract the
  tests pin (same mix → same log; replayed log → same observations).

The DAG layer of :mod:`repro.cluster.workflow` speaks this bus, which is
what lets schedulers, fault injection and workflow recovery compose
without each feature re-threading the other's control flow.  The
dispatch loop of :class:`~repro.cluster.scheduler.MultiJobCluster` logs
the same typed events, refused by the same :func:`check_event`, without
a bus: nothing subscribes to them, so it records each one as a row in
the order a bus would deliver it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = [
    "EVENT_SUBMIT",
    "EVENT_STAGE_READY",
    "EVENT_DISPATCH",
    "EVENT_ATTEMPT_FINISHED",
    "EVENT_JOB_FINISHED",
    "EVENT_JOB_FAILED",
    "EVENT_JOB_CANCELLED",
    "EVENT_STAGE_RETRY",
    "EVENT_STAGE_FAILED",
    "EVENT_HEAL",
    "EVENT_CHECKPOINT",
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "check_event",
    "replay",
]

# -- event taxonomy ------------------------------------------------------------
#
# The closed set of control-plane transitions (see docs/workflow-model.md
# for the emitter/consumer table).  A closed taxonomy is deliberate: an
# unknown event type is a bug in the publisher, not a new feature.

#: a job entered the dispatcher's bookkeeping
EVENT_SUBMIT = "submit"
#: a job's (or stage's) dependencies are satisfied; it may be dispatched
EVENT_STAGE_READY = "stage-ready"
#: run one scheduling round of the dispatch loop
EVENT_DISPATCH = "dispatch"
#: one task attempt was charged onto the simulation (map or reduce)
EVENT_ATTEMPT_FINISHED = "attempt-finished"
#: a job committed its last task; dependents may become ready
EVENT_JOB_FINISHED = "job-finished"
#: a job aborted permanently (attempts exhausted / no live nodes)
EVENT_JOB_FAILED = "job-failed"
#: a queued job was cancelled because an upstream dependency failed
EVENT_JOB_CANCELLED = "job-cancelled"
#: a failed stage is being re-executed under its retry policy
EVENT_STAGE_RETRY = "stage-retry"
#: a stage exhausted its retries; its downstream cone is cancelled
EVENT_STAGE_FAILED = "stage-failed"
#: lost stage output detected; the minimal upstream subgraph re-executes
EVENT_HEAL = "heal"
#: workflow progress was checkpointed (journal + cluster snapshot)
EVENT_CHECKPOINT = "checkpoint"

EVENT_TYPES = (
    EVENT_SUBMIT,
    EVENT_STAGE_READY,
    EVENT_DISPATCH,
    EVENT_ATTEMPT_FINISHED,
    EVENT_JOB_FINISHED,
    EVENT_JOB_FAILED,
    EVENT_JOB_CANCELLED,
    EVENT_STAGE_RETRY,
    EVENT_STAGE_FAILED,
    EVENT_HEAL,
    EVENT_CHECKPOINT,
)

_SCALARS = (str, int, float, bool, type(None))


def check_event(event_type: str, payload: dict) -> None:
    """Refuse an unknown *event_type* (``ValueError``) or a payload value
    that is not a plain scalar (``TypeError``): the checks every event
    log shares, whether a bus delivers it or a dispatcher records it."""
    if event_type not in EVENT_TYPES:
        raise ValueError(f"unknown event type {event_type!r}")
    for key, value in payload.items():
        if not isinstance(value, _SCALARS):
            raise TypeError(f"event payload {key}={value!r} is not a plain scalar")


@dataclass(frozen=True, order=True, slots=True)
class Event:
    """One typed control-plane transition.

    Ordering is ``(priority, seq)`` — the bus's delivery order — so a
    heap of events drains deterministically.  ``time_s`` tags the
    simulated instant the publisher observed (informational; delivery
    order never consults it, because publishers at equal simulated time
    must still drain in publication order).
    """

    priority: int
    seq: int
    type: str = field(compare=False)
    time_s: float = field(compare=False)
    payload: dict = field(compare=False, default_factory=dict)

    def describe(self) -> tuple:
        """Hashable summary ``(type, sorted payload items)`` for log
        comparison — deliberately excludes ``seq`` so two runs' logs
        compare by *what happened in which order*, not by counter values
        (which already agree when the histories agree)."""
        return (self.type, tuple(sorted(self.payload.items())))


class EventBus:
    """Typed events, subscriber registry, FIFO-per-priority delivery.

    Handlers subscribe per event type and are invoked in subscription
    order; delivery across events follows ``(priority, seq)``.  Every
    delivered event is appended to :attr:`log`, the replayable history.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, list] = {}
        self._queue: list[Event] = []
        self._seq = 0
        #: delivered events, in delivery order (the replay record)
        self.log: list[Event] = []
        #: events published so far (log length + still-queued events)
        self.published = 0

    # -- subscription ----------------------------------------------------------

    def subscribe(self, event_type: str, handler) -> None:
        """Register *handler* for *event_type* (called in subscribe order)."""
        if event_type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event_type!r}")
        if not callable(handler):
            raise TypeError("handler must be callable")
        self._handlers.setdefault(event_type, []).append(handler)

    def unsubscribe(self, event_type: str, handler) -> None:
        handlers = self._handlers.get(event_type, [])
        if handler in handlers:
            handlers.remove(handler)

    def subscribers(self, event_type: str) -> tuple:
        return tuple(self._handlers.get(event_type, ()))

    # -- publication -----------------------------------------------------------

    def publish(
        self,
        event_type: str,
        time_s: float = 0.0,
        priority: int = 0,
        **payload,
    ) -> Event:
        """Queue one event; returns it (delivery happens in :meth:`pump`).

        Payload values must be plain scalars so the log stays
        serialisable and replayable.
        """
        check_event(event_type, payload)
        event = Event(
            priority=priority,
            seq=self._seq,
            type=event_type,
            time_s=time_s,
            payload=dict(payload),
        )
        self._seq += 1
        self.published += 1
        heapq.heappush(self._queue, event)
        return event

    # -- delivery --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    def process_one(self) -> Event | None:
        """Deliver the next event (lowest ``(priority, seq)``) or ``None``."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self.log.append(event)
        for handler in tuple(self._handlers.get(event.type, ())):
            handler(event)
        return event

    def pump(self, max_events: int | None = None) -> int:
        """Deliver queued events (including ones published by handlers)
        until the queue drains; returns the number delivered.

        *max_events* is a runaway guard for cyclic publishers — exceeding
        it raises rather than spinning forever.
        """
        delivered = 0
        while self._queue:
            if max_events is not None and delivered >= max_events:
                raise RuntimeError(
                    f"event bus did not quiesce within {max_events} events"
                )
            self.process_one()
            delivered += 1
        return delivered

    # -- history ---------------------------------------------------------------

    def history(self) -> list[tuple]:
        """The delivered log as comparable ``(type, payload)`` summaries."""
        return [event.describe() for event in self.log]


def replay(log: list[Event], handlers: dict[str, object]) -> list[Event]:
    """Re-dispatch a recorded *log* into fresh *handlers*, in order.

    The replayed sequence is returned; handlers observe exactly the
    transitions the original run delivered (the deterministic-replay
    test asserts a replayed log reconstructs the same per-job history a
    live run produced).  Unhandled types are delivered to no one, which
    lets a replayer subscribe to just the transitions it cares about.
    """
    replayed: list[Event] = []
    for event in log:
        handler = handlers.get(event.type)
        if handler is not None:
            handler(event)
        replayed.append(event)
    return replayed
