"""Indexed fast path for the multi-job cluster simulator.

:class:`FastMultiJobCluster` replays :class:`MultiJobCluster`'s dispatch
loop — FIFO/Fair/Capacity semantics, delay scheduling, preemption
timeouts, speculation, fault and topology hooks, the event log — while
replacing every per-round O(jobs) / O(nodes) rescan with an index:

* **job-ready floors** live in a min-heap; a job is examined only when
  the dispatch clock reaches its floor, instead of every submission
  being rescanned every round;
* **node/slot state** is summarized per node (earliest-free time) and
  indexed by a min segment tree, so delay-scheduling slot picks and the
  earliest-slot-time query are O(log nodes) instead of O(nodes × slots);
* **running attempts** live in an end-time heap mirroring the reference
  loop's permanent ``end_s <= now`` filter, so expiring attempts cost
  O(log running) instead of an O(running) rebuild per round;
* **map-completion maxima** reuse ``ScheduledJob.last_map_end_s`` (also
  maintained by the reference engine), and jobs whose map phase is done
  wait in a small set rather than being re-discovered by scanning.

The fast path is bit-identical to the reference by construction: it
overrides only *where* candidates come from, never *how* they are
charged — task charging, preemption bookkeeping, fault handling and
event publication all run the inherited reference code.  Equivalence
(reports, timelines, /proc counters including sample streams, clock,
event logs) is property-tested in ``tests/cluster/test_clusterpath.py``,
pinned by digest in ``tests/cluster/test_dispatch_golden.py``, and
re-checked against the reference class by ``bench/``'s dispatch
workloads.

Nodes named by the fault plan (crash or partition targets) are excluded
from the segment tree and brute-forced with the reference formula —
fault plans name a handful of nodes, so dispatch stays logarithmic in
the healthy majority.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.cluster.attempts import JobFailedError
from repro.cluster.cluster import MapWork
from repro.cluster.eventbus import EVENT_STAGE_READY
from repro.cluster.node import Node
from repro.cluster.scheduler import (
    MultiJobCluster,
    RunningTask,
    ScheduledJob,
    SchedulerState,
)

__all__ = ["FastMultiJobCluster"]

_INF = float("inf")


class _LazyWriteProbe:
    """Per-job disk-write accounting from first-touch notes.

    The reference probe snapshots every slave before a charge window and
    diffs every slave after — two O(nodes) sweeps per task.  Charging is
    single-threaded, so recording a node's counter the first time a
    charge function announces it (before any of its writes land) yields
    the same before-value without touching untouched nodes.
    """

    __slots__ = ("_before",)

    def __init__(self) -> None:
        self._before: dict[str, tuple[Node, int]] = {}

    def note(self, node: Node) -> None:
        if node.name not in self._before:
            self._before[node.name] = (node, node.procfs.writes_completed)

    def settle(self, job: ScheduledJob) -> None:
        for name, (node, before) in self._before.items():
            delta = node.procfs.writes_completed - before
            if delta:
                job.disk_writes[name] = job.disk_writes.get(name, 0) + delta


class _MinSegTree:
    """Min segment tree over node indices with leftmost-index queries.

    Supports the two queries delay scheduling needs: the global minimum
    with its leftmost index, and the leftmost index whose value is at
    most a bound — both in O(log n), both resolving ties exactly like
    the reference's first-wins strict-< scan over ``cluster.slaves``.
    """

    __slots__ = ("size", "tree")

    def __init__(self, values: list[float]) -> None:
        size = 1
        while size < len(values):
            size *= 2
        tree = [_INF] * (2 * size)
        tree[size : size + len(values)] = values
        for i in range(size - 1, 0, -1):
            tree[i] = min(tree[2 * i], tree[2 * i + 1])
        self.size = size
        self.tree = tree

    def update(self, index: int, value: float) -> None:
        tree = self.tree
        i = index + self.size
        tree[i] = value
        i >>= 1
        while i:
            merged = min(tree[2 * i], tree[2 * i + 1])
            if tree[i] == merged:
                break
            tree[i] = merged
            i >>= 1

    def min_value(self) -> float:
        return self.tree[1]

    def leftmost_leq(self, bound: float) -> int | None:
        """Leftmost index with value <= *bound*, or None."""
        tree = self.tree
        if tree[1] > bound:
            return None
        i = 1
        while i < self.size:
            i = 2 * i if tree[2 * i] <= bound else 2 * i + 1
        return i - self.size


class _LazyState(SchedulerState):
    """SchedulerState that materializes ``running_tasks`` on demand.

    FIFO (and any non-preempting scheduler that ignores running state)
    never reads ``running_tasks``, so the common dispatch round skips
    the O(running) list build entirely.
    """

    def __init__(self, now, runnable, materialize, total_map_slots):
        self.now = now
        self.runnable = runnable
        self.total_map_slots = total_map_slots
        self._materialize = materialize
        self._materialized = None

    @property
    def running_tasks(self) -> list[RunningTask]:
        if self._materialized is None:
            self._materialized = self._materialize()
        return self._materialized


class FastMultiJobCluster(MultiJobCluster):
    """Drop-in :class:`MultiJobCluster` with indexed dispatch rounds.

    Same constructor, same :meth:`submit` / :meth:`submit_chain` /
    :meth:`run` surface, bit-identical outcomes; select it with
    ``run_mix(..., engine="fast")``.
    """

    _fast_ready = False

    # -- index construction ----------------------------------------------------

    def _fast_init(self) -> None:
        cluster = self.cluster
        self._slaves = cluster.slaves
        self._slave_names = [node.name for node in self._slaves]
        self._node_idx = cluster._slave_index
        # per-node slot counts never change mid-run; don't re-sum the
        # whole cluster every round
        self._total_map_slots = cluster.total_map_slots
        faults = self._faults
        special: set[int] = set()
        if faults is not None:
            for name in faults.crash_at:
                special.add(self._node_idx[name])
            for name in faults.windows:
                special.add(self._node_idx[name])
        #: fault-plan nodes, brute-forced with the reference formula
        self._special = sorted(special)
        self._special_set = special
        self._node_min = [min(node.map_slot_free) for node in self._slaves]
        self._segtree = _MinSegTree(
            [
                _INF if i in special else value
                for i, value in enumerate(self._node_min)
            ]
        )
        self._rack_members: dict[str, list[int]] = {}
        topology = cluster.topology
        if topology is not None and not topology.is_flat:
            for i, name in enumerate(self._slave_names):
                if topology.has_node(name):
                    self._rack_members.setdefault(
                        topology.rack_of(name), []
                    ).append(i)
        # job-side indexes
        self._children: dict[ScheduledJob, list[ScheduledJob]] = {}
        self._floors: dict[ScheduledJob, float] = {}
        self._active: dict[ScheduledJob, float] = {}
        self._future: list[tuple[float, int, ScheduledJob]] = []
        self._pending_announce: list[ScheduledJob] = []
        self._awaiting: set[ScheduledJob] = set()
        self._run_heap: list[tuple[float, int, RunningTask]] = []
        self._removed: set[int] = set()
        self._rt_counter = 0
        for job in self.jobs:
            if job.depends_on is not None:
                self._children.setdefault(job.depends_on, []).append(job)
            else:
                floor = max(self._origin, job.arrival_s)
                self._floors[job] = floor
                heappush(self._future, (floor, job.seq, job))
                self._pending_announce.append(job)
        self._fast_ready = True

    # -- node-index maintenance ------------------------------------------------

    def _touch(self, idx: int) -> None:
        earliest = min(self._slaves[idx].map_slot_free)
        if earliest != self._node_min[idx]:
            self._node_min[idx] = earliest
            if idx not in self._special_set:
                self._segtree.update(idx, earliest)

    def _set_map_slot(self, node: Node, slot: int, at: float) -> None:
        node.map_slot_free[slot] = at
        self._touch(self._node_idx[node.name])

    def _node_time_at(self, idx: int, at: float, faulty: bool) -> float | None:
        """One node's candidate start time (the reference's per-node
        formula): earliest slot vs the floor, shifted past a partition,
        None when the node is dead by then."""
        t = self._node_min[idx]
        if t < at:
            t = at
        if faulty and idx in self._special_set:
            faults = self._faults
            name = self._slave_names[idx]
            window = faults.partition_at(name, t)
            if window is not None:
                t = window[1]
            if faults.dead_at(name, t):
                return None
        return t

    def _best_any_slot(self, at: float, faulty: bool) -> tuple[int | None, float]:
        """Globally earliest ``(node index, time)`` — the lexicographic
        minimum of ``(max(node_min, at), index)``, exactly what the
        reference's strict-< first-wins scan selects."""
        tree = self._segtree
        minimum = tree.min_value()
        if minimum <= at:
            best_idx, best_time = tree.leftmost_leq(at), at
        elif minimum < _INF:
            best_idx, best_time = tree.leftmost_leq(minimum), minimum
        else:
            best_idx, best_time = None, _INF
        if faulty:
            for idx in self._special:
                t = self._node_time_at(idx, at, True)
                if t is None:
                    continue
                if t < best_time or (t == best_time and (best_idx is None or idx < best_idx)):
                    best_idx, best_time = idx, t
        return best_idx, best_time

    def _pick_indexed(
        self,
        task: MapWork,
        at: float,
        locality_wait: float,
        rack_wait: float,
        faulty: bool,
    ) -> tuple[Node, int, float]:
        """Delay-scheduling slot pick over the index (both fault modes)."""
        cluster = self.cluster
        best_idx, best_time = self._best_any_slot(at, faulty)
        if best_idx is None:
            # only reachable under faults: every node is crash-dead
            raise JobFailedError("no live node left to run map tasks")
        local_idx, local_time = None, _INF
        if task.preferred_nodes:
            node_idx = self._node_idx
            for name in task.preferred_nodes:
                idx = node_idx.get(name)
                if idx is None:
                    continue
                t = self._node_time_at(idx, at, faulty)
                if t is None:
                    continue
                if t < local_time or (t == local_time and idx < local_idx):
                    local_idx, local_time = idx, t
            if local_idx is not None and local_time <= best_time + locality_wait:
                node = self._slaves[local_idx]
                return node, node.earliest_map_slot(), local_time
        preferred_racks = cluster._preferred_racks(task)
        if preferred_racks:
            rack_idx, rack_time = None, _INF
            for rack in preferred_racks:
                for idx in self._rack_members.get(rack, ()):
                    t = self._node_time_at(idx, at, faulty)
                    if t is None:
                        continue
                    if t < rack_time or (t == rack_time and idx < rack_idx):
                        rack_idx, rack_time = idx, t
            if (
                rack_idx is not None
                and rack_time <= best_time + locality_wait + rack_wait
            ):
                node = self._slaves[rack_idx]
                return node, node.earliest_map_slot(), rack_time
        node = self._slaves[best_idx]
        return node, node.earliest_map_slot(), best_time

    # -- reference-hook overrides ----------------------------------------------

    def _write_probe(self) -> _LazyWriteProbe:
        return _LazyWriteProbe()

    def _earliest_slot_time(self) -> float:
        best = self._segtree.min_value()
        faults = self._faults
        if faults is not None:
            for idx in self._special:
                t = self._node_min[idx]
                if faults.dead_at(self._slave_names[idx], t):
                    continue
                if t < best:
                    best = t
        return best if best < _INF else self.cluster.clock

    def _charge_map_clean(self, task, floor, wait, rack_wait, probe):
        # mirrors HadoopCluster._charge_map_task with the indexed pick
        node, slot, ready = self._pick_indexed(
            task, floor, wait, rack_wait, faulty=False
        )
        task_start = ready if ready > floor else floor
        end = self.cluster._charge_map_on(task, node, task_start, probe=probe)
        node.map_slot_free[slot] = end
        self._touch(self._node_idx[node.name])
        return task_start, end, node, slot

    def _pick_live_map_slot(self, task, at, locality_wait, rack_wait=None):
        if rack_wait is None:
            rack_wait = self.cluster.rack_locality_wait_s
        return self._pick_indexed(task, at, locality_wait, rack_wait, faulty=True)

    # -- running-attempt index -------------------------------------------------

    def _materialize_running(self) -> list[RunningTask]:
        removed = self._removed
        return [
            rt
            for _end, _count, rt in self._run_heap
            if id(rt) not in removed and rt.job.status != "failed"
        ]

    def _drop_finished(self, now: float) -> None:
        """Permanently drop attempts with ``end_s <= now`` (the heap
        twin of the reference loop's running-list filter)."""
        heap = self._run_heap
        removed = self._removed
        while heap and heap[0][0] <= now:
            _end, _count, rt = heappop(heap)
            removed.discard(id(rt))

    def _observe_starvation(self, obs: float, floors) -> None:
        self._obs_t = obs
        runnable = [job for job, floor in floors.items() if floor <= obs]
        if not runnable:
            return
        running = [rt for rt in self._materialize_running() if rt.end_s > obs]
        state = SchedulerState(obs, runnable, running, self._total_map_slots)
        victims = self.scheduler.tasks_to_preempt(obs, state)
        if victims:
            self._drop_finished(obs)
            self._running = running
            self._apply_preemptions(obs, state, victims)

    def _apply_preemptions(self, now, state, victims) -> None:
        super()._apply_preemptions(now, state, victims)
        for rt in victims:
            # stays in the end-time heap until its end expires; the
            # tombstone hides it from materializations meanwhile
            self._removed.add(id(rt))
            job = rt.job
            if job in self._awaiting:
                # a finished map went back to pending: the job queues
                # for map dispatch again
                self._awaiting.discard(job)
                self._active[job] = self._floors[job]

    def _fail_job(self, job, exc) -> None:
        super()._fail_job(job, exc)
        if self._fast_ready:
            self._active.pop(job, None)
            self._awaiting.discard(job)

    def _finishable(self) -> list[ScheduledJob]:
        return sorted(
            self._awaiting, key=lambda job: (job.last_map_end_s, job.seq)
        )

    # -- job lifecycle bookkeeping ---------------------------------------------

    def _on_job_resolved(self, job: ScheduledJob) -> None:
        """After a finish attempt: release dependents of a completed job."""
        if job.status != "completed":
            return
        for child in self._children.get(job, ()):
            if child.status != "pending":
                continue
            floor = max(self._origin, child.arrival_s, job.finished_s)
            self._floors[child] = floor
            heappush(self._future, (floor, child.seq, child))
            self._pending_announce.append(child)

    def _flush_announcements(self) -> None:
        """Publish STAGE_READY for newly-floored jobs in submission
        order — the order the reference's top-of-round jobs scan emits."""
        self._pending_announce.sort(key=lambda job: job.seq)
        for job in self._pending_announce:
            self._ready_announced.add(job.job_id)
            floor = self._floors[job]
            self._publish(
                EVENT_STAGE_READY,
                time_s=floor,
                job_id=job.job_id,
                floor_s=floor,
            )
        self._pending_announce.clear()

    # -- the indexed dispatch round --------------------------------------------

    def _run_round(self) -> bool:
        if not self._fast_ready:
            self._fast_init()
        if self._pending_announce:
            self._flush_announcements()
        active, future = self._active, self._future
        if not active and not future:
            # no dispatchable map work left: run deferred reduce phases
            ready = self._finishable()
            if not ready:
                return False
            for job in ready:
                self._finish_or_fail(job)
                self._awaiting.discard(job)
                self._on_job_resolved(job)
            return True
        min_floor = future[0][0] if future else _INF
        for floor in active.values():
            if floor < min_floor:
                min_floor = floor
        now = self._earliest_slot_time()
        if min_floor > now:
            now = min_floor
        while future and future[0][0] <= now:
            floor, _seq, job = heappop(future)
            active[job] = floor
        if self.scheduler.preemption:
            obs = self._next_observation(active, now)
            if obs is not None:
                self._observe_starvation(obs, active)
                return True
        caught_up = sorted(
            (job for job in self._awaiting if job.last_map_end_s <= now),
            key=lambda job: (job.last_map_end_s, job.seq),
        )
        if caught_up:
            for job in caught_up:
                self._finish_or_fail(job)
                self._awaiting.discard(job)
                self._on_job_resolved(job)
            return True
        runnable = [job for job, floor in active.items() if floor <= now]
        self._drop_finished(now)
        state = _LazyState(
            now, runnable, self._materialize_running, self._total_map_slots
        )
        victims = self.scheduler.tasks_to_preempt(now, state)
        if victims:
            self._running = state.running_tasks
            self._apply_preemptions(now, state, victims)
            return True
        job = self.scheduler.pick_job(now, runnable, state)
        if job not in runnable:
            raise RuntimeError(
                f"{self.scheduler.name} picked a job that is not runnable"
            )
        self._running = []
        try:
            self._dispatch_map(job, active[job])
        except JobFailedError as exc:
            self._fail_job(job, exc)
        else:
            rt = self._running.pop()
            heappush(self._run_heap, (rt.end_s, self._rt_counter, rt))
            self._rt_counter += 1
            if not job.pending:
                # all maps dispatched: park until the reduce phase
                del active[job]
                self._awaiting.add(job)
        return True
