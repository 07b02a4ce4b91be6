"""The Hadoop cluster and its MapReduce job timeline executor.

:class:`HadoopCluster` mirrors the paper's testbed: one master plus N
slaves (four in the paper's characterization runs; 1/4/8 in the Figure 2
speedup study), 24 map and 12 reduce slots per slave, 1 GbE, local disks,
and HDFS block placement.

The *functional* execution of a job (running the actual map/reduce
functions over real records) lives in :mod:`repro.mapreduce`; that engine
derives a :class:`JobWork` — per-task byte counts and CPU work — which this
module schedules onto slots, disks and NICs to produce a
:class:`JobTimeline`.  All the cluster-level numbers the paper reports
(speedups, disk writes per second) come from these timelines.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.cluster.hdfs import Hdfs
from repro.cluster.journal import FsImage, NameNodeJournal, restore_into, snapshot
from repro.cluster.network import Network
from repro.cluster.node import Node
from repro.cluster.topology import Topology

#: Bytes of task logs / job-history records each task writes locally
#: (tasktracker logging — visible in /proc disk counters even for jobs
#: with tiny outputs).
TASK_LOG_BYTES = 2048


class StaleClusterError(RuntimeError):
    """Raised when a job is submitted to a cluster whose slot state is
    ahead of its clock — a partially-restored or hand-mutated cluster.

    Hadoop's jobtracker refuses work while tasktrackers report state it
    cannot reconcile; likewise :meth:`HadoopCluster.run_job` refuses to
    silently schedule onto slots whose next-free times postdate the
    cluster clock.  Call :meth:`HadoopCluster.reset` or restore a
    consistent :class:`ClusterCheckpoint` first.
    """


@dataclass(frozen=True)
class MapWork:
    """Resource demand of one map task."""

    input_bytes: int
    cpu_seconds: float
    output_bytes: int
    preferred_nodes: tuple[str, ...] = ()
    #: the HDFS block backing this task's split as ``(file_name, block
    #: index)``, when the input lives in HDFS — what lets the integrity
    #: read path consult real replica state (corruption, reported bad
    #: blocks) instead of just the placement hint above.
    split: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.input_bytes < 0 or self.output_bytes < 0 or self.cpu_seconds < 0:
            raise ValueError("map work amounts must be non-negative")


@dataclass(frozen=True)
class ReduceWork:
    """Resource demand of one reduce task."""

    shuffle_bytes: int
    cpu_seconds: float
    output_bytes: int

    def __post_init__(self) -> None:
        if self.shuffle_bytes < 0 or self.output_bytes < 0 or self.cpu_seconds < 0:
            raise ValueError("reduce work amounts must be non-negative")


@dataclass
class JobWork:
    """A whole job's worth of task demands (produced by the engine)."""

    name: str
    maps: list[MapWork]
    reduces: list[ReduceWork] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise ValueError("a job needs a non-empty name")
        if not self.maps:
            raise ValueError("a job needs at least one map task")


@dataclass(frozen=True)
class NodeCheckpoint:
    """Frozen copy of one node's discrete-event and /proc state."""

    map_slot_free: tuple[float, ...]
    reduce_slot_free: tuple[float, ...]
    disk_busy_until: float
    disk_pending_write_bytes: int
    nic_tx_busy_until: float
    nic_rx_busy_until: float
    procfs: object  # deep copy of the node's ProcFs


@dataclass(frozen=True)
class ClusterCheckpoint:
    """A restorable snapshot of the whole cluster's simulation state.

    Captures the clock, every node's slot/disk/NIC/procfs state, the
    network counters, the HDFS namespace (as an
    :class:`~repro.cluster.journal.FsImage`) and the NameNode journal, so
    an experiment can be snapshotted and resumed deterministically —
    restore + re-run reproduces the original timeline bit for bit.
    """

    clock: float
    network_transfers: int
    network_bytes_moved: int
    network_fabric_busy_until: float
    nodes: tuple[tuple[str, NodeCheckpoint], ...]
    fsimage: FsImage
    journal_state: tuple | None
    network_retransmits: int = 0
    network_retransmit_bytes: int = 0
    #: the gray-link rng's state, so restore + re-run reproduces the
    #: same segment-drop pattern bit for bit.
    network_rng_state: tuple | None = None
    # Two-tier fabric occupancy (trailing defaults keep checkpoints from
    # pre-topology code restorable).
    network_core_busy_until: float = 0.0
    network_uplink_busy: tuple[tuple[str, float], ...] = ()
    network_cross_rack_bytes: int = 0


@dataclass
class JobTimeline:
    """Timing outcome of one job on one cluster."""

    job_name: str
    start_s: float
    map_phase_end_s: float
    end_s: float
    map_tasks: int
    reduce_tasks: int
    disk_writes_per_second: dict[str, float]
    network_bytes: int
    #: map placements by delay-scheduling tier.  On a flat cluster the
    #: rack tier does not exist, so every non-local map counts off-rack.
    maps_node_local: int = 0
    maps_rack_local: int = 0
    maps_off_rack: int = 0
    #: node → rack for multi-rack runs (empty on flat clusters) — what
    #: lets locality/colocation analyses group per-node columns by rack.
    node_racks: dict[str, str] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-serializable per-job report (see :mod:`repro.core.export`)."""
        return {
            "job_name": self.job_name,
            "start_s": self.start_s,
            "map_phase_end_s": self.map_phase_end_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "map_tasks": self.map_tasks,
            "reduce_tasks": self.reduce_tasks,
            "disk_writes_per_second": dict(self.disk_writes_per_second),
            "network_bytes": self.network_bytes,
            "maps_node_local": self.maps_node_local,
            "maps_rack_local": self.maps_rack_local,
            "maps_off_rack": self.maps_off_rack,
            "node_racks": dict(self.node_racks),
        }


class HadoopCluster:
    """Master + slaves + network + HDFS, with a job timeline executor."""

    def __init__(
        self,
        slaves: list[Node],
        master: Node | None = None,
        network: Network | None = None,
        block_size: int = 2 * 1024 * 1024,
        replication: int = 3,
        locality_wait_s: float = 0.02,
        journaling: bool = True,
        bytes_per_checksum: int = 512,
        topology: Topology | None = None,
        rack_locality_wait_s: float | None = None,
    ) -> None:
        if not slaves:
            raise ValueError("a cluster needs at least one slave")
        if locality_wait_s < 0:
            raise ValueError("locality wait must be non-negative")
        if rack_locality_wait_s is not None and rack_locality_wait_s < 0:
            raise ValueError("rack locality wait must be non-negative")
        self.master = master or Node("master")
        self.slaves = list(slaves)
        self.network = network or Network()
        #: failure-domain map (``None`` = the pre-topology flat cluster).
        #: Shared with HDFS placement, the network's rack accounting and
        #: the schedulers' rack-local tier.
        self.topology = topology
        if topology is not None and self.network.topology is None:
            self.network.topology = topology
        self.hdfs = Hdfs(
            self.slaves,
            block_size=block_size,
            replication=replication,
            bytes_per_checksum=bytes_per_checksum,
            topology=topology,
        )
        #: NameNode edit-log journaling: on by default because it is
        #: observationally free (pure bookkeeping, no simulated time), and
        #: it is what makes the namespace reconstructable after a master
        #: crash.  Pass ``journaling=False`` for a journal-less namenode.
        self.journal = (
            NameNodeJournal(self.hdfs, procfs=self.master.procfs)
            if journaling
            else None
        )
        #: how long a map task waits for a data-local slot before running
        #: remote (Hadoop's mapred.locality.wait, scaled to task times)
        self.locality_wait_s = locality_wait_s
        #: additional wait granted for a *rack-local* slot before falling
        #: all the way off-rack (the Fair Scheduler's second delay level);
        #: defaults to the node-local wait.  Only consulted on multi-rack
        #: topologies — a flat cluster never reaches the rack tier.
        self.rack_locality_wait_s = (
            rack_locality_wait_s
            if rack_locality_wait_s is not None
            else locality_wait_s
        )
        self.clock = 0.0
        self._slave_by_name = {node.name: node for node in self.slaves}
        self._slave_index = {node.name: i for i, node in enumerate(self.slaves)}
        self._node_racks_cache: dict[str, str] | None = None

    # -- helpers ------------------------------------------------------------

    def slave(self, name: str) -> Node:
        return self._slave_by_name[name]

    @property
    def total_map_slots(self) -> int:
        return sum(node.map_slots for node in self.slaves)

    @property
    def total_reduce_slots(self) -> int:
        return sum(node.reduce_slots for node in self.slaves)

    def reset(self) -> None:
        """Clear all timing/procfs state (fresh experiment)."""
        self.clock = 0.0
        self.network.reset()
        for node in [self.master, *self.slaves]:
            node.reset()
        if self.journal is not None:
            # Nodes rebuilt their ProcFs; re-point the journal's metrics.
            self.journal.procfs = self.master.procfs

    # -- checkpoint / restore --------------------------------------------------

    def checkpoint(self) -> ClusterCheckpoint:
        """Snapshot the entire simulation state for a later :meth:`restore`.

        The checkpoint is immutable and restorable any number of times;
        restore + re-run reproduces the original execution exactly (the
        scheduler is deterministic given equal state).
        """
        nodes = []
        for node in [self.master, *self.slaves]:
            nodes.append((
                node.name,
                NodeCheckpoint(
                    map_slot_free=tuple(node.map_slot_free),
                    reduce_slot_free=tuple(node.reduce_slot_free),
                    disk_busy_until=node.disk.busy_until,
                    disk_pending_write_bytes=node.disk._pending_write_bytes,
                    nic_tx_busy_until=node.nic.tx_busy_until,
                    nic_rx_busy_until=node.nic.rx_busy_until,
                    procfs=copy.deepcopy(node.procfs),
                ),
            ))
        return ClusterCheckpoint(
            clock=self.clock,
            network_transfers=self.network.transfers,
            network_bytes_moved=self.network.bytes_moved,
            network_fabric_busy_until=self.network.fabric_busy_until,
            nodes=tuple(nodes),
            fsimage=snapshot(self.hdfs),
            journal_state=(
                self.journal.checkpoint_state() if self.journal else None
            ),
            network_retransmits=self.network.retransmits,
            network_retransmit_bytes=self.network.retransmit_bytes,
            network_rng_state=self.network.rng_state(),
            network_core_busy_until=self.network.core_busy_until,
            network_uplink_busy=tuple(
                sorted(self.network.uplink_busy_until.items())
            ),
            network_cross_rack_bytes=self.network.cross_rack_bytes,
        )

    def restore(self, cp: ClusterCheckpoint) -> None:
        """Restore the state captured by :meth:`checkpoint`, in place.

        Node/network/HDFS objects keep their identity — every reference
        held elsewhere (scheduler wrappers, distributed inputs) sees the
        restored state.
        """
        by_name = {node.name: node for node in [self.master, *self.slaves]}
        saved = dict(cp.nodes)
        if set(by_name) != set(saved):
            raise ValueError("checkpoint is from a differently-shaped cluster")
        self.clock = cp.clock
        self.network.transfers = cp.network_transfers
        self.network.bytes_moved = cp.network_bytes_moved
        self.network.fabric_busy_until = cp.network_fabric_busy_until
        self.network.retransmits = cp.network_retransmits
        self.network.retransmit_bytes = cp.network_retransmit_bytes
        self.network.core_busy_until = cp.network_core_busy_until
        self.network.uplink_busy_until = dict(cp.network_uplink_busy)
        self.network.cross_rack_bytes = cp.network_cross_rack_bytes
        if cp.network_rng_state is not None:
            self.network.set_rng_state(cp.network_rng_state)
        for name, node_cp in saved.items():
            node = by_name[name]
            node.map_slot_free = list(node_cp.map_slot_free)
            node.reduce_slot_free = list(node_cp.reduce_slot_free)
            node.disk.busy_until = node_cp.disk_busy_until
            node.disk._pending_write_bytes = node_cp.disk_pending_write_bytes
            node.nic.tx_busy_until = node_cp.nic_tx_busy_until
            node.nic.rx_busy_until = node_cp.nic_rx_busy_until
            node.procfs = copy.deepcopy(node_cp.procfs)
            node.disk.procfs = node.procfs
            node.nic.procfs = node.procfs
        restore_into(self.hdfs, cp.fsimage)
        if self.journal is not None:
            self.journal.procfs = self.master.procfs
            if cp.journal_state is not None:
                self.journal.restore_state(cp.journal_state)

    # -- job execution --------------------------------------------------------

    def run_job(self, work: JobWork) -> JobTimeline:
        """Schedule *work* and advance the cluster clock; return the timeline.

        Scheduling policy (Hadoop-1-like):

        * map tasks go to the data-local node's earliest slot when that
          costs at most ``locality_wait`` over the globally earliest slot;
        * a map task reads its split (locally, or via the network from a
          replica holder), computes, and spills its output to local disk;
        * each reducer pulls its share of every map's output as that map
          finishes (local reads for co-located segments, network transfers
          otherwise), then computes, then writes its HDFS output locally
          plus ``replication - 1`` remote copies.
        """
        self.ensure_schedulable()
        start = self.clock
        net_bytes_before = self.network.bytes_moved
        for node in self.slaves:
            node.procfs.sample(start)

        locality_wait = self.locality_wait_s
        map_end_times: list[float] = []
        map_nodes: list[Node] = []
        map_outputs: list[int] = []
        for task in work.maps:
            _task_start, now, node, _slot = self._charge_map_task(
                task, start, locality_wait
            )
            map_end_times.append(now)
            map_nodes.append(node)
            map_outputs.append(task.output_bytes)

        end, map_phase_end, _spans = self._charge_reduce_phase(
            work, start, map_end_times, map_nodes, map_outputs
        )
        return self._job_timeline(
            work, start, map_phase_end, end, net_bytes_before, map_nodes
        )

    def ensure_schedulable(self) -> None:
        """Refuse to schedule onto a cluster whose slots are ahead of its clock."""
        stale = sorted(
            node.name
            for node in self.slaves
            if any(t > self.clock for t in node.map_slot_free)
            or any(t > self.clock for t in node.reduce_slot_free)
        )
        if stale:
            raise StaleClusterError(
                "cluster state is not schedulable: slot next-free times on "
                f"{', '.join(stale)} postdate the cluster clock "
                f"({self.clock:.6f}s) — this cluster was partially restored "
                "or mutated mid-job; call reset() or restore a consistent "
                "checkpoint before running a job"
            )

    def _charge_map_on(
        self, task: MapWork, node: Node, at: float, probe=None
    ) -> float:
        """Charge one map task's read/CPU/spill on *node* from time *at*.

        Returns the task's end time.  Pure charging — no slot bookkeeping —
        so the stock executor, the multi-job dispatcher and the fault
        schedulers all replay the exact same primitive sequence.  *probe*,
        when given, is told which node is about to take disk writes so
        per-job write accounting can avoid full-cluster snapshots.
        """
        if probe is not None:
            probe.note(node)
        now = at
        node.procfs.record_map_locality(self._map_locality_tier(task, node))
        if task.input_bytes:
            if task.preferred_nodes and node.name not in task.preferred_nodes:
                # Remote read: replica holder's disk, then the network.
                src = self._slave_by_name.get(task.preferred_nodes[0])
                if src is not None and src is not node:
                    read_done = src.disk.read(now, task.input_bytes)
                    now = self.network.transfer(
                        read_done, src.nic, node.nic, task.input_bytes
                    )
                else:
                    now = node.disk.read(now, task.input_bytes)
            else:
                now = node.disk.read(now, task.input_bytes)
            # Every HDFS read verifies its CRC32 chunks (pure
            # arithmetic riding on the read — no simulated time).
            node.procfs.record_checksum(
                self.hdfs.checksum_chunks(task.input_bytes)
            )
        now += node.cpu_time(task.cpu_seconds)
        return node.disk.write(now, task.output_bytes + TASK_LOG_BYTES)

    def _charge_map_task(
        self,
        task: MapWork,
        floor: float,
        locality_wait: float,
        rack_wait: float | None = None,
        probe=None,
    ) -> tuple[float, float, Node, int]:
        """Pick a slot (delay scheduling) and charge one map task.

        *floor* is the earliest time the task may start (the job's start
        in the stock single-job path; the owning job's dispatch floor in
        the multi-job path).  Returns ``(task_start, end, node, slot)``.
        """
        node, slot, ready = self._pick_map_slot(task, floor, locality_wait, rack_wait)
        task_start = max(ready, floor)
        now = self._charge_map_on(task, node, task_start, probe=probe)
        node.map_slot_free[slot] = now
        return task_start, now, node, slot

    def _job_timeline(
        self,
        work: JobWork,
        start: float,
        map_phase_end: float,
        end: float,
        net_bytes_before: int,
        map_nodes: list[Node],
        timeline_type: type[JobTimeline] = JobTimeline,
        **extra,
    ) -> JobTimeline:
        """Advance the clock to *end* and build one job's timeline.

        *map_nodes* are the maps' final placements.  The fault scheduler
        builds its :class:`JobTimeline` subclass here too, passing the
        type and its extra fields, so both paths record the same rates,
        locality tiers and rack map.
        """
        self.clock = end
        rates: dict[str, float] = {}
        for node in self.slaves:
            node.procfs.sample(end)
            rates[node.name] = node.procfs.disk_writes_per_second()
        # Final placements by delay-scheduling tier (observational: the
        # tiers are re-derived from the already-charged assignments).
        tiers = [
            self._map_locality_tier(task, node)
            for task, node in zip(work.maps, map_nodes)
        ]
        node_racks = self._node_racks()
        return timeline_type(
            job_name=work.name,
            start_s=start,
            map_phase_end_s=map_phase_end,
            end_s=end,
            map_tasks=len(work.maps),
            reduce_tasks=len(work.reduces),
            disk_writes_per_second=rates,
            network_bytes=self.network.bytes_moved - net_bytes_before,
            maps_node_local=tiers.count("node"),
            maps_rack_local=tiers.count("rack"),
            maps_off_rack=tiers.count("off"),
            node_racks=node_racks,
            **extra,
        )

    def _charge_reduce_phase(
        self,
        work: JobWork,
        start: float,
        map_end_times: list[float],
        map_nodes: list[Node],
        map_outputs: list[int],
        probe=None,
    ) -> tuple[float, float, list[tuple[Node, float, float]]]:
        """Shuffle + reduce + output replication (pure charging).

        Returns ``(end, map_phase_end, reduce_spans)`` where *reduce_spans*
        is one ``(node, exec_start, end)`` per reduce task — what the
        multi-job dispatcher records for slot-occupancy accounting.
        """
        map_phase_end = max(map_end_times) if map_end_times else start
        total_map_output = sum(map_outputs)

        end = map_phase_end
        reduce_spans: list[tuple[Node, float, float]] = []
        # Two passes keep simulated causality straight: every reducer's
        # shuffle reads are issued (at map-finish times) before any
        # reducer's output writes, as in a real run where the copy phase
        # overlaps and the writes come last.
        placements = [self._pick_reduce_slot(i, start) for i in range(len(work.reduces))]
        shuffle_done_times: list[float] = []
        for (node, _slot, ready), task in zip(placements, work.reduces):
            shuffle_done = max(ready, start)
            if total_map_output and task.shuffle_bytes:
                for m_end, m_node, m_out in zip(map_end_times, map_nodes, map_outputs):
                    segment = int(task.shuffle_bytes * (m_out / total_map_output))
                    if segment <= 0:
                        continue
                    if m_node is node:
                        done = m_node.disk.read(m_end, segment)
                    else:
                        read_done = m_node.disk.read(m_end, segment)
                        done = self.network.transfer(read_done, m_node.nic, node.nic, segment)
                    if done > shuffle_done:
                        shuffle_done = done
            shuffle_done_times.append(shuffle_done)
        for (node, slot, _ready), task, shuffle_done in zip(
            placements, work.reduces, shuffle_done_times
        ):
            exec_start = max(shuffle_done, map_phase_end, node.reduce_slot_free[slot])
            now = exec_start + node.cpu_time(task.cpu_seconds)
            if probe is not None:
                probe.note(node)
            now = node.disk.write(now, task.output_bytes + TASK_LOG_BYTES)
            if task.output_bytes:
                # HDFS replication: pipeline copies to other slaves.
                copies = min(self.hdfs.replication - 1, len(self.slaves) - 1)
                for c in range(copies):
                    dst = self.slaves[
                        (self._slave_index[node.name] + 1 + c) % len(self.slaves)
                    ]
                    sent = self.network.transfer(now, node.nic, dst.nic, task.output_bytes)
                    if probe is not None:
                        probe.note(dst)
                    now = max(now, dst.disk.write(sent, task.output_bytes))
            node.reduce_slot_free[slot] = now
            reduce_spans.append((node, exec_start, now))
            if now > end:
                end = now
        return end, map_phase_end, reduce_spans

    # -- locality / failure domains -------------------------------------------

    def _preferred_racks(self, task: MapWork) -> frozenset[str]:
        """Racks holding a replica of *task*'s split (empty on flat clusters)."""
        if self.topology is None or self.topology.is_flat or not task.preferred_nodes:
            return frozenset()
        return frozenset(
            self.topology.rack_of(name)
            for name in task.preferred_nodes
            if self.topology.has_node(name)
        )

    def _node_racks(self) -> dict[str, str]:
        """Node → rack for multi-rack clusters; empty when flat.

        Memoized: the topology is fixed at construction, and per-job
        timeline assembly asks for this map once per finished job.  A
        fresh dict is returned each call so callers may mutate theirs.
        """
        if self.topology is None or self.topology.is_flat:
            return {}
        if self._node_racks_cache is None:
            self._node_racks_cache = {
                node.name: self.topology.rack_of(node.name)
                for node in self.slaves
                if self.topology.has_node(node.name)
            }
        return dict(self._node_racks_cache)

    def _map_locality_tier(self, task: MapWork, node: Node) -> str:
        """Delay-scheduling tier (``node``/``rack``/``off``) of running
        *task* on *node*.  Tasks with no placement preference count as
        node-local (nothing was missed); without a multi-rack topology the
        rack tier does not exist, so every remote launch counts off-rack.
        """
        if not task.preferred_nodes or node.name in task.preferred_nodes:
            return "node"
        if (
            self.topology is not None
            and not self.topology.is_flat
            and self.topology.has_node(node.name)
            and self.topology.rack_of(node.name) in self._preferred_racks(task)
        ):
            return "rack"
        return "off"

    # -- slot selection --------------------------------------------------------

    def _pick_map_slot(
        self,
        task: MapWork,
        job_start: float,
        locality_wait: float,
        rack_wait: float | None = None,
    ) -> tuple[Node, int, float]:
        if rack_wait is None:
            rack_wait = self.rack_locality_wait_s
        best_node, best_slot, best_time = None, -1, float("inf")
        local_node, local_slot, local_time = None, -1, float("inf")
        rack_node, rack_slot, rack_time = None, -1, float("inf")
        preferred_racks = self._preferred_racks(task)
        for node in self.slaves:
            slot = node.earliest_map_slot()
            t = max(node.map_slot_free[slot], job_start)
            if t < best_time:
                best_node, best_slot, best_time = node, slot, t
            if task.preferred_nodes and node.name in task.preferred_nodes and t < local_time:
                local_node, local_slot, local_time = node, slot, t
            if (
                preferred_racks
                and t < rack_time
                and self.topology.has_node(node.name)
                and self.topology.rack_of(node.name) in preferred_racks
            ):
                rack_node, rack_slot, rack_time = node, slot, t
        if local_node is not None and local_time <= best_time + locality_wait:
            return local_node, local_slot, local_time
        # Second delay level (Fair Scheduler style): before going
        # off-rack, wait a further rack_locality_wait_s for a slot on a
        # rack that holds a replica.  preferred_racks is empty on flat
        # clusters, so this tier is unreachable there.
        if rack_node is not None and rack_time <= best_time + locality_wait + rack_wait:
            return rack_node, rack_slot, rack_time
        assert best_node is not None
        return best_node, best_slot, best_time

    def _pick_reduce_slot(self, r_index: int, job_start: float) -> tuple[Node, int, float]:
        node = self.slaves[r_index % len(self.slaves)]
        slot = node.earliest_reduce_slot()
        return node, slot, max(node.reduce_slot_free[slot], job_start)


def slave_names(num_slaves: int) -> list[str]:
    """The slave host names of a paper-shaped cluster: ``slave1..slaveN``."""
    return [f"slave{i + 1}" for i in range(num_slaves)]


def make_cluster(
    num_slaves: int = 4,
    map_slots: int = 24,
    reduce_slots: int = 12,
    block_size: int = 2 * 1024 * 1024,
    replication: int = 3,
    cpu_speed: float = 1.0,
    journaling: bool = True,
    bytes_per_checksum: int = 512,
    racks: int = 1,
) -> HadoopCluster:
    """Build a paper-shaped cluster: one master plus *num_slaves* slaves.

    ``racks`` splits the slaves into that many contiguous failure domains
    (:meth:`Topology.uniform`).  The default single rack builds no
    topology at all, so a one-rack cluster is bit-identical to the
    pre-topology model.
    """
    if num_slaves <= 0:
        raise ValueError("need at least one slave")
    if racks < 1:
        raise ValueError("need at least one rack")
    slaves = [
        Node(name, map_slots=map_slots, reduce_slots=reduce_slots, cpu_speed=cpu_speed)
        for name in slave_names(num_slaves)
    ]
    topology = (
        Topology.uniform([node.name for node in slaves], racks)
        if racks > 1
        else None
    )
    return HadoopCluster(
        slaves,
        block_size=block_size,
        replication=replication,
        journaling=journaling,
        bytes_per_checksum=bytes_per_checksum,
        topology=topology,
    )
