"""Simulated ``/proc`` for OS-level statistics.

The paper samples the proc filesystem for OS-level performance data such
as the number of disk writes per second (Figure 5).  Our cluster model
(:mod:`repro.cluster`) keeps per-device counters; :class:`ProcFs` renders
them in the familiar ``/proc/diskstats`` / ``/proc/net/dev`` shapes and
computes the per-second rates the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DiskSample:
    """One sampled snapshot of a node's disk counters."""

    time_s: float
    writes_completed: int
    sectors_written: int
    reads_completed: int
    sectors_read: int


#: Every counter, by the status line that renders it (an integer attribute
#: of :class:`ProcFs`, zero at start, in this order).
COUNTER_GROUPS: dict[str, tuple[str, ...]] = {
    "diskstats": ("writes_completed", "sectors_written", "reads_completed", "sectors_read"),
    "netdev": ("net_rx_bytes", "net_tx_bytes"),
    # Resilience (the tasktracker's view of Hadoop's fault handling):
    # failed/killed/speculative attempts hosted by this node, plus shuffle
    # fetches that died on its reducers.  Kills issued by a preempting
    # scheduler (fair-share reclaim) also count in tasks_killed.
    "resilience": (
        "tasks_failed", "tasks_killed", "tasks_preempted", "tasks_speculative",
        "fetch_failures",
    ),
    # Control plane (the master's view): namenode edit-log appends,
    # SecondaryNameNode checkpoint merges, jobtracker restarts after a
    # master crash.
    "control_plane": ("journal_edits", "journal_checkpoints", "master_restarts"),
    # Data integrity (the HDFS client/datanode view): CRC chunks verified
    # on read, verifications that failed (bit-rot or in-flight corruption),
    # bad-block reports filed with the namenode, DataBlockScanner scrub
    # traffic; and the NIC's TCP view: segments retransmitted on lossy
    # links and the wire bytes they cost.
    "integrity": (
        "checksum_verifications", "checksum_failures", "bad_block_reports", "scrub_bytes",
        "net_retransmits", "net_retransmit_bytes",
    ),
    # Overload/fail-slow (the service frontend's and jobtracker's view):
    # requests refused by admission control or load shedding, requests
    # killed at their deadline, speculative races won against a limping host.
    "overload": ("requests_shed", "deadline_kills", "speculative_wins"),
    # Workflow (the DAG orchestrator's view, kept on the master): workflows
    # entering/leaving the system, stage-level retries (distinct from
    # task-attempt retries), minimal-subgraph re-executions after total
    # output loss, stages cancelled by an upstream permanent failure.
    "workflow": (
        "workflows_submitted", "workflows_completed", "stage_retries",
        "lineage_recomputes", "stages_cancelled",
    ),
    # Warehouse (the HiveServer's view, kept on the master): recurring
    # statements served from the materialization cache vs run cold.
    "warehouse": ("result_cache_hits", "result_cache_misses"),
    # Topology/locality (the jobtracker's delay-scheduling view of this
    # tasktracker): map tasks launched here by locality tier, and wire
    # bytes this node moved across a rack boundary.  Pure observation —
    # recording never touches the simulated clock.
    "topology": ("maps_node_local", "maps_rack_local", "maps_off_rack", "bytes_cross_rack"),
}

#: The groups rendered in their ``/proc`` file's shape.
PROC_LINES = {
    "diskstats": (
        "   8       0 sda {reads_completed} 0 {sectors_read} 0 "
        "{writes_completed} 0 {sectors_written} 0 0 0 0"
    ),
    "netdev": "  eth0: {net_rx_bytes} 0 0 0 0 0 0 0 {net_tx_bytes} 0 0 0 0 0 0 0",
}


class ProcFs:
    """Accumulates device counters and renders proc-style views.

    The cluster simulation calls :meth:`record_disk_writes` /
    :meth:`record_disk_read` / :meth:`record_net` as it executes and
    increments the plain event counters of :data:`COUNTER_GROUPS`
    directly; analysis code calls :meth:`sample` with the simulated time
    and derives rates from successive samples, exactly like a userspace
    sampler reading ``/proc/diskstats``.
    """

    SECTOR_BYTES = 512

    def __init__(self, node_name: str = "node") -> None:
        self.node_name = node_name
        for names in COUNTER_GROUPS.values():
            for name in names:
                setattr(self, name, 0)
        # one plain (time_s, writes, sectors written, reads, sectors
        # read) row per sample: full observability sweeps every slave at
        # each job start and end, so a sample must not allocate an object
        self._sample_rows: list[tuple[float, int, int, int, int]] = []

    # -- recording (called by the cluster model) ---------------------------

    def record_disk_writes(self, ops: int, op_bytes: int) -> None:
        """Count *ops* completed writes of *op_bytes* each."""
        if ops < 0 or op_bytes < 0:
            raise ValueError("write size must be non-negative")
        self.writes_completed += ops
        self.sectors_written += ops * -(-op_bytes // self.SECTOR_BYTES)

    def record_disk_read(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("read size must be non-negative")
        self.reads_completed += 1
        self.sectors_read += -(-num_bytes // self.SECTOR_BYTES)

    def record_net(self, rx_bytes: int = 0, tx_bytes: int = 0) -> None:
        self.net_rx_bytes += rx_bytes
        self.net_tx_bytes += tx_bytes

    def record_task_preemption(self) -> None:
        self.tasks_killed += 1
        self.tasks_preempted += 1

    def record_checksum(self, chunks: int) -> None:
        if chunks < 0:
            raise ValueError("checksum chunk count must be non-negative")
        self.checksum_verifications += chunks

    def record_scrub(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("scrub size must be non-negative")
        self.scrub_bytes += num_bytes

    def record_net_retransmit(self, segments: int, num_bytes: int) -> None:
        if segments < 0 or num_bytes < 0:
            raise ValueError("retransmit counts must be non-negative")
        self.net_retransmits += segments
        self.net_retransmit_bytes += num_bytes

    def record_map_locality(self, tier: str) -> None:
        """Count one map launch by its delay-scheduling tier."""
        if tier == "node":
            self.maps_node_local += 1
        elif tier == "rack":
            self.maps_rack_local += 1
        elif tier == "off":
            self.maps_off_rack += 1
        else:
            raise ValueError(f"locality tier must be node/rack/off, got {tier!r}")

    def record_cross_rack(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("cross-rack size must be non-negative")
        self.bytes_cross_rack += num_bytes

    # -- sampling -----------------------------------------------------------

    def sample(self, time_s: float) -> None:
        """Take a snapshot at simulated time *time_s* and remember it."""
        self._sample_rows.append(
            (
                time_s,
                self.writes_completed,
                self.sectors_written,
                self.reads_completed,
                self.sectors_read,
            )
        )

    @property
    def samples(self) -> list[DiskSample]:
        """Every snapshot taken so far, oldest first (a fresh list)."""
        return [DiskSample(*row) for row in self._sample_rows]

    def disk_writes_per_second(self) -> float:
        """Average write operations per second across the sampled window.

        Requires at least two samples (start and end of the measured run).
        """
        rows = self._sample_rows
        if len(rows) < 2:
            raise ValueError("need at least two samples to compute a rate")
        (first_s, first_writes, *_), (last_s, last_writes, *_) = rows[0], rows[-1]
        elapsed = last_s - first_s
        if elapsed <= 0:
            return 0.0
        return (last_writes - first_writes) / elapsed

    def bytes_written(self) -> int:
        return self.sectors_written * self.SECTOR_BYTES

    # -- proc-style rendering ------------------------------------------------

    def render(self, group: str) -> str:
        """One status line of a :data:`COUNTER_GROUPS` group: the
        ``/proc/diskstats`` and ``/proc/net/dev`` shapes for ``diskstats``
        and ``netdev``, ``<node>: <counter> <value> ...`` for the rest."""
        names = COUNTER_GROUPS[group]
        if group in PROC_LINES:
            return PROC_LINES[group].format_map(vars(self))
        return f"{self.node_name}: " + " ".join(f"{name} {getattr(self, name)}" for name in names)
