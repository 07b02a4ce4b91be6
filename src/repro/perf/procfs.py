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


class ProcFs:
    """Accumulates device counters and renders proc-style views.

    The cluster simulation calls :meth:`record_disk_writes` /
    :meth:`record_disk_read` / :meth:`record_net` as it executes; analysis
    code calls :meth:`sample` with the simulated time and derives rates
    from successive samples, exactly like a userspace sampler reading
    ``/proc/diskstats``.
    """

    SECTOR_BYTES = 512

    def __init__(self, node_name: str = "node") -> None:
        self.node_name = node_name
        self.writes_completed = 0
        self.sectors_written = 0
        self.reads_completed = 0
        self.sectors_read = 0
        self.net_rx_bytes = 0
        self.net_tx_bytes = 0
        # Resilience counters (the tasktracker's view of Hadoop's fault
        # handling): failed/killed/speculative attempts hosted by this
        # node, plus shuffle fetches that died on this node's reducers.
        self.tasks_failed = 0
        self.tasks_killed = 0
        # Kills issued by a preempting scheduler (fair-share reclaim)
        # rather than by fault recovery; also counted in tasks_killed.
        self.tasks_preempted = 0
        self.tasks_speculative = 0
        self.fetch_failures = 0
        # Control-plane counters (the master's view): namenode edit-log
        # appends, SecondaryNameNode checkpoint merges, and jobtracker
        # restarts after a master crash.
        self.journal_edits = 0
        self.journal_checkpoints = 0
        self.master_restarts = 0
        # Data-integrity counters (the HDFS client/datanode view): CRC
        # chunks verified on read, verifications that failed (bit-rot or
        # in-flight corruption), bad-block reports filed with the
        # namenode, and DataBlockScanner scrub traffic.
        self.checksum_verifications = 0
        self.checksum_failures = 0
        self.bad_block_reports = 0
        self.scrub_bytes = 0
        # Gray-network counters (the NIC's TCP view): segments
        # retransmitted on lossy links and the wire bytes they cost.
        self.net_retransmits = 0
        self.net_retransmit_bytes = 0
        # Overload/fail-slow counters (the service frontend's and
        # jobtracker's degradation view): requests refused by admission
        # control or load shedding, requests killed at their deadline,
        # and speculative races won against a limping host.
        self.requests_shed = 0
        self.deadline_kills = 0
        self.speculative_wins = 0
        # Workflow counters (the DAG orchestrator's view, kept on the
        # master): workflows entering/leaving the system, stage-level
        # retries (distinct from task-attempt retries), minimal-subgraph
        # re-executions after total output loss, and stages cancelled by
        # an upstream permanent failure.
        self.workflows_submitted = 0
        self.workflows_completed = 0
        self.stage_retries = 0
        self.lineage_recomputes = 0
        self.stages_cancelled = 0
        # Warehouse counters (the HiveServer's view, kept on the master):
        # recurring statements served from the query/result
        # materialization cache vs compiled and executed cold.
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        # Topology/locality counters (the jobtracker's delay-scheduling
        # view of this tasktracker): map tasks launched here by locality
        # tier, and wire bytes this node moved across a rack boundary.
        # Pure observation — recording never touches the simulated clock.
        self.maps_node_local = 0
        self.maps_rack_local = 0
        self.maps_off_rack = 0
        self.bytes_cross_rack = 0
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

    def record_task_failure(self) -> None:
        self.tasks_failed += 1

    def record_task_kill(self) -> None:
        self.tasks_killed += 1

    def record_task_preemption(self) -> None:
        self.tasks_killed += 1
        self.tasks_preempted += 1

    def record_speculative(self) -> None:
        self.tasks_speculative += 1

    def record_fetch_failure(self) -> None:
        self.fetch_failures += 1

    def record_journal_edit(self) -> None:
        self.journal_edits += 1

    def record_journal_checkpoint(self) -> None:
        self.journal_checkpoints += 1

    def record_master_restart(self) -> None:
        self.master_restarts += 1

    def record_checksum(self, chunks: int) -> None:
        if chunks < 0:
            raise ValueError("checksum chunk count must be non-negative")
        self.checksum_verifications += chunks

    def record_checksum_failure(self) -> None:
        self.checksum_failures += 1

    def record_bad_block_report(self) -> None:
        self.bad_block_reports += 1

    def record_scrub(self, num_bytes: int) -> None:
        if num_bytes < 0:
            raise ValueError("scrub size must be non-negative")
        self.scrub_bytes += num_bytes

    def record_net_retransmit(self, segments: int, num_bytes: int) -> None:
        if segments < 0 or num_bytes < 0:
            raise ValueError("retransmit counts must be non-negative")
        self.net_retransmits += segments
        self.net_retransmit_bytes += num_bytes

    def record_request_shed(self) -> None:
        self.requests_shed += 1

    def record_deadline_kill(self) -> None:
        self.deadline_kills += 1

    def record_speculative_win(self) -> None:
        self.speculative_wins += 1

    def record_workflow_submitted(self) -> None:
        self.workflows_submitted += 1

    def record_workflow_completed(self) -> None:
        self.workflows_completed += 1

    def record_stage_retry(self) -> None:
        self.stage_retries += 1

    def record_lineage_recompute(self) -> None:
        self.lineage_recomputes += 1

    def record_stage_cancelled(self) -> None:
        self.stages_cancelled += 1

    def record_result_cache_hit(self) -> None:
        self.result_cache_hits += 1

    def record_result_cache_miss(self) -> None:
        self.result_cache_misses += 1

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

    def render_diskstats(self) -> str:
        """A ``/proc/diskstats``-flavoured line for this node's disk."""
        return (
            f"   8       0 sda {self.reads_completed} 0 {self.sectors_read} 0 "
            f"{self.writes_completed} 0 {self.sectors_written} 0 0 0 0"
        )

    def render_netdev(self) -> str:
        """A ``/proc/net/dev``-flavoured line for this node's NIC."""
        return (
            f"  eth0: {self.net_rx_bytes} 0 0 0 0 0 0 0 "
            f"{self.net_tx_bytes} 0 0 0 0 0 0 0"
        )

    def render_resilience(self) -> str:
        """A tasktracker-status-flavoured line of the resilience counters."""
        return (
            f"{self.node_name}: tasks_failed {self.tasks_failed} "
            f"tasks_killed {self.tasks_killed} "
            f"tasks_preempted {self.tasks_preempted} "
            f"tasks_speculative {self.tasks_speculative} "
            f"fetch_failures {self.fetch_failures}"
        )

    def render_integrity(self) -> str:
        """A datanode-status line of the integrity/gray-network counters."""
        return (
            f"{self.node_name}: checksum_verifications {self.checksum_verifications} "
            f"checksum_failures {self.checksum_failures} "
            f"bad_block_reports {self.bad_block_reports} "
            f"scrub_bytes {self.scrub_bytes} "
            f"net_retransmits {self.net_retransmits} "
            f"net_retransmit_bytes {self.net_retransmit_bytes}"
        )

    def render_overload(self) -> str:
        """A frontend-status line of the overload/fail-slow counters."""
        return (
            f"{self.node_name}: requests_shed {self.requests_shed} "
            f"deadline_kills {self.deadline_kills} "
            f"speculative_wins {self.speculative_wins}"
        )

    def render_control_plane(self) -> str:
        """A namenode/jobtracker-status line of the control-plane counters."""
        return (
            f"{self.node_name}: journal_edits {self.journal_edits} "
            f"journal_checkpoints {self.journal_checkpoints} "
            f"master_restarts {self.master_restarts}"
        )

    def render_topology(self) -> str:
        """A jobtracker-status line of the locality/failure-domain counters."""
        return (
            f"{self.node_name}: maps_node_local {self.maps_node_local} "
            f"maps_rack_local {self.maps_rack_local} "
            f"maps_off_rack {self.maps_off_rack} "
            f"bytes_cross_rack {self.bytes_cross_rack}"
        )

    def render_warehouse(self) -> str:
        """A HiveServer-status line of the materialization-cache counters."""
        return (
            f"{self.node_name}: result_cache_hits {self.result_cache_hits} "
            f"result_cache_misses {self.result_cache_misses}"
        )

    def render_workflow(self) -> str:
        """An orchestrator-status line of the DAG workflow counters."""
        return (
            f"{self.node_name}: workflows_submitted {self.workflows_submitted} "
            f"workflows_completed {self.workflows_completed} "
            f"stage_retries {self.stage_retries} "
            f"lineage_recomputes {self.lineage_recomputes} "
            f"stages_cancelled {self.stages_cancelled}"
        )
