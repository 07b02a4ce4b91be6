"""Disk device model.

A disk is a bandwidth-limited, serialised resource: requests complete in
FIFO order at the device's sustained rate, and every completed operation is
recorded into the node's simulated ``/proc`` so the Figure 5 analysis can
sample write rates exactly like the paper's OS-level collector.

Fail-slow hardware: a *limping* disk (dying spindle remapping sectors,
firmware retry storms) still completes every request, just slower.
Setting ``slow_factor`` above 1 stretches each operation's service time
by that multiplier; at the default ``1.0`` the timing math is
bit-identical to the healthy path.
"""

from __future__ import annotations

from repro.perf.procfs import ProcFs

#: Bytes written per physical write operation (one merged request); used
#: to convert logical writes into operation counts for /proc accounting.
WRITE_OP_BYTES = 16 * 1024


class Disk:
    """One SATA-era disk: ~100 MB/s sequential, FIFO service."""

    def __init__(
        self,
        procfs: ProcFs,
        read_bw: float = 110e6,
        write_bw: float = 95e6,
        seek_s: float = 0.004,
    ) -> None:
        if read_bw <= 0 or write_bw <= 0:
            raise ValueError("disk bandwidth must be positive")
        if seek_s < 0:
            raise ValueError("seek time must be non-negative")
        self.procfs = procfs
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.seek_s = seek_s
        #: fail-slow multiplier on every operation's service time (>= 1);
        #: 1.0 is a healthy disk and charges bit-identical durations.
        self.slow_factor = 1.0
        self.busy_until = 0.0
        # Sub-buffer writes accumulate until a 16 KB request is issued,
        # like the block layer merging adjacent small writes.
        self._pending_write_bytes = 0

    def read(self, now: float, num_bytes: int) -> float:
        """Issue a read at time *now*; return its completion time."""
        if num_bytes < 0:
            raise ValueError("read size must be non-negative")
        start = max(now, self.busy_until)
        duration = self.seek_s + num_bytes / self.read_bw
        if self.slow_factor != 1.0:
            duration *= self.slow_factor
        self.busy_until = start + duration
        self.procfs.record_disk_read(num_bytes)
        return self.busy_until

    def write(self, now: float, num_bytes: int) -> float:
        """Issue a write at time *now*; return its completion time.

        The write is accounted as one ``/proc`` operation per flushed
        :data:`WRITE_OP_BYTES` buffer, all of one write's flushes in one
        step; sub-buffer writes merge with neighbours (as the block layer
        does), so the op count a ``/proc/diskstats`` sampler sees is
        proportional to bytes written.
        """
        if num_bytes < 0:
            raise ValueError("write size must be non-negative")
        start = max(now, self.busy_until)
        duration = self.seek_s + num_bytes / self.write_bw
        if self.slow_factor != 1.0:
            duration *= self.slow_factor
        self.busy_until = start + duration
        pending = self._pending_write_bytes + num_bytes
        if pending >= WRITE_OP_BYTES:
            ops, pending = divmod(pending, WRITE_OP_BYTES)
            self.procfs.record_disk_writes(ops, WRITE_OP_BYTES)
        self._pending_write_bytes = pending
        return self.busy_until

    def reset(self) -> None:
        self.busy_until = 0.0
        # A fresh device has no half-merged request sitting in the block
        # layer; leaking it across runs would skew the next run's merged
        # write-op accounting.
        self._pending_write_bytes = 0
