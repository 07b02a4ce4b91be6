"""Cluster node: CPU slots + disk + NIC + simulated /proc.

Matches the paper's slave configuration: each slave runs 24 map task slots
and 12 reduce task slots (Section III-B).  CPU work is expressed in
"normalised CPU seconds"; a node executes one task's CPU work per slot
concurrently (the dual hex-core Xeons give the cluster far more hardware
threads than a slot uses, so slots — not cores — are the concurrency
limit, as in the real deployment).
"""

from __future__ import annotations

from repro.cluster.disk import Disk
from repro.cluster.network import Nic
from repro.perf.procfs import ProcFs


class Node:
    """One machine in the cluster."""

    def __init__(
        self,
        name: str,
        map_slots: int = 24,
        reduce_slots: int = 12,
        cpu_speed: float = 1.0,
        disk_read_bw: float = 110e6,
        disk_write_bw: float = 95e6,
        nic_bandwidth: float = 125e6,
    ) -> None:
        if map_slots <= 0 or reduce_slots <= 0:
            raise ValueError("slot counts must be positive")
        if cpu_speed <= 0:
            raise ValueError("cpu speed must be positive")
        self.name = name
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.cpu_speed = cpu_speed
        #: fail-slow multiplier on CPU time (thermal throttling, a core
        #: pinned at its lowest P-state); 1.0 is a healthy node and
        #: charges bit-identical durations.
        self.slow_factor = 1.0
        self.procfs = ProcFs(node_name=name)
        self.disk = Disk(self.procfs, read_bw=disk_read_bw, write_bw=disk_write_bw)
        self.nic = Nic(self.procfs, bandwidth=nic_bandwidth)
        #: next-free times for each map/reduce slot (discrete-event state)
        self.map_slot_free = [0.0] * map_slots
        self.reduce_slot_free = [0.0] * reduce_slots

    def cpu_time(self, cpu_seconds: float) -> float:
        """Wall time to execute *cpu_seconds* of normalised work."""
        if cpu_seconds < 0:
            raise ValueError("cpu work must be non-negative")
        wall = cpu_seconds / self.cpu_speed
        if self.slow_factor != 1.0:
            wall *= self.slow_factor
        return wall

    # ``min`` keeps the first of equal values and ``index`` finds the
    # first equal entry, so both return the first minimal slot (the old
    # per-slot key scan's answer) without a Python call per slot.

    def earliest_map_slot(self) -> int:
        free = self.map_slot_free
        return free.index(min(free))

    def earliest_reduce_slot(self) -> int:
        free = self.reduce_slot_free
        return free.index(min(free))

    def reset(self) -> None:
        """Clear all timing state (between jobs/experiments)."""
        self.map_slot_free = [0.0] * self.map_slots
        self.reduce_slot_free = [0.0] * self.reduce_slots
        self.disk.reset()
        self.nic.reset()
        self.procfs = ProcFs(node_name=self.name)
        self.disk.procfs = self.procfs
        self.nic.procfs = self.procfs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} map_slots={self.map_slots} reduce_slots={self.reduce_slots}>"
