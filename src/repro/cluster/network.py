"""Network model: 1 GbE NICs behind a non-blocking switch.

The paper's cluster uses 1 Gb ethernet.  We model each node's NIC as a
pair of serialised half-duplex-per-direction channels (TX and RX) and the
switch as non-blocking, so a transfer is limited by the slower of the
sender's TX and the receiver's RX availability — the standard fabric model
for rack-scale Hadoop clusters.

Gray links: production networks drop packets long before they fail
outright.  :meth:`Network.configure_loss` gives every link (or specific
links) a seeded segment-drop probability; a lossy transfer pays a
TCP-like price — the lost segments cross the wire again (charged to both
NICs and the shared fabric) plus a retransmission-timeout stall per loss
— and the retransmits show up in the ``/proc/net`` counters.  With all
loss rates at zero the timing math is bit-identical to the loss-free
path.

Failure domains: with a multi-rack
:class:`~repro.cluster.topology.Topology` and a ``core_bandwidth``, the
switch becomes *two-tier* — per-rack ToR switches (non-blocking, as
before) feeding an oversubscribed core fabric.  Cross-rack transfers
additionally serialise through the source and destination racks' shared
uplinks and the core; rack-local traffic never touches them.  Without a
``core_bandwidth`` the topology is purely observational (cross-rack
bytes are counted, timing is untouched), and without a topology the
model is exactly the pre-topology single switch.
"""

from __future__ import annotations

import random

from repro.cluster.topology import Topology
from repro.perf.procfs import ProcFs

GIGABIT_PER_S = 125e6  # 1 Gb/s in bytes/s

#: TCP-segment granularity of the retransmit model: loss is sampled per
#: segment of this size, and a lost segment is resent whole.
SEGMENT_BYTES = 64 * 1024


class Nic:
    """One node's network interface with separate TX/RX serialisation.

    Fail-slow hardware: a limping NIC (auto-negotiated down to a lower
    rate, a flapping transceiver throttling itself) still moves every
    byte, just slower.  ``slow_factor`` divides the effective bandwidth;
    at the default ``1.0`` the timing math is bit-identical to the
    healthy path.
    """

    def __init__(self, procfs: ProcFs, bandwidth: float = GIGABIT_PER_S) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.procfs = procfs
        self.bandwidth = bandwidth
        #: fail-slow divisor on the link rate (>= 1); 1.0 is healthy.
        self.slow_factor = 1.0
        self.tx_busy_until = 0.0
        self.rx_busy_until = 0.0

    @property
    def effective_bandwidth(self) -> float:
        """The rate transfers actually see (bandwidth / slow_factor)."""
        if self.slow_factor != 1.0:
            return self.bandwidth / self.slow_factor
        return self.bandwidth

    def reset(self) -> None:
        self.tx_busy_until = 0.0
        self.rx_busy_until = 0.0


class Network:
    """Switch connecting NICs; per-transfer latency, optional fabric cap.

    With ``fabric_bandwidth=None`` the switch is non-blocking: a transfer
    is limited only by the two endpoint NICs.  Real rack switches of the
    paper's era were often *oversubscribed* — the aggregate uplink/fabric
    capacity is below the sum of port speeds — which is what collapses
    all-to-all shuffles (Sort) at larger cluster sizes.  Passing a
    ``fabric_bandwidth`` (bytes/s) serialises all cross-node traffic
    through that shared capacity as well.
    """

    def __init__(
        self,
        latency_s: float = 0.0002,
        fabric_bandwidth: float | None = None,
        topology: Topology | None = None,
        core_bandwidth: float | None = None,
    ) -> None:
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        if fabric_bandwidth is not None and fabric_bandwidth <= 0:
            raise ValueError("fabric bandwidth must be positive")
        if core_bandwidth is not None and core_bandwidth <= 0:
            raise ValueError("core bandwidth must be positive")
        self.latency_s = latency_s
        self.fabric_bandwidth = fabric_bandwidth
        #: failure-domain map; cross-rack transfers are classified (and,
        #: with a ``core_bandwidth``, charged) against it.
        self.topology = topology
        #: oversubscribed core capacity shared by all cross-rack traffic
        #: (``None`` = the core never constrains, the pre-topology model).
        self.core_bandwidth = core_bandwidth
        self.fabric_busy_until = 0.0
        self.core_busy_until = 0.0
        #: per-rack ToR uplink occupancy (rack name → busy-until time).
        self.uplink_busy_until: dict[str, float] = {}
        self.transfers = 0
        self.bytes_moved = 0
        #: goodput that crossed rack boundaries (0 without a topology).
        self.cross_rack_bytes = 0
        # Gray-link state: a global segment-loss probability, optional
        # per-(src, dst) overrides, and the seeded rng that samples the
        # drops.  All zero/empty by default — the loss-free fast path.
        self.loss_rate = 0.0
        self.link_loss: dict[tuple[str, str], float] = {}
        self.retransmit_timeout_s = 0.01
        self.retransmits = 0
        self.retransmit_bytes = 0
        self._loss_seed = 0
        self._rng = random.Random(self._loss_seed)

    def configure_loss(
        self,
        loss_rate: float = 0.0,
        link_loss: dict[tuple[str, str], float] | None = None,
        retransmit_timeout_s: float = 0.01,
        seed: int = 0,
    ) -> None:
        """Set the gray-link drop model (and reseed its rng).

        ``loss_rate`` applies to every link; ``link_loss`` maps
        ``(src_node, dst_node)`` pairs to per-link overrides.  Rates must
        be in ``[0, 1)`` — a link that drops everything is a partition,
        which is modelled at the fault-plan level, not here.
        """
        for rate in [loss_rate, *(link_loss or {}).values()]:
            if not 0.0 <= rate < 1.0:
                raise ValueError("loss rates must be in [0, 1)")
        if retransmit_timeout_s < 0:
            raise ValueError("retransmit timeout must be non-negative")
        self.loss_rate = loss_rate
        self.link_loss = dict(link_loss or {})
        self.retransmit_timeout_s = retransmit_timeout_s
        self._loss_seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        """Fresh-fabric timeline: clear busy state, counters and the rng."""
        self.fabric_busy_until = 0.0
        self.core_busy_until = 0.0
        self.uplink_busy_until = {}
        self.transfers = 0
        self.bytes_moved = 0
        self.cross_rack_bytes = 0
        self.retransmits = 0
        self.retransmit_bytes = 0
        self._rng = random.Random(self._loss_seed)

    # -- checkpoint support (the cluster snapshots the loss rng too) --------

    def rng_state(self) -> tuple:
        return self._rng.getstate()

    def set_rng_state(self, state: tuple) -> None:
        self._rng.setstate(state)

    def _loss_for(self, src: Nic, dst: Nic) -> float:
        key = (src.procfs.node_name, dst.procfs.node_name)
        return self.link_loss.get(key, self.loss_rate)

    def transfer(self, now: float, src: Nic, dst: Nic, num_bytes: int) -> float:
        """Move *num_bytes* from *src* to *dst* starting at *now*.

        Returns the completion time.  Transfers between a node and itself
        should not go through the network (the caller checks locality).
        On a lossy link every dropped segment is resent (possibly more
        than once — drops are sampled per transmission) and each loss
        stalls the stream for one retransmission timeout; the resent
        bytes occupy the NICs and fabric like any other traffic.
        ``bytes_moved`` stays goodput; the wire overhead is tracked in
        ``retransmit_bytes`` and the per-node ``/proc`` counters.
        """
        if num_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        if src is dst:
            raise ValueError("local transfers do not use the network")
        # no per-link overrides: every link has the global rate
        loss = self._loss_for(src, dst) if self.link_loss else self.loss_rate
        extra_bytes = 0
        lost_segments = 0
        if loss > 0.0 and num_bytes > 0:
            remaining = num_bytes
            while remaining > 0:
                segment = min(SEGMENT_BYTES, remaining)
                while self._rng.random() < loss:
                    lost_segments += 1
                    extra_bytes += segment
                remaining -= segment
        wire_bytes = num_bytes + extra_bytes
        stall = lost_segments * self.retransmit_timeout_s
        src_rack, dst_rack = self._racks_for(src, dst)
        cross_rack = src_rack is not None and src_rack != dst_rack
        start = max(now, src.tx_busy_until, dst.rx_busy_until)
        rate = min(src.effective_bandwidth, dst.effective_bandwidth)
        if cross_rack and self.core_bandwidth is not None:
            # Two-tier fabric: a cross-rack transfer also serialises
            # through both racks' ToR uplinks and the oversubscribed
            # core they share.  Rack-local traffic never reaches here.
            start = max(
                start,
                self.core_busy_until,
                self.uplink_busy_until.get(src_rack, 0.0),
                self.uplink_busy_until.get(dst_rack, 0.0),
            )
            done = (
                start
                + self.latency_s
                + wire_bytes / min(rate, self.core_bandwidth)
                + stall
            )
            occupied = start + wire_bytes / self.core_bandwidth
            self.core_busy_until = occupied
            self.uplink_busy_until[src_rack] = occupied
            self.uplink_busy_until[dst_rack] = occupied
        elif self.fabric_bandwidth is not None:
            # Shared fabric: the transfer also occupies the switch core.
            start = max(start, self.fabric_busy_until)
            done = start + self.latency_s + wire_bytes / min(rate, self.fabric_bandwidth) + stall
            self.fabric_busy_until = start + wire_bytes / self.fabric_bandwidth
        else:
            done = start + self.latency_s + wire_bytes / rate + stall
        src.tx_busy_until = done
        dst.rx_busy_until = done
        src.procfs.record_net(tx_bytes=wire_bytes)
        dst.procfs.record_net(rx_bytes=wire_bytes)
        if cross_rack:
            # Observational even without a core_bandwidth: counting
            # cross-rack traffic never moves the timing math.
            self.cross_rack_bytes += num_bytes
            src.procfs.record_cross_rack(wire_bytes)
            dst.procfs.record_cross_rack(wire_bytes)
        if lost_segments:
            src.procfs.record_net_retransmit(lost_segments, extra_bytes)
            self.retransmits += lost_segments
            self.retransmit_bytes += extra_bytes
        self.transfers += 1
        self.bytes_moved += num_bytes
        return done

    def _racks_for(self, src: Nic, dst: Nic) -> tuple[str | None, str | None]:
        """Rack names of both endpoints, or ``(None, None)`` when the
        topology is absent, flat, or does not know an endpoint (e.g. the
        master) — all cases where rack accounting must stay inert."""
        if self.topology is None or self.topology.is_flat:
            return None, None
        src_name = src.procfs.node_name
        dst_name = dst.procfs.node_name
        if not (self.topology.has_node(src_name) and self.topology.has_node(dst_name)):
            return None, None
        return self.topology.rack_of(src_name), self.topology.rack_of(dst_name)
