"""Tests for disk and network device models."""

import pytest

from repro.cluster.disk import Disk, WRITE_OP_BYTES
from repro.cluster.network import Network, Nic, SEGMENT_BYTES
from repro.perf.procfs import ProcFs


class TestDisk:
    def make(self, **kw):
        return Disk(ProcFs(), **kw)

    def test_read_duration_matches_bandwidth(self):
        d = self.make(read_bw=100e6, seek_s=0.0)
        assert d.read(0.0, 100_000_000) == pytest.approx(1.0)

    def test_write_duration_matches_bandwidth(self):
        d = self.make(write_bw=50e6, seek_s=0.0)
        assert d.write(0.0, 50_000_000) == pytest.approx(1.0)

    def test_seek_added(self):
        d = self.make(read_bw=100e6, seek_s=0.01)
        assert d.read(0.0, 0) == pytest.approx(0.01)

    def test_requests_serialise(self):
        d = self.make(read_bw=100e6, seek_s=0.0)
        first = d.read(0.0, 100_000_000)
        second = d.read(0.0, 100_000_000)
        assert second == pytest.approx(first + 1.0)

    def test_idle_disk_starts_at_now(self):
        d = self.make(read_bw=100e6, seek_s=0.0)
        assert d.read(5.0, 100_000_000) == pytest.approx(6.0)

    def test_write_ops_accounted_in_procfs(self):
        d = self.make()
        d.write(0.0, 3 * WRITE_OP_BYTES)
        assert d.procfs.writes_completed == 3

    def test_sub_buffer_writes_merge(self):
        # Block-layer-style merging: small writes coalesce into one op.
        d = self.make()
        d.write(0.0, WRITE_OP_BYTES // 2)
        assert d.procfs.writes_completed == 0
        d.write(0.0, WRITE_OP_BYTES // 2)
        assert d.procfs.writes_completed == 1

    def test_partial_write_op_carries_over(self):
        d = self.make()
        d.write(0.0, WRITE_OP_BYTES + 1)
        assert d.procfs.writes_completed == 1
        d.write(0.0, WRITE_OP_BYTES - 1)
        assert d.procfs.writes_completed == 2

    WRITE_SIZES = (0, 1, 16_383, 16_384, 16_385, 5 * 64 * 1024)

    @staticmethod
    def loop_write(procfs, pending, num_bytes):
        """The per-op flush loop ``Disk.write`` replaced: the oracle."""
        pending += num_bytes
        while pending >= WRITE_OP_BYTES:
            procfs.record_disk_writes(1, WRITE_OP_BYTES)
            pending -= WRITE_OP_BYTES
        return pending

    @staticmethod
    def counters(procfs):
        return (procfs.writes_completed, procfs.sectors_written)

    @pytest.mark.parametrize("size", WRITE_SIZES)
    def test_flush_matches_loop_per_write(self, size):
        d, oracle = self.make(), ProcFs()
        d.write(0.0, size)
        pending = self.loop_write(oracle, 0, size)
        assert self.counters(d.procfs) == self.counters(oracle)
        assert d._pending_write_bytes == pending

    def test_flush_matches_loop_across_writes(self):
        d, oracle, pending = self.make(), ProcFs(), 0
        for size in self.WRITE_SIZES + self.WRITE_SIZES[::-1]:
            d.write(0.0, size)
            pending = self.loop_write(oracle, pending, size)
            assert self.counters(d.procfs) == self.counters(oracle)
            assert d._pending_write_bytes == pending
        # 16 384-byte ops: 1 + 1 + 1 + 20 going up, 20 + 1 + 1 + 1 coming
        # down (the carried remainders never reach a 47th)
        assert oracle.writes_completed == 46

    def test_read_bytes_accounted(self):
        d = self.make()
        d.read(0.0, 1024)
        assert d.procfs.reads_completed == 1
        assert d.procfs.sectors_read == 2

    def test_rejects_negative_io(self):
        d = self.make()
        with pytest.raises(ValueError):
            d.read(0.0, -1)
        with pytest.raises(ValueError):
            d.write(0.0, -1)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Disk(ProcFs(), read_bw=0)
        with pytest.raises(ValueError):
            Disk(ProcFs(), seek_s=-1)

    def test_reset(self):
        d = self.make()
        d.read(0.0, 1 << 20)
        d.reset()
        assert d.busy_until == 0.0


class TestNetwork:
    def make_pair(self, bw=125e6):
        a, b = Nic(ProcFs("a"), bw), Nic(ProcFs("b"), bw)
        return a, b, Network(latency_s=0.0)

    def test_transfer_time_matches_bandwidth(self):
        a, b, net = self.make_pair(bw=125e6)
        assert net.transfer(0.0, a, b, 125_000_000) == pytest.approx(1.0)

    def test_latency_added(self):
        a, b, _ = self.make_pair()
        net = Network(latency_s=0.5)
        assert net.transfer(0.0, a, b, 0) == pytest.approx(0.5)

    def test_slowest_nic_limits(self):
        a = Nic(ProcFs("a"), 125e6)
        b = Nic(ProcFs("b"), 12.5e6)
        net = Network(latency_s=0.0)
        assert net.transfer(0.0, a, b, 12_500_000) == pytest.approx(1.0)

    def test_sender_transfers_serialise(self):
        a, b, net = self.make_pair()
        c = Nic(ProcFs("c"), 125e6)
        t1 = net.transfer(0.0, a, b, 125_000_000)
        t2 = net.transfer(0.0, a, c, 125_000_000)
        assert t2 == pytest.approx(t1 + 1.0)

    def test_distinct_pairs_parallel(self):
        a, b, net = self.make_pair()
        c, d = Nic(ProcFs("c"), 125e6), Nic(ProcFs("d"), 125e6)
        t1 = net.transfer(0.0, a, b, 125_000_000)
        t2 = net.transfer(0.0, c, d, 125_000_000)
        assert t1 == pytest.approx(t2)

    def test_rejects_self_transfer(self):
        a, _, net = self.make_pair()
        with pytest.raises(ValueError):
            net.transfer(0.0, a, a, 10)

    def test_procfs_accounting(self):
        a, b, net = self.make_pair()
        net.transfer(0.0, a, b, 1000)
        assert a.procfs.net_tx_bytes == 1000
        assert b.procfs.net_rx_bytes == 1000

    def test_traffic_counters(self):
        a, b, net = self.make_pair()
        net.transfer(0.0, a, b, 1000)
        net.transfer(0.0, a, b, 500)
        assert net.transfers == 2
        assert net.bytes_moved == 1500


class TestOversubscribedFabric:
    def make_four(self, fabric):
        nics = [Nic(ProcFs(f"n{i}"), 125e6) for i in range(4)]
        return nics, Network(latency_s=0.0, fabric_bandwidth=fabric)

    def test_fabric_serialises_disjoint_pairs(self):
        # Non-blocking: two disjoint transfers run in parallel.
        nics, blocking = self.make_four(fabric=None)
        t1 = blocking.transfer(0.0, nics[0], nics[1], 125_000_000)
        t2 = blocking.transfer(0.0, nics[2], nics[3], 125_000_000)
        assert t1 == pytest.approx(t2)
        # Oversubscribed to one port's worth: they serialise.
        nics, fabric = self.make_four(fabric=125e6)
        t1 = fabric.transfer(0.0, nics[0], nics[1], 125_000_000)
        t2 = fabric.transfer(0.0, nics[2], nics[3], 125_000_000)
        assert t2 == pytest.approx(t1 + 1.0)

    def test_fabric_slower_than_nic_limits_single_transfer(self):
        nics, net = self.make_four(fabric=12.5e6)
        done = net.transfer(0.0, nics[0], nics[1], 12_500_000)
        assert done == pytest.approx(1.0)

    def test_fast_fabric_behaves_like_non_blocking(self):
        nics, net = self.make_four(fabric=1e12)
        t1 = net.transfer(0.0, nics[0], nics[1], 125_000_000)
        assert t1 == pytest.approx(1.0, rel=1e-3)

    def test_rejects_nonpositive_fabric(self):
        with pytest.raises(ValueError):
            Network(fabric_bandwidth=0)


class TestNetworkInvariants:
    """Physical invariants every transfer schedule must respect."""

    def make_pair(self, latency=0.0002, fabric=None):
        a, b = Nic(ProcFs("a")), Nic(ProcFs("b"))
        return a, b, Network(latency_s=latency, fabric_bandwidth=fabric)

    @pytest.mark.parametrize("num_bytes", [0, 1, 1000, SEGMENT_BYTES * 3 + 7])
    @pytest.mark.parametrize("now", [0.0, 0.5, 123.456])
    def test_transfer_never_beats_latency(self, now, num_bytes):
        a, b, net = self.make_pair(latency=0.01)
        assert net.transfer(now, a, b, num_bytes) >= now + net.latency_s

    def test_lossy_transfer_never_beats_latency(self):
        a, b, net = self.make_pair(latency=0.01)
        net.configure_loss(loss_rate=0.5, seed=11)
        for i in range(20):
            now = 0.1 * i
            assert net.transfer(now, a, b, 4096) >= now + net.latency_s

    def test_fabric_capped_never_faster_than_uncapped(self):
        # The same transfer schedule through an oversubscribed fabric can
        # only finish later (or equal), never earlier.
        schedule = [(0.0, 0, 1, 10_000_000), (0.0, 2, 3, 20_000_000),
                    (0.1, 0, 3, 5_000_000), (0.2, 2, 1, 30_000_000)]
        for fabric in (200e6, 125e6, 50e6):
            free_nics = [Nic(ProcFs(f"n{i}")) for i in range(4)]
            capped_nics = [Nic(ProcFs(f"n{i}")) for i in range(4)]
            free = Network(latency_s=0.0002)
            capped = Network(latency_s=0.0002, fabric_bandwidth=fabric)
            for now, s, d, size in schedule:
                t_free = free.transfer(now, free_nics[s], free_nics[d], size)
                t_capped = capped.transfer(now, capped_nics[s], capped_nics[d], size)
                assert t_capped >= t_free

    def test_reset_restores_fresh_device_timeline(self):
        a, b, net = self.make_pair()
        net.configure_loss(loss_rate=0.2, seed=5)
        first = [net.transfer(0.0, a, b, 300_000) for _ in range(3)]
        net.reset()
        a.reset()
        b.reset()
        again = [net.transfer(0.0, a, b, 300_000) for _ in range(3)]
        # Identical timeline: busy state, counters *and* the loss rng
        # all return to the fresh-device state.
        assert again == first
        assert net.transfers == 3

    def test_reset_clears_retransmit_counters(self):
        a, b, net = self.make_pair()
        net.configure_loss(loss_rate=0.9, seed=1)
        net.transfer(0.0, a, b, SEGMENT_BYTES * 4)
        assert net.retransmits > 0
        net.reset()
        assert net.retransmits == 0
        assert net.retransmit_bytes == 0
        assert net.bytes_moved == 0


class TestGrayLinks:
    def make_pair(self):
        a, b = Nic(ProcFs("a")), Nic(ProcFs("b"))
        return a, b, Network(latency_s=0.0)

    def test_zero_loss_is_bit_identical_to_unconfigured(self):
        a1, b1, net1 = self.make_pair()
        a2, b2, net2 = self.make_pair()
        net2.configure_loss(loss_rate=0.0, seed=99)
        for size in (0, 1, 1000, SEGMENT_BYTES * 5 + 3):
            assert net2.transfer(0.0, a2, b2, size) == net1.transfer(0.0, a1, b1, size)
        assert net2.retransmits == 0

    def test_loss_is_deterministic_per_seed(self):
        results = []
        for _ in range(2):
            a, b, net = self.make_pair()
            net.configure_loss(loss_rate=0.3, seed=42)
            results.append([net.transfer(0.0, a, b, SEGMENT_BYTES * 8)
                            for _ in range(5)])
        assert results[0] == results[1]

    def test_lossy_link_never_faster_and_charges_wire_bytes(self):
        a1, b1, clean = self.make_pair()
        a2, b2, lossy = self.make_pair()
        lossy.configure_loss(loss_rate=0.4, seed=7)
        size = SEGMENT_BYTES * 16
        t_clean = clean.transfer(0.0, a1, b1, size)
        t_lossy = lossy.transfer(0.0, a2, b2, size)
        assert t_lossy >= t_clean
        # Goodput accounting unchanged; the overhead is tracked separately.
        assert lossy.bytes_moved == size
        assert a2.procfs.net_tx_bytes == size + lossy.retransmit_bytes
        assert b2.procfs.net_rx_bytes == size + lossy.retransmit_bytes
        assert a2.procfs.net_retransmits == lossy.retransmits

    def test_per_link_override_beats_global_rate(self):
        a, b, net = self.make_pair()
        c = Nic(ProcFs("c"))
        net.configure_loss(loss_rate=0.0, link_loss={("a", "b"): 0.9}, seed=3)
        net.transfer(0.0, a, b, SEGMENT_BYTES * 8)
        lossy_retransmits = net.retransmits
        net.transfer(0.0, a, c, SEGMENT_BYTES * 8)
        assert lossy_retransmits > 0
        assert net.retransmits == lossy_retransmits  # clean link added none

    def test_rejects_bad_loss_rates(self):
        _, _, net = self.make_pair()
        with pytest.raises(ValueError):
            net.configure_loss(loss_rate=1.0)
        with pytest.raises(ValueError):
            net.configure_loss(loss_rate=-0.1)
        with pytest.raises(ValueError):
            net.configure_loss(link_loss={("a", "b"): 1.5})
        with pytest.raises(ValueError):
            net.configure_loss(retransmit_timeout_s=-1)
