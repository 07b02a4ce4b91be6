"""Tests for the perf-style measurement layer."""

import pytest

from repro.perf import EVENT_CATALOG, PerfSession, ProcFs, lookup_event
from repro.perf.procfs import DiskSample
from repro.uarch.config import scaled_machine
from repro.uarch.pipeline import simulate
from repro.uarch.trace import TraceSpec


class TestEventCatalog:
    def test_paper_scale_event_count(self):
        # "We collect about 20 events" (§III-D).
        assert len(EVENT_CATALOG) >= 20

    def test_core_events_present(self):
        for name in (
            "cycles",
            "instructions",
            "branch-misses",
            "L1-icache-load-misses",
            "l2_rqsts.miss",
            "llc.misses",
            "itlb_misses.walk_completed",
            "dtlb_misses.walk_completed",
            "resource_stalls.rs_full",
            "resource_stalls.rob_full",
            "rat_stalls.any",
        ):
            assert name in EVENT_CATALOG

    def test_event_codes_formatted(self):
        event = lookup_event("l2_rqsts.miss")
        assert event.code == "raa24"

    def test_lookup_unknown_event(self):
        with pytest.raises(KeyError):
            lookup_event("cpu_clk_unhalted.fantasy")

    def test_descriptions_nonempty(self):
        assert all(e.description for e in EVENT_CATALOG.values())


class TestPerfSession:
    MACHINE = scaled_machine(8)

    def reading(self):
        return PerfSession().measure_result(simulate(TraceSpec("t", 20_000), self.MACHINE))

    def test_measure_reads_all_events(self):
        reading = self.reading()
        assert list(reading.counts) == list(EVENT_CATALOG)
        assert reading.counts["instructions"] > 0
        assert reading.counts["cycles"] > 0

    def test_per_kilo_instructions(self):
        reading = self.reading()
        rate = reading.per_kilo_instructions("l2_rqsts.miss")
        assert rate == pytest.approx(
            1000 * reading["l2_rqsts.miss"] / reading["instructions"]
        )

    def test_ratio(self):
        reading = self.reading()
        ipc = reading.ratio("instructions", "cycles")
        assert 0 < ipc <= 4.0

    def test_consistency_with_result(self):
        reading = self.reading()
        assert reading.counts["cycles"] == reading.result.cycles
        assert reading.counts["instructions"] == reading.result.instructions


class TestProcFs:
    def test_disk_write_recording(self):
        p = ProcFs()
        p.record_disk_writes(1, 1024)
        assert p.writes_completed == 1
        assert p.sectors_written == 2
        p.record_disk_writes(3, 1000)  # each op rounds up to whole sectors
        assert p.writes_completed == 4
        assert p.sectors_written == 2 + 3 * 2
        p.record_disk_writes(0, 4096)
        assert (p.writes_completed, p.sectors_written) == (4, 8)

    def test_rate_from_samples(self):
        p = ProcFs()
        p.sample(0.0)
        for _ in range(10):
            p.record_disk_writes(1, 512)
        p.sample(2.0)
        assert p.disk_writes_per_second() == pytest.approx(5.0)

    def test_rate_needs_two_samples(self):
        p = ProcFs()
        p.sample(0.0)
        with pytest.raises(ValueError):
            p.disk_writes_per_second()

    def test_zero_elapsed_rate(self):
        p = ProcFs()
        p.sample(1.0)
        p.sample(1.0)
        assert p.disk_writes_per_second() == 0.0

    def test_samples_view_equals_snapshots_taken_in_order(self):
        p = ProcFs()
        expected = []
        for step, size in enumerate((0, 512, 1000, 4096, 0, 1)):
            p.record_disk_writes(1, size)
            if step % 2:
                p.record_disk_read(size * 3)
            time_s = 0.5 * step
            p.sample(time_s)
            # the counters as they stand at the sample instant
            expected.append(
                DiskSample(
                    time_s=time_s,
                    writes_completed=p.writes_completed,
                    sectors_written=p.sectors_written,
                    reads_completed=p.reads_completed,
                    sectors_read=p.sectors_read,
                )
            )
        p.record_disk_writes(1, 8192)  # after the last sample: not in any
        assert p.samples == expected
        assert all(type(s) is DiskSample for s in p.samples)
        assert p.disk_writes_per_second() == pytest.approx(5 / 2.5)

    def test_samples_is_a_read_only_copy(self):
        p = ProcFs()
        assert p.sample(0.0) is None
        view = p.samples
        view.clear()
        assert len(p.samples) == 1
        with pytest.raises(AttributeError):
            p.samples = []

    def test_rejects_negative_io(self):
        p = ProcFs()
        with pytest.raises(ValueError):
            p.record_disk_writes(1, -1)
        with pytest.raises(ValueError):
            p.record_disk_writes(-1, 512)
        with pytest.raises(ValueError):
            p.record_disk_read(-5)
        assert (p.writes_completed, p.sectors_written) == (0, 0)

    def test_bytes_written(self):
        p = ProcFs()
        p.record_disk_writes(1, 1000)
        assert p.bytes_written() == 1024  # rounded up to sectors

    def test_render_diskstats_shape(self):
        p = ProcFs()
        p.record_disk_writes(1, 512)
        p.record_disk_read(512)
        line = p.render("diskstats")
        assert "sda" in line
        fields = line.split()
        assert fields[3] == "1"  # reads completed

    def test_resilience_counters(self):
        p = ProcFs(node_name="slave1")
        p.tasks_failed += 1
        p.tasks_failed += 1
        p.tasks_killed += 1
        p.tasks_speculative += 1
        p.fetch_failures += 1
        assert p.tasks_failed == 2
        assert p.tasks_killed == 1
        assert p.tasks_speculative == 1
        assert p.fetch_failures == 1
        line = p.render("resilience")
        assert line.startswith("slave1:")
        assert "tasks_failed 2" in line
        assert "tasks_killed 1" in line
        assert "fetch_failures 1" in line

    def test_render_netdev_shape(self):
        p = ProcFs()
        p.record_net(rx_bytes=100, tx_bytes=50)
        line = p.render("netdev")
        assert line.strip().startswith("eth0:")
        assert " 100 " in line and " 50 " in line
