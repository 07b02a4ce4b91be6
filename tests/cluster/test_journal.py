"""Tests for control-plane journaling: edit log, fsimage, checkpoint/restore.

The load-bearing property is the recovery contract: ``replay(fsimage,
edits)`` must reproduce the live namespace *exactly* — files, block
placement, placement cursor, dead-node set — after any prefix of an
arbitrary mutation schedule, including mid-sequence checkpoint rolls.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import JobWork, MapWork, ReduceWork, make_cluster
from repro.cluster.hdfs import Hdfs
from repro.cluster.journal import (
    EditLog,
    EditOp,
    NameNodeJournal,
    JobHistoryJournal,
    replay,
    restore_into,
    snapshot,
)
from repro.cluster.node import Node
from repro.mapreduce.engine import LocalEngine


def make_hdfs(n_nodes=4, block_size=1024, replication=3):
    nodes = [Node(f"n{i}") for i in range(n_nodes)]
    return Hdfs(nodes, block_size=block_size, replication=replication)


def namespace_state(hdfs: Hdfs) -> tuple:
    """Everything the recovery contract promises to reproduce."""
    return (
        {name: tuple(f.blocks) for name, f in hdfs.files.items()},
        hdfs._placement_cursor,
        hdfs.dead_nodes,
        hdfs.total_stored_bytes(),
        hdfs.under_replicated_blocks,
    )


class TestEditLog:
    def test_append_assigns_monotonic_txids(self):
        log = EditLog()
        a = log.append("create_file", "f", 100)
        b = log.append("delete_file", "f")
        assert (a.txid, b.txid) == (1, 2)
        assert log.last_txid == 2
        assert len(log) == 2

    def test_since_and_truncate(self):
        log = EditLog()
        for i in range(5):
            log.append("create_file", f"f{i}", 10)
        assert [op.txid for op in log.since(3)] == [4, 5]
        log.truncate_through(3)
        assert [op.txid for op in log.ops] == [4, 5]
        # txids keep counting after truncation — they are never reused.
        assert log.append("delete_file", "f0").txid == 6

    def test_rejects_unknown_ops_and_bad_txids(self):
        with pytest.raises(ValueError):
            EditOp(1, "format_namenode", ())
        with pytest.raises(ValueError):
            EditOp(0, "create_file", ("f", 10))
        with pytest.raises(ValueError):
            EditLog(first_txid=0)


class TestSnapshotRestore:
    def test_roundtrip_restores_namespace_exactly(self):
        hdfs = make_hdfs(block_size=64)
        hdfs.create_file("a", 64 * 3)
        hdfs.fail_node("n1")
        image = snapshot(hdfs, txid=7)
        before = namespace_state(hdfs)

        hdfs.create_file("b", 64 * 5)
        hdfs.delete_file("a")
        hdfs.fail_node("n2")
        assert namespace_state(hdfs) != before

        restore_into(hdfs, image)
        assert namespace_state(hdfs) == before
        assert image.txid == 7
        assert image.file_names() == ("a",)

    def test_restore_rejects_foreign_fsimage(self):
        image = snapshot(make_hdfs(n_nodes=6))
        with pytest.raises(ValueError):
            restore_into(make_hdfs(n_nodes=4), image)

    def test_restore_does_not_write_the_edit_log(self):
        hdfs = make_hdfs(block_size=64)
        journal = NameNodeJournal(hdfs)
        hdfs.create_file("a", 64)
        edits_before = len(journal.edits)
        restore_into(hdfs, journal.fsimage)
        assert len(journal.edits) == edits_before


def apply_schedule(hdfs: Hdfs, schedule, created: int = 0) -> int:
    """Drive a mutation schedule through the real namespace API.

    Returns the running count of created files so prefixes can be applied
    incrementally without colliding on file names.
    """
    for kind, arg in schedule:
        if kind == "create":
            hdfs.create_file(f"f{created}", arg)
            created += 1
        elif kind == "delete":
            names = sorted(hdfs.files)
            if names:
                hdfs.delete_file(names[arg % len(names)])
        elif kind == "fail":
            live = hdfs.live_node_names()
            if len(live) > 1:  # keep at least one datanode alive
                hdfs.fail_node(live[arg % len(live)])
        elif kind == "rereplicate":
            under = [
                block
                for hfile in hdfs.files.values()
                for block in hfile.blocks
                if 0 < len(block.replicas) < hdfs.replication
            ]
            if under:
                hdfs.re_replicate_block(under[arg % len(under)])
    return created


schedule_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "delete", "fail", "rereplicate"]),
        st.integers(min_value=0, max_value=2000),
    ),
    min_size=1,
    max_size=24,
)


class TestReplayContract:
    @given(schedule=schedule_strategy)
    @settings(max_examples=60, deadline=None)
    def test_replay_reconstructs_any_schedule_prefix(self, schedule):
        # Property: for every prefix of an arbitrary op schedule, the
        # journal's fsimage + outstanding edits replay to the exact live
        # namespace.  A tiny checkpoint interval forces rolls inside the
        # sequence, so the merge path is exercised too.
        hdfs = make_hdfs(block_size=256)
        journal = NameNodeJournal(hdfs, checkpoint_interval_ops=5)
        created = 0
        for step in schedule:
            created = apply_schedule(hdfs, [step], created)
            recovered = journal.recover()
            assert namespace_state(recovered) == namespace_state(hdfs)

    @given(schedule=schedule_strategy, interval=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_interval_never_changes_recovery(self, schedule, interval):
        live = make_hdfs(block_size=256)
        NameNodeJournal(live, checkpoint_interval_ops=interval)
        apply_schedule(live, schedule)
        recovered = live.journal.recover()
        assert namespace_state(recovered) == namespace_state(live)

    def test_roll_merges_and_truncates(self):
        hdfs = make_hdfs(block_size=64)
        journal = NameNodeJournal(hdfs, checkpoint_interval_ops=3)
        hdfs.create_file("a", 64)
        hdfs.create_file("b", 64)
        assert journal.rolls == 0 and len(journal.edits) == 2
        hdfs.create_file("c", 64)  # third edit triggers the roll
        assert journal.rolls == 1
        assert len(journal.edits) == 0
        assert journal.fsimage.txid == 3
        assert journal.fsimage.file_names() == ("a", "b", "c")
        assert namespace_state(journal.recover()) == namespace_state(hdfs)

    def test_journal_counts_into_procfs(self):
        cluster = make_cluster(4, block_size=1024)
        cluster.hdfs.create_file("f", 4096)
        assert cluster.master.procfs.journal_edits == 1
        assert "journal_edits 1" in cluster.master.procfs.render("control_plane")


def balanced_work(maps=8, reduces=2, slaves=4) -> JobWork:
    return JobWork(
        "job",
        maps=[
            MapWork(1 << 18, 0.2, 1 << 18, preferred_nodes=(f"slave{i % slaves + 1}",))
            for i in range(maps)
        ],
        reduces=[ReduceWork(1 << 19, 0.1, 1 << 18) for _ in range(reduces)],
    )


class TestJournalingIsObservationallyFree:
    def test_timelines_identical_with_and_without_journaling(self):
        # Journaling is pure bookkeeping — it must not perturb the
        # simulated timeline by a single bit.
        runs = {}
        for journaling in (True, False):
            cluster = make_cluster(4, block_size=64 * 1024, journaling=journaling)
            cluster.hdfs.create_file("input", 1 << 20)
            timeline = cluster.run_job(balanced_work())
            runs[journaling] = timeline
        on, off = runs[True], runs[False]
        assert on.start_s == off.start_s
        assert on.map_phase_end_s == off.map_phase_end_s
        assert on.end_s == off.end_s
        assert on.network_bytes == off.network_bytes
        assert on.disk_writes_per_second == off.disk_writes_per_second


class TestClusterCheckpoint:
    def test_restore_then_rerun_is_bit_identical(self):
        cluster = make_cluster(4, block_size=64 * 1024)
        cluster.hdfs.create_file("input", 1 << 20)
        cluster.run_job(balanced_work())
        cp = cluster.checkpoint()

        first = cluster.run_job(balanced_work(maps=6, reduces=3))
        clock_after = cluster.clock
        edits_after = len(cluster.journal.edits)

        cluster.restore(cp)
        assert cluster.clock == cp.clock
        second = cluster.run_job(balanced_work(maps=6, reduces=3))
        assert second.start_s == first.start_s
        assert second.map_phase_end_s == first.map_phase_end_s
        assert second.end_s == first.end_s
        assert second.network_bytes == first.network_bytes
        assert second.disk_writes_per_second == first.disk_writes_per_second
        assert cluster.clock == clock_after
        assert len(cluster.journal.edits) == edits_after

    def test_restore_preserves_object_identity(self):
        cluster = make_cluster(2, block_size=1024)
        hdfs = cluster.hdfs
        slave = cluster.slaves[0]
        cp = cluster.checkpoint()
        cluster.hdfs.create_file("f", 4096)
        cluster.restore(cp)
        assert cluster.hdfs is hdfs
        assert cluster.slaves[0] is slave
        assert "f" not in cluster.hdfs.files

    def test_restore_rejects_foreign_checkpoint(self):
        cp = make_cluster(2).checkpoint()
        with pytest.raises(ValueError):
            make_cluster(4).restore(cp)

    def test_journaling_false_checkpoints_without_journal(self):
        cluster = make_cluster(2, journaling=False)
        assert cluster.journal is None
        cp = cluster.checkpoint()
        assert cp.journal_state is None
        cluster.hdfs.create_file("f", 4096)
        cluster.restore(cp)
        assert "f" not in cluster.hdfs.files


class TestEngineCheckpoint:
    def test_auto_input_names_resume_deterministically(self):
        engine = LocalEngine()
        cluster = make_cluster(2, block_size=1024)
        records = [(i, "x" * 32) for i in range(64)]
        from repro.mapreduce.job import JobConf, MapReduceJob

        job = MapReduceJob(
            mapper=lambda k, v: [(k % 2, 1)],
            reducer=lambda k, vs: [(k, sum(vs))],
            conf=JobConf(name="identity", num_reduces=1),
        )
        cp_engine = engine.checkpoint()
        cp_cluster = cluster.checkpoint()
        first = engine.execute(job, records, cluster=cluster)
        engine.restore(cp_engine)
        cluster.restore(cp_cluster)
        second = engine.execute(job, records, cluster=cluster)
        # Same auto-generated HDFS input name, same placement, same timing.
        assert first.output == second.output
        assert first.timeline.end_s == second.timeline.end_s
        assert sorted(cluster.hdfs.files) == ["auto-input-0"]


class TestJobHistoryJournal:
    def test_records_and_filters_completions(self):
        history = JobHistoryJournal()
        history.record_completion("map", "m_000000", "slave1", 0.0, 1.0)
        history.record_completion("map", "m_000001", "slave2", 0.0, 3.0)
        history.record_completion("reduce", "r_000000", "slave1", 3.0, 4.0)
        done = history.completed_maps_before(2.0)
        assert [e.task_id for e in done] == ["m_000000"]
        assert len(history) == 3
        history.clear()
        assert len(history) == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JobHistoryJournal().record_completion("setup", "t", "n", 0.0, 1.0)
