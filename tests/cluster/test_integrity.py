"""Gray failures: end-to-end data integrity and flaky/partitioned networks.

Two layers of coverage here:

* unit tests for the integrity primitives — per-chunk CRC32 checksums,
  corruption markers, bad-block reporting (journaled, never dropping a
  block's last replica), the DataBlockScanner scrubber, attempt-id
  commit fencing and time-bounded graylisting;
* scenario tests driving real workloads through one gray-failure class
  at a time (at-rest rot → failover + repair, in-flight corruption →
  re-fetch, lossy links → retransmits, a partition → zombie fencing),
  plus observational freedom: with all gray-failure rates zero the
  scheduler matches the stock cluster exactly, including the new
  ``/proc`` counters.

Every class at once on a pinned workload × seed grid — output
bit-identical to the fault-free run, every injected corruption caught,
nothing left rotten — is the ``integrity`` row of the chaos table
(``tests/cluster/test_chaos.py``).
"""

import pytest

from repro.cluster import (
    ChecksumError,
    CommitFence,
    DataBlockScanner,
    FaultPlan,
    FaultyCluster,
    Hdfs,
    NameNodeJournal,
    NodeGraylist,
    RetryPolicy,
    make_cluster,
    replay,
)
from repro.cluster.node import Node
from repro.workloads import workload
from tests.cluster.test_chaos import SEEDS, W3, check, check_matrix, check_reproducible

def make_hdfs(n_nodes=4, block_size=1024, replication=3, **kw):
    nodes = [Node(f"n{i}") for i in range(n_nodes)]
    return nodes, Hdfs(nodes, block_size=block_size, replication=replication, **kw)


# ---------------------------------------------------------------------------
# Checksums and corruption markers
# ---------------------------------------------------------------------------


class TestChecksums:
    def test_checksum_chunk_math(self):
        _, hdfs = make_hdfs(bytes_per_checksum=512)
        assert hdfs.checksum_chunks(0) == 0
        assert hdfs.checksum_chunks(1) == 1
        assert hdfs.checksum_chunks(512) == 1
        assert hdfs.checksum_chunks(513) == 2
        assert hdfs.checksum_chunks(1024 * 1024) == 2048

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            make_hdfs(bytes_per_checksum=0)

    def test_corrupt_then_verify_raises(self):
        _, hdfs = make_hdfs()
        f = hdfs.create_file("f", 3000)
        victim = f.blocks[0].replicas[0]
        assert hdfs.corrupt_replica("f", 0, victim)
        assert hdfs.is_replica_corrupt("f", 0, victim)
        assert hdfs.corrupt_replica_count == 1
        with pytest.raises(ChecksumError) as excinfo:
            hdfs.verify_replica("f", 0, victim)
        assert excinfo.value.file_name == "f"
        assert excinfo.value.index == 0
        assert excinfo.value.node_name == victim

    def test_healthy_replica_verifies_and_counts_chunks(self):
        _, hdfs = make_hdfs(block_size=1024)
        f = hdfs.create_file("f", 1000)
        node = f.blocks[0].replicas[0]
        assert hdfs.verify_replica("f", 0, node) == hdfs.checksum_chunks(1000)

    def test_corrupting_missing_replica_raises(self):
        _, hdfs = make_hdfs()
        hdfs.create_file("f", 100)
        with pytest.raises(ValueError):
            hdfs.corrupt_replica("f", 0, "no-such-node")

    def test_corrupting_twice_is_idempotent(self):
        _, hdfs = make_hdfs()
        f = hdfs.create_file("f", 100)
        victim = f.blocks[0].replicas[0]
        assert hdfs.corrupt_replica("f", 0, victim)
        assert not hdfs.corrupt_replica("f", 0, victim)
        assert hdfs.corrupt_replica_count == 1


class TestBadBlockReporting:
    def test_report_drops_the_rotten_replica(self):
        _, hdfs = make_hdfs(replication=3)
        f = hdfs.create_file("f", 100)
        victim = f.blocks[0].replicas[0]
        hdfs.corrupt_replica("f", 0, victim)
        updated = hdfs.report_bad_block("f", 0, victim)
        assert updated is not None
        assert victim not in updated.replicas
        assert len(updated.replicas) == 2
        assert hdfs.corrupt_replica_count == 0

    def test_never_invalidates_the_last_replica(self):
        # CorruptReplicasMap semantics: a corrupt copy beats no copy.
        _, hdfs = make_hdfs(n_nodes=1, replication=1)
        f = hdfs.create_file("f", 100)
        only = f.blocks[0].replicas[0]
        hdfs.corrupt_replica("f", 0, only)
        assert hdfs.report_bad_block("f", 0, only) is None
        assert hdfs.files["f"].blocks[0].replicas == (only,)
        # The marker survives so a later scrub can still find it.
        assert hdfs.is_replica_corrupt("f", 0, only)

    def test_report_of_unknown_target_is_a_noop(self):
        _, hdfs = make_hdfs()
        hdfs.create_file("f", 100)
        assert hdfs.report_bad_block("ghost", 0, "n0") is None
        assert hdfs.report_bad_block("f", 99, "n0") is None
        assert hdfs.report_bad_block("f", 0, "not-a-holder") is None

    def test_report_is_journaled_and_replays(self):
        nodes, hdfs = make_hdfs(replication=3)
        journal = NameNodeJournal(hdfs)
        f = hdfs.create_file("f", 5000)
        victim = f.blocks[1].replicas[1]
        hdfs.corrupt_replica("f", 1, victim)
        hdfs.report_bad_block("f", 1, victim)
        assert any(op.op == "report_bad_block" for op in journal.edits.ops)
        recovered = replay(journal.fsimage, journal.edits.ops, nodes)
        assert recovered.files["f"].blocks[1].replicas == \
            hdfs.files["f"].blocks[1].replicas

    def test_delete_file_clears_markers(self):
        _, hdfs = make_hdfs()
        f = hdfs.create_file("f", 100)
        hdfs.corrupt_replica("f", 0, f.blocks[0].replicas[0])
        hdfs.delete_file("f")
        assert hdfs.corrupt_replica_count == 0


class TestDataBlockScanner:
    def test_scan_finds_rot_and_charges_the_disk(self):
        cluster = make_cluster(4, block_size=1024)
        hdfs = cluster.hdfs
        f = hdfs.create_file("f", 4000)
        victim_node = f.blocks[0].replicas[0]
        hdfs.corrupt_replica("f", 0, victim_node)
        node = next(n for n in cluster.slaves if n.name == victim_node)
        scanner = DataBlockScanner(hdfs)
        t, scanned, corrupt = scanner.scan_node(node, at=0.0)
        assert t > 0.0  # the re-reads took simulated disk time
        assert scanned > 0
        assert [(b.file_name, b.index) for b in corrupt] == [("f", 0)]
        assert node.procfs.scrub_bytes == scanned
        assert node.procfs.checksum_failures == 1
        assert node.procfs.checksum_verifications > 0

    def test_clean_node_scans_clean(self):
        cluster = make_cluster(4, block_size=1024)
        cluster.hdfs.create_file("f", 4000)
        scanner = DataBlockScanner(cluster.hdfs)
        _, _, corrupt = scanner.scan_node(cluster.slaves[0], at=0.0)
        assert corrupt == []


# ---------------------------------------------------------------------------
# Commit fencing and graylisting
# ---------------------------------------------------------------------------


class TestCommitFence:
    def test_granted_attempt_commits(self):
        fence = CommitFence()
        fence.grant("m_000001", 0)
        assert fence.try_commit("m_000001", 0)
        assert fence.fenced == 0

    def test_zombie_commit_is_fenced(self):
        fence = CommitFence()
        fence.grant("m_000001", 0)
        fence.revoke("m_000001", 0)
        fence.grant("m_000001", 1)
        assert not fence.try_commit("m_000001", 0)  # the zombie
        assert fence.try_commit("m_000001", 1)  # the replacement
        assert fence.fenced == 1
        assert fence.fenced_attempts == ["attempt_m_000001_0"]

    def test_newer_grant_supersedes(self):
        fence = CommitFence()
        fence.grant("r_000000", 0)
        fence.grant("r_000000", 1)
        assert not fence.try_commit("r_000000", 0)


class TestNodeGraylist:
    def test_graylisted_only_after_the_flap(self):
        gray = NodeGraylist(window_s=0.5)
        gray.record_flap("slave2", rejoin_time_s=2.0)
        assert not gray.is_graylisted("slave2", 0.0)  # before the flap
        assert not gray.is_graylisted("slave2", 1.99)
        assert gray.is_graylisted("slave2", 2.0)
        assert gray.is_graylisted("slave2", 2.49)
        assert not gray.is_graylisted("slave2", 2.5)  # window over

    def test_unknown_node_is_not_graylisted(self):
        gray = NodeGraylist(window_s=0.5)
        assert not gray.is_graylisted("slave1", 1.0)

    def test_repeat_flaps_each_get_a_window(self):
        gray = NodeGraylist(window_s=0.5)
        gray.record_flap("slave2", 1.0)
        gray.record_flap("slave2", 3.0)
        assert gray.is_graylisted("slave2", 1.2)
        assert not gray.is_graylisted("slave2", 2.0)
        assert gray.is_graylisted("slave2", 3.2)
        assert gray.nodes == ("slave2",)


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------


class TestFaultPlanValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(corruption_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corruption_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(transfer_corruption_rate=2.0)
        with pytest.raises(ValueError):
            FaultPlan(link_loss_rate=1.0)  # total loss is a partition
        with pytest.raises(ValueError):
            FaultPlan(lossy_links=(("a", "b", 1.0),))

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            FaultPlan(partitions=(("slave1", -1.0, 1.0),))
        with pytest.raises(ValueError):
            FaultPlan(partitions=(("slave1", 0.0, 0.0),))
        with pytest.raises(ValueError):
            FaultPlan(partitions=(("slave1", 0.0, float("inf")),))

    def test_gray_fields_count_as_faults_but_scrub_does_not(self):
        assert not FaultPlan().injects_faults
        assert not FaultPlan(scrub=True).injects_faults
        assert FaultPlan(corruption_rate=0.1).injects_faults
        assert FaultPlan(transfer_corruption_rate=0.1).injects_faults
        assert FaultPlan(corrupt_replicas=((0, "slave1"),)).injects_faults
        assert FaultPlan(link_loss_rate=0.1).injects_faults
        assert FaultPlan(lossy_links=(("a", "b", 0.2),)).injects_faults
        assert FaultPlan(partitions=(("slave1", 0.0, 1.0),)).injects_faults


# ---------------------------------------------------------------------------
# Scenario tests: one gray-failure class at a time, on real workloads
# ---------------------------------------------------------------------------


def run_gray(plan: FaultPlan, name="WordCount", scale=0.3):
    cluster = FaultyCluster(make_cluster(4, block_size=64 * 1024), plan)
    return cluster, workload(name).run(scale=scale, cluster=cluster)


class TestGrayScenarios:
    def test_corrupt_read_fails_over_and_repairs(self):
        baseline = workload("WordCount").run(
            scale=0.3, cluster=make_cluster(4, block_size=64 * 1024)
        )
        cluster, run = run_gray(FaultPlan(corruption_rate=0.4, seed=3))
        tl = run.timelines[0]
        assert repr(run.output) == repr(baseline.output)
        assert tl.corrupt_replicas_injected > 0
        # Every rotten replica a reader hit was caught, reported and
        # dropped; re-replication repaired the block.
        assert tl.checksum_failures > 0
        assert tl.bad_blocks_reported > 0
        assert tl.duration_s >= baseline.duration_s

    def test_scrub_catches_rot_readers_never_touched(self):
        cluster, run = run_gray(FaultPlan(corruption_rate=0.4, scrub=True, seed=3))
        tl = run.timelines[0]
        assert tl.scrubbed_bytes > 0
        # The post-job sweep leaves nothing rotten anywhere.
        assert cluster.hdfs.corrupt_replica_count == 0
        assert tl.bad_blocks_reported >= tl.corrupt_replicas_injected

    def test_transfer_corruption_is_refetched(self):
        cluster, run = run_gray(
            FaultPlan(transfer_corruption_rate=0.2, seed=5), name="Sort"
        )
        tl = run.timelines[0]
        assert tl.checksum_failures > 0
        # In-flight flips never rot anything at rest.
        assert tl.corrupt_replicas_injected == 0
        assert cluster.hdfs.corrupt_replica_count == 0

    def test_lossy_links_cost_retransmits(self):
        baseline = workload("Sort").run(
            scale=0.3, cluster=make_cluster(4, block_size=64 * 1024)
        )
        _, run = run_gray(FaultPlan(link_loss_rate=0.05, seed=2), name="Sort")
        tl = run.timelines[0]
        assert repr(run.output) == repr(baseline.output)
        assert tl.net_retransmits > 0
        assert tl.net_retransmit_bytes > 0
        assert tl.duration_s >= baseline.duration_s

    def test_partition_fences_zombies_and_graylists(self):
        baseline = workload("Sort").run(
            scale=0.5, cluster=make_cluster(4, block_size=64 * 1024)
        )
        cluster, run = run_gray(
            FaultPlan(partitions=(("slave3", 0.02, 2.0),), seed=7),
            name="Sort", scale=0.5,
        )
        tl = run.timelines[0]
        assert repr(run.output) == repr(baseline.output)
        assert tl.zombie_attempts_fenced > 0
        assert tl.nodes_partitioned == ("slave3",)
        assert tl.graylisted_nodes == ("slave3",)
        zombies = [a for a in tl.attempts if "zombie" in a.reason]
        assert len(zombies) == tl.zombie_attempts_fenced
        assert all(a.node == "slave3" for a in zombies)
        # Every fenced task also has a successful replacement attempt
        # on a reachable node.
        for z in zombies:
            replacements = [
                a for a in tl.attempts
                if a.task_id == z.task_id and a.state.name == "SUCCEEDED"
            ]
            assert len(replacements) == 1
            assert replacements[0].node != "slave3"

    def test_short_blip_goes_unnoticed(self):
        # A partition shorter than the heartbeat timeout delays the
        # attempt's completion but fences nothing.
        policy = RetryPolicy(heartbeat_timeout_s=0.5)
        cluster, run = run_gray(
            FaultPlan(partitions=(("slave3", 0.02, 0.3),), policy=policy, seed=7),
            name="Sort", scale=0.5,
        )
        tl = run.timelines[0]
        assert tl.zombie_attempts_fenced == 0
        assert tl.nodes_partitioned == ("slave3",)

    def test_public_scrub_reports_a_summary(self):
        cluster = FaultyCluster(
            make_cluster(4, block_size=64 * 1024), FaultPlan(scrub=True)
        )
        workload("WordCount").run(scale=0.3, cluster=cluster)
        hdfs = cluster.hdfs
        name = sorted(hdfs.files)[0]
        victim = hdfs.files[name].blocks[0].replicas[0]
        hdfs.corrupt_replica(name, 0, victim)
        summary = cluster.scrub()
        assert summary["corrupt_found"] == 1
        assert summary["bad_blocks_reported"] == 1
        assert summary["scrubbed_bytes"] > 0
        assert hdfs.corrupt_replica_count == 0


# ---------------------------------------------------------------------------
# Observational freedom: disabled gray machinery costs exactly nothing
# ---------------------------------------------------------------------------


class TestObservationalFreedom:
    def test_fault_free_run_matches_stock_cluster_exactly(self):
        stock = workload("Sort").run(
            scale=0.3, cluster=make_cluster(4, block_size=64 * 1024)
        )
        faulty_cluster = FaultyCluster(
            make_cluster(4, block_size=64 * 1024), FaultPlan()
        )
        gated = workload("Sort").run(scale=0.3, cluster=faulty_cluster)
        assert gated.duration_s == stock.duration_s
        tl = gated.timelines[0]
        assert tl.zombie_attempts_fenced == 0
        assert tl.checksum_failures == 0
        assert tl.net_retransmits == 0

    def test_procfs_counters_match_stock_cluster(self):
        stock_cluster = make_cluster(4, block_size=64 * 1024)
        workload("Sort").run(scale=0.3, cluster=stock_cluster)
        faulty_cluster = FaultyCluster(
            make_cluster(4, block_size=64 * 1024), FaultPlan()
        )
        workload("Sort").run(scale=0.3, cluster=faulty_cluster)
        # Both paths verify every read's checksums somewhere...
        assert sum(
            n.procfs.checksum_verifications for n in stock_cluster.slaves
        ) > 0
        for stock_node, gated_node in zip(
            stock_cluster.slaves, faulty_cluster.cluster.slaves
        ):
            s, g = stock_node.procfs, gated_node.procfs
            # ...the same number on the same node...
            assert g.checksum_verifications == s.checksum_verifications
            # ...and with no faults the failure counters stay zero.
            assert g.checksum_failures == s.checksum_failures == 0
            assert g.net_retransmits == s.net_retransmits == 0
            assert g.scrub_bytes == s.scrub_bytes == 0
            assert g.bad_block_reports == s.bad_block_reports == 0
            assert g.net_tx_bytes == s.net_tx_bytes
            assert g.bytes_written() == s.bytes_written()


# ---------------------------------------------------------------------------
# The integrity row of the chaos table (tests/cluster/test_chaos.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", W3)
@pytest.mark.parametrize("seed", SEEDS["integrity"])
class TestIntegrityChaosMatrix:
    def test_output_is_bit_identical(self, name, seed):
        check("integrity", name, seed, "output_is_bit_identical")

    def test_every_injected_corruption_is_caught(self, name, seed):
        check("integrity", name, seed, "every_injected_corruption_is_caught")

    def test_gray_failures_never_speed_the_job_up(self, name, seed):
        check("integrity", name, seed, "gray_failures_never_speed_the_job_up")


class TestIntegrityChaosProperties:
    def test_same_seed_is_exactly_reproducible(self):
        check_reproducible("integrity")

    def test_matrix_exercises_every_gray_failure_class(self):
        check_matrix("integrity", "matrix_exercises_every_gray_failure_class")

    def test_zombies_never_commit(self):
        check_matrix("integrity", "zombies_never_commit")
