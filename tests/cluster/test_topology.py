"""Failure domains: topology, rack-aware placement, rack-level faults.

Three contracts pin the feature:

* **Flat is free** — with no topology, a one-rack topology, or
  ``racks=1`` the whole stack (placement, scheduling, network) is
  bit-identical to the pre-topology model.
* **No node holds two replicas** — under any topology, any degradation
  (more replicas than racks, more replicas than nodes) and after
  re-replication, a block's replicas are always distinct nodes.
* **Racks bound the blast radius** — under a whole-rack outage (power
  or ToR) rack-aware placement finishes the paper workloads with zero
  data loss and bit-identical output, while flat placement on the same
  seed demonstrably loses blocks.  This one is the ``rack-power`` and
  ``rack-tor`` rows of the chaos table (``tests/cluster/test_chaos.py``).
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.cluster import (
    FaultPlan,
    FaultyCluster,
    HadoopCluster,
    JobTimeline,
    Topology,
    make_cluster,
    restore_into,
    snapshot,
)
from repro.cluster.chaos import run_chaos
from repro.cluster.hdfs import Hdfs
from repro.cluster.network import Network, Nic
from repro.cluster.node import Node
from repro.perf.procfs import ProcFs
from repro.workloads import workload
from tests.cluster.test_chaos import check, check_reproducible

WORKLOADS = ("WordCount", "Sort", "PageRank")
SEEDS = (0, 1, 2)


def make_hdfs(n_nodes=6, racks=None, block_size=1024, replication=3):
    nodes = [Node(f"n{i}") for i in range(n_nodes)]
    topology = (
        Topology.uniform([n.name for n in nodes], racks) if racks else None
    )
    return Hdfs(
        nodes, block_size=block_size, replication=replication, topology=topology
    )


class TestTopology:
    def test_uniform_splits_contiguously(self):
        topo = Topology.uniform(["a", "b", "c", "d"], 2)
        assert topo.racks == ("rack1", "rack2")
        assert topo.nodes_in("rack1") == ("a", "b")
        assert topo.nodes_in("rack2") == ("c", "d")

    def test_uniform_remainder_goes_to_early_racks(self):
        topo = Topology.uniform(["a", "b", "c", "d", "e"], 2)
        assert topo.nodes_in("rack1") == ("a", "b", "c")
        assert topo.nodes_in("rack2") == ("d", "e")

    def test_flat_is_one_rack(self):
        topo = Topology.flat(["a", "b"])
        assert topo.is_flat
        assert topo.racks == ("rack1",)
        assert topo.same_rack("a", "b")

    def test_multi_rack_is_not_flat(self):
        topo = Topology.uniform(["a", "b"], 2)
        assert not topo.is_flat
        assert not topo.same_rack("a", "b")

    def test_rack_of_and_has_node(self):
        topo = Topology.uniform(["a", "b", "c"], 3)
        assert topo.rack_of("b") == "rack2"
        assert topo.has_node("c") and not topo.has_node("ghost")
        with pytest.raises(KeyError):
            topo.rack_of("ghost")
        with pytest.raises(KeyError):
            topo.nodes_in("rack9")

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            Topology(())
        with pytest.raises(ValueError):
            Topology((("a", "rack1"), ("a", "rack2")))  # duplicate node
        with pytest.raises(ValueError):
            Topology((("", "rack1"),))
        with pytest.raises(ValueError):
            Topology.uniform(["a", "b"], 0)
        with pytest.raises(ValueError):
            Topology.uniform(["a", "b"], 3)  # more racks than nodes

    def test_unknown_node_error_names_the_node(self):
        topo = Topology.uniform(["a", "b"], 2)
        with pytest.raises(KeyError) as excinfo:
            topo.rack_of("ghost")
        assert excinfo.value.args == ("node 'ghost' is not in the topology",)

    def test_lookup_caches_stay_out_of_equality_and_hash(self):
        # racks interleave, so first-appearance order is not sorted order
        pairs = (("a", "r2"), ("b", "r1"), ("c", "r2"))
        topo, twin = Topology(pairs), Topology(tuple(pairs))
        assert topo == twin and hash(topo) == hash(twin)
        assert topo != Topology(pairs[:2])
        assert topo.racks == ("r2", "r1")
        assert repr(topo) == f"Topology(assignments={pairs!r})"
        assert [f.name for f in dataclasses.fields(topo)] == ["assignments"]

    def test_pickle_round_trip_keeps_lookups(self):
        topo = Topology.uniform(["a", "b", "c"], 2)
        clone = pickle.loads(pickle.dumps(topo))
        assert clone == topo and hash(clone) == hash(topo)
        assert clone.racks == ("rack1", "rack2") and not clone.is_flat
        assert clone.rack_of("c") == "rack2" and clone.has_node("a")

    def test_replace_rebuilds_lookups(self):
        topo = Topology.uniform(["a", "b"], 2)
        moved = dataclasses.replace(topo, assignments=(("a", "r9"), ("z", "r9")))
        assert moved.racks == ("r9",) and moved.is_flat
        assert moved.rack_of("z") == "r9"
        assert not moved.has_node("b")
        with pytest.raises(KeyError):
            moved.rack_of("b")
        # the original is untouched
        assert topo.rack_of("b") == "rack2" and not topo.is_flat
        with pytest.raises(ValueError):
            dataclasses.replace(topo, assignments=())

    def test_make_cluster_one_rack_builds_no_topology(self):
        assert make_cluster(4, racks=1).topology is None

    def test_make_cluster_multi_rack(self):
        cluster = make_cluster(6, racks=3)
        assert cluster.topology is not None
        assert cluster.topology.racks == ("rack1", "rack2", "rack3")
        assert cluster.network.topology is cluster.topology
        assert cluster.hdfs.topology is cluster.topology


class TestRackAwarePlacement:
    def test_replicas_span_racks(self):
        hdfs = make_hdfs(n_nodes=6, racks=2, replication=3)
        hdfs.create_file("f", 10 * 1024)
        topo = hdfs.topology
        for block in hdfs.files["f"].blocks:
            assert len({topo.rack_of(r) for r in block.replicas}) >= 2
        assert hdfs.rack_under_diverse_blocks == 0

    def test_hdfs_default_policy_shape(self):
        # First replica on the (rotating) writer, second off that rack,
        # third on the second replica's rack — the era's HDFS default.
        hdfs = make_hdfs(n_nodes=6, racks=2, replication=3)
        hdfs.create_file("f", 512)
        topo = hdfs.topology
        first, second, third = hdfs.files["f"].blocks[0].replicas
        assert topo.rack_of(second) != topo.rack_of(first)
        assert topo.rack_of(third) == topo.rack_of(second)

    def test_under_diversity_gauge_counts_degraded_placements(self):
        # All live nodes in one rack except one dead off-rack node:
        # placement cannot diversify and must say so.
        hdfs = make_hdfs(n_nodes=4, racks=2, replication=3)
        for name in hdfs.topology.nodes_in("rack2"):
            hdfs.fail_node(name)
        hdfs.create_file("f", 512)
        assert hdfs.rack_under_diverse_blocks >= 1

    def test_re_replication_restores_rack_diversity(self):
        hdfs = make_hdfs(n_nodes=6, racks=3, replication=2)
        hdfs.create_file("f", 4 * 1024)
        victims = hdfs.topology.nodes_in("rack2")
        under = []
        for name in victims:
            u, lost = hdfs.fail_node(name)
            assert lost == []
            under.extend(u)
        for block in under:
            pair = hdfs.re_replicate_block(block)
            assert pair is not None
        topo = hdfs.topology
        for block in hdfs.files["f"].blocks:
            racks = {topo.rack_of(r) for r in block.replicas}
            assert len(racks) >= 2
            assert len(set(block.replicas)) == len(block.replicas)

    def test_fsimage_roundtrip_preserves_topology(self):
        hdfs = make_hdfs(n_nodes=6, racks=2, replication=3)
        hdfs.create_file("f", 5 * 1024)
        image = snapshot(hdfs)
        fresh = make_hdfs(n_nodes=6, racks=None, block_size=1024)
        restore_into(fresh, image)
        assert fresh.topology is not None
        assert fresh.topology.assignments == hdfs.topology.assignments
        assert fresh.rack_under_diverse_blocks == hdfs.rack_under_diverse_blocks
        assert [b.replicas for b in fresh.files["f"].blocks] == [
            b.replicas for b in hdfs.files["f"].blocks
        ]


class TestReplicaInvariant:
    """No block ever holds two replicas on one node — any topology."""

    @given(
        n_nodes=st.integers(min_value=1, max_value=9),
        racks=st.integers(min_value=0, max_value=4),
        replication=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=1, max_value=20_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_placement_and_repair_keep_replicas_distinct(
        self, n_nodes, racks, replication, size
    ):
        if racks > n_nodes:
            racks = n_nodes
        hdfs = make_hdfs(
            n_nodes=n_nodes,
            racks=racks or None,
            block_size=1024,
            replication=replication,
        )
        hdfs.create_file("f", size)
        for block in hdfs.files["f"].blocks:
            assert len(set(block.replicas)) == len(block.replicas)
        if n_nodes < 2:
            return
        under, _ = hdfs.fail_node("n0")
        for block in under:
            hdfs.re_replicate_block(block)
        for block in hdfs.files["f"].blocks:
            assert len(set(block.replicas)) == len(block.replicas)
            assert "n0" not in block.replicas


class TestFlatEquivalence:
    """An explicit one-rack topology changes nothing, bit for bit."""

    def _stock_and_flat(self, num_slaves=4):
        stock = make_cluster(num_slaves, block_size=64 * 1024)
        slaves = [
            Node(f"slave{i + 1}", map_slots=24, reduce_slots=12)
            for i in range(num_slaves)
        ]
        flat = HadoopCluster(
            slaves,
            block_size=64 * 1024,
            topology=Topology.flat([n.name for n in slaves]),
        )
        return stock, flat

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_runs_bit_identical(self, name):
        stock, flat = self._stock_and_flat()
        a = workload(name).run(scale=0.2, cluster=stock)
        b = workload(name).run(scale=0.2, cluster=flat)
        assert repr(a.output) == repr(b.output)
        assert [t.to_dict() for t in a.timelines] == [
            t.to_dict() for t in b.timelines
        ]

    def test_faulty_run_bit_identical(self):
        plan = FaultPlan(
            map_failure_rate=0.3, node_crashes=(("slave2", 0.02),), seed=7
        )
        stock, flat = self._stock_and_flat()
        a = workload("WordCount").run(
            scale=0.2, cluster=FaultyCluster(stock, plan)
        )
        b = workload("WordCount").run(
            scale=0.2, cluster=FaultyCluster(flat, plan)
        )
        assert repr(a.output) == repr(b.output)
        assert a.duration_s == b.duration_s

    def test_flat_runs_count_all_remote_maps_off_rack(self):
        stock, _ = self._stock_and_flat()
        run = workload("Sort").run(scale=0.2, cluster=stock)
        for t in run.timelines:
            assert t.maps_rack_local == 0
            assert t.maps_node_local + t.maps_off_rack == t.map_tasks
            assert t.node_racks == {}


class TestObservationalFreedom:
    """Topology without a core_bandwidth observes, never perturbs."""

    def _transfer_series(self, network, nics):
        times = []
        now = 0.0
        for i in range(6):
            src, dst = nics[i % len(nics)], nics[(i + 1) % len(nics)]
            now = network.transfer(now, src, dst, 10_000 * (i + 1))
            times.append(now)
        return times

    def test_counting_cross_rack_bytes_keeps_timing_identical(self):
        def build(topology):
            nics = [Nic(ProcFs(f"n{i}")) for i in range(4)]
            return Network(topology=topology), nics

        topo = Topology.uniform([f"n{i}" for i in range(4)], 2)
        plain_net, plain_nics = build(None)
        rack_net, rack_nics = build(topo)
        assert self._transfer_series(plain_net, plain_nics) == (
            self._transfer_series(rack_net, rack_nics)
        )
        assert plain_net.cross_rack_bytes == 0
        assert rack_net.cross_rack_bytes > 0
        assert any(n.procfs.bytes_cross_rack for n in rack_nics)

    def test_core_bandwidth_slows_only_cross_rack(self):
        topo = Topology.uniform(["n0", "n1"], 2)
        fast = Network(topology=topo)
        slow = Network(topology=topo, core_bandwidth=1e6)
        a = [Nic(ProcFs("n0")), Nic(ProcFs("n1"))]
        b = [Nic(ProcFs("n0")), Nic(ProcFs("n1"))]
        t_fast = fast.transfer(0.0, a[0], a[1], 1_000_000)
        t_slow = slow.transfer(0.0, b[0], b[1], 1_000_000)
        assert t_slow > t_fast

    def test_procfs_locality_counters(self):
        procfs = ProcFs("n0")
        procfs.record_map_locality("node")
        procfs.record_map_locality("rack")
        procfs.record_map_locality("off")
        assert (procfs.maps_node_local, procfs.maps_rack_local,
                procfs.maps_off_rack) == (1, 1, 1)
        with pytest.raises(ValueError):
            procfs.record_map_locality("nearby")
        line = procfs.render("topology")
        assert "maps_rack_local 1" in line and "bytes_cross_rack 0" in line


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ("power", "tor"))
class TestRackChaosMatrix:
    """The rack-power and rack-tor rows of the chaos table
    (tests/cluster/test_chaos.py)."""

    def test_rack_aware_survives_rack_loss(self, name, seed, mode):
        check(f"rack-{mode}", name, seed, "rack_aware_survives_rack_loss")

    def test_flat_placement_demonstrably_loses(self, name, seed, mode):
        check(f"rack-{mode}", name, seed, "flat_placement_demonstrably_loses")

    def test_outage_was_actually_injected(self, name, seed, mode):
        check(f"rack-{mode}", name, seed, "outage_was_actually_injected")


class TestRackChaosProperties:
    def test_same_seed_is_exactly_reproducible(self):
        check_reproducible("rack-power")

    def test_modes_are_validated(self):
        with pytest.raises(ValueError):
            run_chaos("rack-meteor", "WordCount", 0)


class TestRackFaultPlans:
    def test_rack_faults_need_multi_rack_topology(self):
        plan = FaultPlan(rack_outages=(("rack2", 0.1),), seed=0)
        with pytest.raises(ValueError):
            FaultyCluster(make_cluster(4), plan)

    def test_unknown_rack_rejected(self):
        plan = FaultPlan(rack_outages=(("rack9", 0.1),), seed=0)
        with pytest.raises(ValueError):
            FaultyCluster(make_cluster(4, racks=2), plan)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rack_outages=(("", 0.1),))
        with pytest.raises(ValueError):
            FaultPlan(rack_outages=(("rack1", -1.0),))
        with pytest.raises(ValueError):
            FaultPlan(tor_failures=(("rack1", 0.0, 0.0),))
        with pytest.raises(ValueError):
            FaultPlan(correlated_disk_failures=(("rack1", 0),))

    def test_correlated_disk_failures_hit_one_rack(self):
        cluster = make_cluster(6, block_size=16 * 1024, racks=2)
        plan = FaultPlan(
            correlated_disk_failures=(("rack2", 3),), scrub=True, seed=5
        )
        run = workload("WordCount").run(
            scale=0.3, cluster=FaultyCluster(cluster, plan)
        )
        accounting = run.timelines[0].to_dict()["resilience"]
        assert accounting["corrupt_replicas_injected"] >= 1

    def test_faulty_rack_run_keeps_the_locality_relation(self):
        # A rack outage mid-map: the faulty timeline is a full JobTimeline
        # and every map still lands in exactly one locality tier.
        cluster = make_cluster(6, block_size=64 * 1024, racks=2)
        plan = FaultPlan(rack_outages=(("rack2", 0.005),), seed=0)
        run = workload("WordCount").run(
            scale=0.3, cluster=FaultyCluster(cluster, plan)
        )
        assert run.timelines[0].nodes_crashed == ("slave4", "slave5", "slave6")
        for t in run.timelines:
            for f in dataclasses.fields(JobTimeline):
                getattr(t, f.name)
            assert t.maps_node_local + t.maps_rack_local + t.maps_off_rack == (
                t.map_tasks
            )
            assert t.node_racks == {
                f"slave{i}": "rack1" if i <= 3 else "rack2" for i in range(1, 7)
            }


class TestCliTopology:
    def test_run_with_racks_and_rack_fail(self):
        assert main(["run", "Grep", "--scale", "0.1", "--racks", "2",
                     "--rack-fail", "rack2:0.05"]) == 0

    def test_run_with_tor_fail(self):
        assert main(["run", "Grep", "--scale", "0.1", "--racks", "2",
                     "--tor-fail", "rack2:0.05:0.5"]) == 0

    def test_rack_fail_requires_racks(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "Grep", "--rack-fail", "rack2:0.05"])
        assert excinfo.value.code == 2

    def test_unknown_rack_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "Grep", "--racks", "2", "--rack-fail", "rack9:0.05"])
        assert excinfo.value.code == 2

    def test_malformed_specs_rejected(self):
        for spec in ("rack2", "rack2:x", ":0.5", "rack2:-1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "Grep", "--racks", "2", "--rack-fail", spec])
            assert excinfo.value.code == 2
        for spec in ("rack2:0.1", "rack2:0.1:0", ":0.1:0.5", "rack2:0.1:nan"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "Grep", "--racks", "2", "--tor-fail", spec])
            assert excinfo.value.code == 2

    def test_mix_with_racks_and_rack_fail(self):
        assert main(["mix", "--jobs", "3", "--slaves", "4", "--racks", "2",
                     "--rack-fail", "rack2:0.5"]) == 0

    def test_mix_tor_fail_requires_racks(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["mix", "--jobs", "3", "--tor-fail", "rack2:0.1:0.5"])
        assert excinfo.value.code == 2
