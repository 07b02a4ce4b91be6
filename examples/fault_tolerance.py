#!/usr/bin/env python3
"""Fault tolerance: failures, stragglers, node crashes and recovery.

The paper's cluster runs Hadoop 1.0.2, whose resilience mechanisms shape
every long job's runtime.  This example injects the everyday pathologies
into a Sort run and shows what the jobtracker's countermeasures buy:

* task failures → re-execution on another node (bounded damage),
* a straggling node → speculative backup attempts for maps *and*
  reduces (bounded tail),
* a whole-node crash mid-job → heartbeat detection, HDFS
  re-replication, and re-execution of the maps whose output died
  with the node,
* flaky shuffle fetches → bounded retries, escalating to a map re-run,
* the JobTracker itself dying mid-job → either a from-scratch re-run
  (stock 1.x restart) or a job-history replay that reuses completed
  map outputs (`mapred.jobtracker.restart.recover=true`),
* gray failures → silent bit-rot caught by end-to-end CRC32 checksums
  (failover + bad-block report + re-replication + scrubbing), lossy
  links paid for in retransmits, and a timed network partition whose
  zombie attempts are fenced at commit.

The full fault model — including the checksum, scrubber and
partition/fencing semantics — is documented in docs/fault-model.md.

Run:  python examples/fault_tolerance.py
"""

from repro.cluster import FaultPlan, FaultyCluster, RetryPolicy, make_cluster
from repro.workloads import workload


def sort_work():
    """Build Sort's JobWork once (same functional execution every time)."""
    cluster = make_cluster(4, block_size=64 * 1024)
    run = workload("Sort").run(scale=1.0, cluster=cluster)
    return run.job_results[0].work


def simulate(plan: FaultPlan, work):
    cluster = make_cluster(4, block_size=64 * 1024)
    return FaultyCluster(cluster, plan).run_job(work)


def main() -> None:
    work = sort_work()
    print(f"Sort: {len(work.maps)} map tasks, {len(work.reduces)} reduce tasks\n")

    healthy = simulate(FaultPlan(), work)
    crash_at = healthy.map_phase_end_s * 0.6

    scenarios = [
        ("healthy cluster", FaultPlan()),
        ("10% map failures", FaultPlan.random_plan(len(work.maps), failure_rate=0.10, seed=3)),
        ("one 8x straggler, no speculation",
         FaultPlan(straggler_nodes=("slave2",), straggler_factor=8.0,
                   speculative_execution=False)),
        ("one 8x straggler, with speculation",
         FaultPlan(straggler_nodes=("slave2",), straggler_factor=8.0,
                   speculative_execution=True)),
        ("slave2 crashes mid map phase",
         FaultPlan(node_crashes=(("slave2", crash_at),))),
        ("flaky shuffle (fetch retries + escalation)",
         FaultPlan(shuffle_failures=((0, 0, 2), (1, 3, 4)),
                   policy=RetryPolicy(max_fetch_retries=3))),
    ]

    baseline = None
    print(f"{'scenario':<44s}{'duration':>10s}{'vs healthy':>12s}"
          f"{'failures':>10s}{'kills':>7s}{'backups':>9s}{'wasted':>9s}")
    print("-" * 101)
    for label, plan in scenarios:
        result = simulate(plan, work)
        if baseline is None:
            baseline = result.duration_s
        print(f"{label:<44s}{result.duration_s:>9.2f}s"
              f"{result.duration_s / baseline:>11.2f}x"
              f"{result.failed_attempts:>10d}{result.killed_attempts:>7d}"
              f"{result.speculative_attempts:>9d}"
              f"{result.wasted_seconds:>8.2f}s")

    # Re-run the crash through the workload itself: the input file lives in
    # this cluster's HDFS, so the namenode has real blocks to re-replicate.
    crash_cluster = FaultyCluster(
        make_cluster(4, block_size=64 * 1024),
        FaultPlan(node_crashes=(("slave2", crash_at),)),
    )
    crash = workload("Sort").run(scale=1.0, cluster=crash_cluster).timelines[0]
    fetch = simulate(scenarios[-1][1], work)
    print("\nnode-crash recovery: "
          f"crashed={', '.join(crash.nodes_crashed)}, "
          f"maps re-executed={crash.maps_reexecuted}, "
          f"re-replicated={crash.re_replicated_bytes / 1024:.0f} KiB of HDFS blocks")
    print("shuffle recovery:    "
          f"fetch failures={fetch.shuffle_fetch_failures}, "
          f"escalated to map re-runs={fetch.fetch_escalations}")
    # ---- gray failures: silent corruption + a flaky, partitioned net ----
    # Run through the workload so the input blocks live in *this*
    # cluster's HDFS — the corruption injector rots real replicas and
    # every read's checksum verification has a replica set to fail
    # over across.
    gray_cluster = FaultyCluster(
        make_cluster(4, block_size=64 * 1024),
        FaultPlan(corruption_rate=0.3, transfer_corruption_rate=0.02,
                  link_loss_rate=0.01,
                  partitions=(("slave3", crash_at, 1.0),),
                  scrub=True, seed=7),
    )
    gray = workload("Sort").run(scale=1.0, cluster=gray_cluster).timelines[0]
    print("\ngray failures (checksums + scrubbing, lossy links, partition):")
    print(f"  replicas silently corrupted:    {gray.corrupt_replicas_injected}")
    print(f"  caught by CRC32 verification:   {gray.checksum_failures}")
    print(f"  bad blocks reported (journaled):{gray.bad_blocks_reported:>2d}")
    print(f"  scrubbed by DataBlockScanner:   {gray.scrubbed_bytes / 1024:.0f} KiB")
    print(f"  rot left undetected:            "
          f"{gray_cluster.hdfs.corrupt_replica_count}")
    print(f"  segments retransmitted:         {gray.net_retransmits} "
          f"({gray.net_retransmit_bytes / 1024:.0f} KiB resent)")
    print(f"  partitioned / graylisted:       "
          f"{', '.join(gray.nodes_partitioned) or '-'} / "
          f"{', '.join(gray.graylisted_nodes) or '-'}")
    print(f"  zombie attempts fenced:         {gray.zombie_attempts_fenced}")

    # ---- control plane: lose the JobTracker/NameNode mid-job ------------
    master_crash_at = healthy.duration_s * 0.5
    print(f"\nJobTracker crash at t={master_crash_at:.2f}s "
          f"(healthy job: {healthy.duration_s:.2f}s), downtime 0.75s:")
    recovered = {}
    for mode in ("restart", "resume"):
        recovered[mode] = simulate(FaultPlan(
            master_crash_time=master_crash_at,
            master_recovery=mode,
            master_downtime_s=0.75,
        ), work)
    print(f"{'recovery accounting':<28s}{'restart':>12s}{'resume':>12s}")
    print("-" * 52)
    rows = [
        ("duration_s", lambda r: f"{r.duration_s:.2f}"),
        ("master_crashes", lambda r: r.master_crashes),
        ("recovery_downtime_s", lambda r: f"{r.recovery_downtime_s:.2f}"),
        ("jobs_restarted", lambda r: r.jobs_restarted),
        ("jobs_resumed", lambda r: r.jobs_resumed),
        ("maps_recovered", lambda r: r.maps_recovered),
        ("killed_attempts", lambda r: r.killed_attempts),
        ("wasted_seconds", lambda r: f"{r.wasted_seconds:.2f}"),
    ]
    for label, pick in rows:
        print(f"{label:<28s}{pick(recovered['restart']):>12}"
              f"{pick(recovered['resume']):>12}")
    savings = recovered["restart"].duration_s - recovered["resume"].duration_s
    print(f"job-history replay saved {savings:.2f}s over a cold restart "
          f"({recovered['resume'].maps_recovered} map outputs reused)")

    print("\nreading: failures cost bounded re-execution; speculation trades"
          "\nwasted duplicate work for a much shorter straggler tail; a dead"
          "\nnode costs its in-flight attempts, its finished map outputs and"
          "\nthe background traffic that restores HDFS replication; a dead"
          "\nmaster costs the outage plus — without job-history recovery —"
          "\nevery second the job had already run; and gray failures cost"
          "\nnothing in correctness: every flipped bit is caught end to end"
          "\nand every zombie is fenced before it can commit stale output.")


if __name__ == "__main__":
    main()
