"""Names downstream readers depend on, pinned as literals.

Export columns, PMU event names and codes, the figure map, the
``Metrics`` fields and the ``ProcFs`` status lines are generated from
the counter tables (``repro.uarch.counters``, ``repro.perf.procfs``).  A
renamed or reordered row must show up here, not in a user's spreadsheet.
The single-job resilience report (``FaultyTimeline.accounting()``,
``to_dict()`` and the per-run aggregate the CLI prints) is pinned the
same way.  Only names and shapes are pinned, never a simulated value.
"""

import dataclasses

from repro.cluster import (
    FaultPlan,
    FaultyCluster,
    JobWork,
    MapWork,
    ReduceWork,
    make_cluster,
    run_chaos,
)
from repro.core.export import COLUMNS
from repro.core.metrics import Metrics
from repro.core.report import FIGURE_METRICS
from repro.perf.events import EVENT_CATALOG
from repro.perf.procfs import COUNTER_GROUPS, ProcFs

EXPORT_COLUMNS = [
    "workload", "group", "ipc", "kernel_instruction_fraction", "l1i_mpki",
    "itlb_walks_pki", "l2_mpki", "l3_hit_ratio_of_l2_misses", "dtlb_walks_pki",
    "branch_misprediction_ratio", "stall_fetch", "stall_rat", "stall_load",
    "stall_rs_full", "stall_store", "stall_rob_full",
]

EVENT_CODES = {
    "cycles": "r003c",
    "instructions": "r00c0",
    "kernel-instructions": "r02c0",
    "branches": "r00c4",
    "branch-misses": "r00c5",
    "L1-icache-loads": "r0380",
    "L1-icache-load-misses": "r0280",
    "L1-dcache-loads": "r0143",
    "L1-dcache-load-misses": "r0151",
    "l2_rqsts.references": "rff24",
    "l2_rqsts.miss": "raa24",
    "llc.references": "r4f2e",
    "llc.misses": "r412e",
    "itlb_misses.walk_completed": "r0285",
    "dtlb_misses.walk_completed": "r0249",
    "mem_inst_retired.loads": "r010b",
    "mem_inst_retired.stores": "r020b",
    "ild_stall.any": "r0f87",
    "rat_stalls.any": "r0fd2",
    "resource_stalls.load": "r02a2",
    "resource_stalls.rs_full": "r04a2",
    "resource_stalls.store": "r08a2",
    "resource_stalls.rob_full": "r10a2",
}

FIGURES = {
    3: ("ipc", "Instructions per cycle (IPC)", "{:.2f}"),
    4: ("kernel_instruction_fraction", "kernel instruction fraction", "{:.1%}"),
    7: ("l1i_mpki", "L1I misses per K-instruction", "{:.1f}"),
    8: ("itlb_walks_pki", "ITLB-miss page walks per K-instruction", "{:.3f}"),
    9: ("l2_mpki", "L2 misses per K-instruction", "{:.1f}"),
    10: ("l3_hit_ratio_of_l2_misses", "L3-hit ratio of L2 misses", "{:.1%}"),
    11: ("dtlb_walks_pki", "DTLB-miss page walks per K-instruction", "{:.3f}"),
    12: ("branch_misprediction_ratio", "Branch misprediction ratio", "{:.2%}"),
}

METRICS_FIELDS = [
    "ipc", "kernel_instruction_fraction", "l1i_mpki", "itlb_walks_pki", "l2_mpki",
    "l3_hit_ratio_of_l2_misses", "dtlb_walks_pki", "branch_misprediction_ratio",
    "stall_breakdown",
]

#: key order of ``FaultyTimeline.accounting()``, of its ``to_dict()``
#: ``"resilience"`` section and of the aggregate over a run's timelines
ACCOUNTING_KEYS = [
    "failed_attempts", "failed_map_attempts", "failed_reduce_attempts",
    "killed_attempts", "speculative_attempts", "speculative_wins", "wasted_seconds",
    "shuffle_fetch_failures", "fetch_escalations", "maps_reexecuted",
    "re_replicated_bytes", "blocks_lost", "master_crashes", "recovery_downtime_s",
    "maps_recovered", "jobs_restarted", "jobs_resumed", "corrupt_replicas_injected",
    "checksum_failures", "bad_blocks_reported", "scrubbed_bytes",
    "zombie_attempts_fenced", "net_retransmits", "net_retransmit_bytes",
    "nodes_crashed", "blacklisted_nodes", "nodes_partitioned", "graylisted_nodes",
]
NODE_NAME_KEYS = ACCOUNTING_KEYS[-4:]

TIMELINE_KEYS = [
    "job_name", "start_s", "map_phase_end_s", "end_s", "duration_s", "map_tasks",
    "reduce_tasks", "disk_writes_per_second", "network_bytes", "maps_node_local",
    "maps_rack_local", "maps_off_rack", "node_racks", "resilience",
]

#: attribute order of a fresh ProcFs (the dispatch golden hashes it in order)
PROCFS_ATTRIBUTES = [
    "node_name", "writes_completed", "sectors_written", "reads_completed",
    "sectors_read", "net_rx_bytes", "net_tx_bytes", "tasks_failed", "tasks_killed",
    "tasks_preempted", "tasks_speculative", "fetch_failures", "journal_edits",
    "journal_checkpoints", "master_restarts", "checksum_verifications",
    "checksum_failures", "bad_block_reports", "scrub_bytes", "net_retransmits",
    "net_retransmit_bytes", "requests_shed", "deadline_kills", "speculative_wins",
    "workflows_submitted", "workflows_completed", "stage_retries",
    "lineage_recomputes", "stages_cancelled", "result_cache_hits",
    "result_cache_misses", "maps_node_local", "maps_rack_local", "maps_off_rack",
    "bytes_cross_rack", "_sample_rows",
]

#: every status line of a ProcFs whose i-th counter (in attribute order) is 3i + 1
PROCFS_LINES = {
    "diskstats": "   8       0 sda 7 0 10 0 1 0 4 0 0 0 0",
    "netdev": "  eth0: 13 0 0 0 0 0 0 0 16 0 0 0 0 0 0 0",
    "resilience": "slave7: tasks_failed 19 tasks_killed 22 tasks_preempted 25 "
    "tasks_speculative 28 fetch_failures 31",
    "integrity": "slave7: checksum_verifications 43 checksum_failures 46 "
    "bad_block_reports 49 scrub_bytes 52 net_retransmits 55 net_retransmit_bytes 58",
    "overload": "slave7: requests_shed 61 deadline_kills 64 speculative_wins 67",
    "control_plane": "slave7: journal_edits 34 journal_checkpoints 37 master_restarts 40",
    "topology": "slave7: maps_node_local 91 maps_rack_local 94 maps_off_rack 97 "
    "bytes_cross_rack 100",
    "warehouse": "slave7: result_cache_hits 85 result_cache_misses 88",
    "workflow": "slave7: workflows_submitted 70 workflows_completed 73 stage_retries 76 "
    "lineage_recomputes 79 stages_cancelled 82",
}


def test_export_columns():
    assert COLUMNS == EXPORT_COLUMNS


def test_event_names_and_codes():
    assert {name: event.code for name, event in EVENT_CATALOG.items()} == EVENT_CODES
    assert list(EVENT_CATALOG) == list(EVENT_CODES)


def test_figure_metrics():
    assert FIGURE_METRICS == FIGURES


def test_metrics_fields():
    assert [f.name for f in dataclasses.fields(Metrics)] == METRICS_FIELDS


def test_procfs_attributes_and_lines():
    assert list(vars(ProcFs("x"))) == PROCFS_ATTRIBUTES
    procfs = ProcFs("slave7")
    for i, name in enumerate(PROCFS_ATTRIBUTES[1:-1]):
        setattr(procfs, name, 3 * i + 1)
    assert set(COUNTER_GROUPS) == set(PROCFS_LINES)
    assert {group: procfs.render(group) for group in PROCFS_LINES} == PROCFS_LINES


def test_faulty_timeline_report_shape():
    work = JobWork(
        "job",
        maps=[MapWork(1 << 16, 0.1, 1 << 16, preferred_nodes=("slave1",))],
        reduces=[ReduceWork(1 << 16, 0.1, 1 << 16)],
    )
    timeline = FaultyCluster(
        make_cluster(2), FaultPlan(map_failures=(0,))
    ).run_job(work)
    accounting = timeline.accounting()
    assert list(accounting) == ACCOUNTING_KEYS
    assert all(type(accounting[key]) is tuple for key in NODE_NAME_KEYS)
    report = timeline.to_dict()
    assert list(report) == TIMELINE_KEYS
    assert list(report["resilience"]) == ACCOUNTING_KEYS
    assert all(type(report["resilience"][key]) is list for key in NODE_NAME_KEYS)


def test_aggregate_accounting_shape():
    totals = run_chaos("mixed", "WordCount", 0, scale=0.1).runs["mixed"].accounting
    assert list(totals) == ACCOUNTING_KEYS
    assert all(type(totals[key]) is tuple for key in NODE_NAME_KEYS)
