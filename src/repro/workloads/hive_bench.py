"""Hive-bench — Table I row 11 (Hivebench, HIVE-396).

The data-warehouse workload: the benchmark's four representative
SQL-like statements (grep selection, rankings filter, uservisits
aggregation, rankings⋈uservisits join) executed on the mini-Hive engine,
which compiles each into MapReduce stages exactly as Hive 0.6 does.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.cluster import HadoopCluster
from repro.hive.engine import HiveSession
from repro.mapreduce.engine import LocalEngine
from repro.uarch.trace import MemoryRegion
from repro.workloads import datagen
from repro.workloads.base import DataAnalysisWorkload, WorkloadInfo, WorkloadRun, register

#: The benchmark's statements (shapes from the HIVE-396 / Pavlo suite).
BENCH_QUERIES = (
    # grep selection
    "SELECT searchWord, COUNT(*) AS hits FROM uservisits "
    "WHERE searchWord LIKE '%ab%' GROUP BY searchWord",
    # rankings selection
    "SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100",
    # uservisits aggregation
    "SELECT sourceIP, SUM(adRevenue) AS totalRevenue FROM uservisits GROUP BY sourceIP",
    # join
    "SELECT uv.sourceIP, SUM(uv.adRevenue) AS totalRevenue FROM rankings r "
    "JOIN uservisits uv ON r.pageURL = uv.destURL "
    "WHERE r.pageRank > 50 GROUP BY uv.sourceIP ORDER BY totalRevenue DESC LIMIT 10",
)


@register
class HiveBenchWorkload(DataAnalysisWorkload):
    info = WorkloadInfo(
        name="Hive-bench",
        input_description="156 GB DBtable",
        input_gb_low=156,
        retired_instructions_1e9=3659,
        source="Hivebench",
        scenarios=(
            ("search engine", "Data warehouse operations"),
            ("electronic commerce", "Data warehouse operations"),
        ),
        table1_row=11,
    )

    BASE_PAGES = 1500
    BASE_VISITS = 6000

    def run(
        self,
        scale: float = 1.0,
        cluster: HadoopCluster | None = None,
        engine: LocalEngine | None = None,
    ) -> WorkloadRun:
        session = HiveSession(engine=engine or LocalEngine(), cluster=cluster)
        session.create_table(
            "rankings",
            [("pageURL", "string"), ("pageRank", "int"), ("avgDuration", "int")],
        )
        session.create_table(
            "uservisits",
            [
                ("sourceIP", "string"),
                ("destURL", "string"),
                ("adRevenue", "double"),
                ("searchWord", "string"),
            ],
        )
        num_pages = max(2, int(self.BASE_PAGES * scale))
        session.load_rows("rankings", datagen.generate_rankings(num_pages))
        session.load_rows(
            "uservisits",
            datagen.generate_uservisits(max(2, int(self.BASE_VISITS * scale)), num_pages),
        )
        executions = [session.execute(sql) for sql in BENCH_QUERIES]
        job_results = [jr for ex in executions for jr in ex.job_results]
        outputs = {ex.sql: ex.rows for ex in executions}
        merged = self._merge_results(
            self.info.name,
            job_results,
            outputs,
            queries=len(executions),
            stage_counts=[len(ex.job_results) for ex in executions],
        )
        return merged

    def uarch_profile(self) -> dict[str, Any]:
        return {
            "load_fraction": 0.30,
            "store_fraction": 0.12,
            "fp_fraction": 0.03,
            # Hive adds a whole SQL runtime (parser, operators, SerDe) on
            # top of Hadoop: the biggest instruction footprint of the
            # eleven — high L1I misses, like the paper's Figure 7 bar.
            "code_footprint": 896 * 1024,
            "hot_code_fraction": 0.22,
            "call_fraction": 0.2,
            "indirect_fraction": 0.06,  # operator-tree virtual dispatch
            "regions": (
                # table scans
                MemoryRegion("row-store", 144 << 20, 0.25, "sequential"),
                # group-by / join hash tables with skewed keys
                MemoryRegion("hash-tables", 24 << 20, 0.4, "random", burst=3,
                             hot_fraction=0.04, hot_weight=0.9),
            ),
            # materialises between stages: more I/O than single-job workloads
            "kernel_fraction": 0.06,
            "branch_regularity": 0.955,
            "dep_mean": 3.0,
            "dep_density": 0.72,
        }
