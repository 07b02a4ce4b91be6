#!/usr/bin/env python3
"""Reproduce the paper's cross-suite comparison (Figures 3-12).

Characterizes all 26 workloads — the eleven data-analysis workloads plus
CloudSuite, SPEC CPU2006, SPECweb2005 and HPCC — on the simulated Xeon
E5645, prints every figure's series in the paper's order, and evaluates
the paper's five key findings programmatically.

Run:  python examples/characterize_suite.py        (~20 seconds)
      python examples/characterize_suite.py --fast (~5 seconds)

(times on an empty simulation cache; a warm ``.repro-cache`` replays
every entry in well under a second.)
"""

import sys

from repro.analysis import evaluate_findings
from repro.core import render_metric_table, render_stall_table
from repro.core.characterize import characterize_suite


def main() -> None:
    instructions = 60_000 if "--fast" in sys.argv else 200_000
    print(f"characterizing the full suite ({instructions} micro-ops per workload)...")
    chars = characterize_suite(instructions=instructions)

    for figure in (3, 4, 7, 8, 9, 10, 11, 12):
        print()
        print(render_metric_table(figure, chars))
    print()
    print(render_stall_table(chars))

    findings = evaluate_findings(chars)
    print("\n== The paper's key findings, re-evaluated ==")
    print(f"1. IPC ordering  services < data-analysis < HPL : {findings.ipc_ordering}"
          f"  ({findings.service_max_ipc:.2f} < {findings.da_avg_ipc:.2f} < {findings.hpl_ipc:.2f})")
    print(f"2. stall split   DA in OoO part, services before: {findings.stall_split}"
          f"  (DA backend {findings.da_backend_share:.0%}, services frontend "
          f"{findings.service_frontend_share:.0%})")
    print(f"3. front-end pressure from framework code       : {findings.frontend_pressure}"
          f"  (DA L1I MPKI {findings.da_avg_l1i_mpki:.1f} vs HPCC "
          f"{findings.hpcc_avg_l1i_mpki:.2f})")
    print(f"4. L2 effective for DA; LLC catches L2 misses   : {findings.cache_effectiveness}"
          f"  (L2 MPKI {findings.da_avg_l2_mpki:.1f} vs {findings.service_avg_l2_mpki:.1f}; "
          f"L3 ratios {findings.da_avg_l3_hit_ratio:.0%}/{findings.service_avg_l3_hit_ratio:.0%})")
    print(f"5. DA branches predict better than services     : {findings.branch_prediction}"
          f"  ({findings.da_avg_mispredict:.2%} vs {findings.service_avg_mispredict:.2%})")
    print(f"\nALL FINDINGS HOLD: {findings.all_hold()}")


if __name__ == "__main__":
    main()
