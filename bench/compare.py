#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (end-to-end metric, workload), judged by the bounds in
BENCHMARK.json with A as the base:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median) of either side is wider than the bound, so the medians cannot
  be told apart — unless every run of one side beats every run of the
  other, which settles it;
* ``unchanged``  — otherwise (this includes "better").

Every ratio is printed with its base.  ``sim_digest`` rows say whether
the simulated results are bit-identical.  Exit status 1 on any
regression, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """Status and the share of the base median by which *new* is worse."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    if better == "lower":
        worse_by = (new_median - base_median) / base_median
        all_worse, all_better = min(new) > max(base), max(new) < min(base)
    else:
        worse_by = (base_median - new_median) / base_median
        all_worse, all_better = max(new) < min(base), min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        if all_worse and worse_by > bound:
            return "regressed", worse_by
        if all_better:
            return "unchanged", worse_by
        return "unresolved", worse_by
    return ("regressed" if worse_by > bound else "unchanged"), worse_by


def compare(spec: dict, a: dict, b: dict) -> tuple[list[str], int]:
    lines, regressions = [], 0
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = a["workloads"].get(workload)
        side_b = b["workloads"].get(workload)
        if not side_a or not side_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row_a = side_a["end_to_end"].get(name)
            row_b = side_b["end_to_end"].get(name)
            if not row_a or not row_b:
                lines.append(f"{workload:16s} {name:16s} missing on one side")
                continue
            status, worse_by = judge(
                row_a["values"], row_b["values"], metric["better"], metric["bound"]
            )
            regressions += status == "regressed"
            base = statistics.median(row_a["values"])
            new = statistics.median(row_b["values"])
            lines.append(
                f"{workload:16s} {name:16s} {status:10s} "
                f"B/A = {new / base:.4f} (A = {base:.6g} {row_a['unit']}, "
                f"B = {new:.6g}, runs {len(row_a['values'])}/{len(row_b['values'])}, "
                f"spread {100 * spread(row_a['values']):.1f}%/{100 * spread(row_b['values']):.1f}%, "
                f"worse by {100 * worse_by:+.1f}% of A, bound {100 * metric['bound']:g}%)"
            )
        digest_a = side_a["info"].get("untraced", {}).get("sim_digest")
        digest_b = side_b["info"].get("untraced", {}).get("sim_digest")
        same = "identical" if digest_a == digest_b and digest_a else "DIFFERS"
        lines.append(f"{workload:16s} {'sim_digest':16s} {same}")
    return lines, regressions


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    lines, regressions = compare(spec, a, b)
    print("\n".join(lines))
    print(f"{regressions} regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
