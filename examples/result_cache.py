#!/usr/bin/env python3
"""Measure the Hive materialization cache's payoff per repetitiveness bucket.

Redbench's headline on this repo's mini warehouse: for each target
repeat rate a seeded stream of Hive-bench-shaped statements runs
through one shared result cache, and the hit rate — and the simulated
seconds it saves — grows with how repetitive the stream is.

Run:  python examples/result_cache.py
"""

from repro.hive import run_repetition_benchmark


def main() -> None:
    report = run_repetition_benchmark(queries_per_bucket=16)
    print("materialization-cache payoff per repetitiveness bucket:")
    for line in report.summary_lines():
        print(f"  {line}")
    print(f"hit rate monotone in repetitiveness: "
          f"{report.hit_rates_monotone()}; most-repetitive bucket saved "
          f"{report.top_bucket.saved_s:.3f} simulated seconds")


if __name__ == "__main__":
    main()
