"""Figure 2: speedup of the eleven workloads on 1/4/8 slave nodes.

The paper runs each workload on a Hadoop cluster with 1, 4 and 8 slaves
(same per-node configuration as Section III) and normalises run time to
the one-slave case; at 8 slaves the speedups range 3.3–8.2 (Naive Bayes
6.6), demonstrating that data-analysis workloads are diverse in
performance behaviour.

We repeat the experiment on the cluster model.  The MB-scale inputs come
with proportionally scaled per-slave slot counts (24 map slots in the
paper for multi-GB waves → default 4 here) so the waves-per-job ratio —
what actually shapes the scaling curve — matches the paper's setup; the
block size shrinks with the inputs for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.tenancy import solo_run
from repro.workloads.base import DataAnalysisWorkload, all_workloads


@dataclass
class SpeedupResult:
    """Speedup curves for one workload set."""

    slave_counts: list[int]
    durations: dict[str, dict[int, float]] = field(default_factory=dict)

    def speedup(self, name: str, slaves: int) -> float:
        base = self.durations[name][self.slave_counts[0]]
        return base / self.durations[name][slaves]

    def series(self, name: str) -> list[float]:
        return [self.speedup(name, n) for n in self.slave_counts]

    def max_spread(self) -> tuple[float, float]:
        """(min, max) speedup at the largest cluster size."""
        largest = self.slave_counts[-1]
        values = [self.speedup(name, largest) for name in self.durations]
        return min(values), max(values)


def speedup_study(
    workloads: list[DataAnalysisWorkload] | None = None,
    slave_counts: tuple[int, ...] = (1, 4, 8),
    scale: float = 1.0,
    map_slots: int = 4,
    reduce_slots: int = 2,
    block_size: int = 2 * 1024,
    cpu_speed: float = 0.01,
) -> SpeedupResult:
    """Run Figure 2: every workload on each cluster size.

    Each run gets a fresh cluster (the paper reinstalls between
    configurations) and the same input scale, so durations are directly
    comparable across sizes.

    ``cpu_speed`` and ``block_size`` keep the MB-scale runs in the same
    regime as the paper's GB-scale ones: tasks must be numerous enough to
    form several scheduling waves on the largest cluster (hence the small
    blocks) and long enough that per-task compute — not fixed seek and
    connection latencies — dominates (hence the slow nodes; at the paper's
    scale a map task processes a 64 MB split for tens of seconds).
    """
    if not slave_counts or any(
        a >= b for a, b in zip(slave_counts, slave_counts[1:])
    ):
        raise ValueError("slave_counts must be strictly ascending and non-empty")
    workloads = workloads if workloads is not None else all_workloads()
    result = SpeedupResult(slave_counts=list(slave_counts))
    shape = dict(map_slots=map_slots, reduce_slots=reduce_slots,
                 block_size=block_size, cpu_speed=cpu_speed)
    for wl in workloads:
        result.durations[wl.info.name] = {
            n: solo_run(wl, scale, num_slaves=n, **shape)[0] for n in slave_counts
        }
    return result
