"""The core's counter table (repro.uarch.counters) and its relations.

* the table covers every counter field of SimulationResult, and every
  generated reader (PMU catalogue, Metrics, export columns, figure map)
  follows its rows;
* ``violations`` evaluates each declared relation and names what broke;
* the relations hold over every suite entry.  The stall bound (each stall
  counter <= cycles) is broken after a warmup cut: stalls that span the
  cut are charged in full after it.  The two pinned reproducers are
  strict xfails until the model charges only the post-cut part.

The equivalence property in test_fastpath.py asserts the same relations
on both engines over every machine variant.
"""

import dataclasses

import pytest

from repro.core.characterize import characterize
from repro.core.export import COLUMNS
from repro.core.metrics import Metrics
from repro.core.report import FIGURE_METRICS
from repro.core.suite import DCBench
from repro.perf.events import EVENT_CATALOG
from repro.perf.fastpath import run_fast
from repro.uarch.config import scaled_machine
from repro.uarch.counters import (
    COUNTERS,
    METRICS,
    STALL_CATEGORIES,
    Violation,
    violations,
)
from repro.uarch.pipeline import Core, SimulationResult, simulate
from repro.uarch.trace import SyntheticTrace, TraceSpec

MACHINE = scaled_machine(8)

#: the relation of every stall counter row
STALL_BOUND = "<= cycles"


def broken(result, machine, stall_bound=True) -> list[str]:
    """The relations *result* breaks; ``stall_bound=False`` leaves out the
    stall bound, which a warmup cut can break (module docstring)."""
    return [
        str(v) for v in violations(result, machine)
        if stall_bound or v.relation != STALL_BOUND
    ]


class TestTable:
    def test_one_row_per_counter_field(self):
        fields = [
            f.name for f in dataclasses.fields(SimulationResult)
            if f.name not in ("name", "machine", "extra")
        ]
        assert sorted(c.field for c in COUNTERS) == sorted(fields)

    def test_every_stall_counter_carries_the_stall_bound(self):
        stall_rows = [c for c in COUNTERS if c.field.endswith("_stall_cycles")]
        assert len(stall_rows) == 7
        assert all(c.relations == (STALL_BOUND,) for c in stall_rows)
        assert STALL_CATEGORIES == ("fetch", "rat", "load", "rs_full", "store", "rob_full")

    def test_readers_follow_the_rows(self):
        assert list(EVENT_CATALOG) == [c.pmu for c in COUNTERS if c.pmu]
        names = [m.name for m in METRICS]
        assert [f.name for f in dataclasses.fields(Metrics)] == [*names, "stall_breakdown"]
        assert COLUMNS[2:len(names) + 2] == names
        assert [name for name, _, _ in FIGURE_METRICS.values()] == names

    def test_result_methods_equal_metrics(self):
        result = simulate(TraceSpec("t", 5000), MACHINE)
        metrics = Metrics.from_result(result)
        for m in METRICS:
            assert getattr(result, m.name)() == getattr(metrics, m.name)
        assert result.stall_breakdown() == metrics.stall_breakdown
        assert result.frontend_stall_share() == metrics.frontend_stall_share()
        assert result.backend_stall_share() == metrics.backend_stall_share()


class TestViolations:
    def test_a_clean_result_has_none(self):
        assert violations(simulate(TraceSpec("t", 5000), MACHINE), MACHINE) == []

    def test_each_kind_of_relation_is_reported(self):
        result = simulate(TraceSpec("t", 5000), MACHINE)
        result.l2_misses = result.l2_accesses + 1  # <= another counter
        result.l1d_accesses += 1  # == a sum
        result.cycles = 1  # instructions <= cycles * retire_width
        result.extra["dram_transfers"] = result.l3_misses - 1  # an extra entry
        found = violations(result, MACHINE)
        assert Violation(
            "l2_misses", "<= l2_accesses", result.l2_misses, result.l2_accesses
        ) in found
        assert Violation(
            "l1d_accesses", "== loads + stores", result.l1d_accesses,
            result.loads + result.stores,
        ) in found
        assert Violation(
            "instructions", "<= cycles * retire_width", result.instructions,
            MACHINE.core.retire_width,
        ) in found
        assert ("l3_misses", "<= dram_transfers") in [(v.field, v.relation) for v in found]
        assert str(found[0]).startswith(f"{found[0].field} {found[0].relation}: ")


@pytest.mark.parametrize("name", [entry.name for entry in DCBench.default()])
def test_relations_hold_on_every_suite_entry(name):
    result = characterize(DCBench.default().entry(name), instructions=20_000).result
    assert broken(result, MACHINE) == []


#: (seed, stall counter above cycles) on scaled_machine(8), 400 μops,
#: default warmup (80 μops)
WARMUP_CUT_CASES = [(228, "fetch_stall_cycles"), (28, "mispredict_stall_cycles")]


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("seed, counter", WARMUP_CUT_CASES)
class TestStallsSpanningTheWarmupCut:
    @staticmethod
    def run(engine, seed, warmup=None):
        trace = SyntheticTrace(TraceSpec("t", 400, seed=seed))
        if engine == "fast":
            return run_fast(Core(MACHINE), trace, warmup=warmup)
        return Core(MACHINE).run(trace, warmup=warmup)

    @pytest.mark.xfail(
        strict=True, reason="stalls spanning the warmup cut are charged after it"
    )
    def test_stall_bound_after_warmup(self, engine, seed, counter):
        result = self.run(engine, seed)
        assert [v.field for v in violations(result, MACHINE)] == []

    def test_only_the_stall_bound_breaks(self, engine, seed, counter):
        result = self.run(engine, seed)
        assert [(v.field, v.relation) for v in violations(result, MACHINE)] == [
            (counter, STALL_BOUND)
        ]

    def test_without_warmup_every_relation_holds(self, engine, seed, counter):
        assert broken(self.run(engine, seed, warmup=0), MACHINE) == []
