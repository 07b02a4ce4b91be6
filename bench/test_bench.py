"""Checks on the benchmark itself.  Run as ``pytest bench/`` — it is
outside tier-1's ``testpaths`` because the end-to-end case runs one real
workload (about a minute)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import compare  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    setup = next(row for row in SPEC["end_to_end"] if row["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(row["bound"] for row in SPEC["end_to_end"])
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_declaration():
    from workloads import WORKLOADS

    assert list(WORKLOADS) == [row["name"] for row in SPEC["workloads"]]


def test_inputs_are_seeded_and_sized():
    trace = inputs.mix_trace(3)
    assert trace == inputs.mix_trace(3) and trace != inputs.mix_trace(4)
    assert len(trace.jobs) == inputs.MIX_JOBS
    classes = sorted(job.size_class for job in trace.jobs)
    assert classes == sorted(job.size_class for job in inputs.mix_trace(4).jobs)
    # the same scales on every seed: only who gets which one changes
    assert sorted(j.scale for j in trace.jobs) == sorted(j.scale for j in inputs.mix_trace(4).jobs)
    fair = inputs.fair_mix(1)
    assert len(fair.submissions) == fair.jobs == inputs.FAIR_JOBS
    assert [s.arrival_s for s in fair.submissions] == [
        s.arrival_s for s in inputs.fair_mix(1).submissions
    ]
    assert [s.arrival_s for s in fair.submissions] != [
        s.arrival_s for s in inputs.fair_mix(2).submissions
    ]
    capacity = inputs.capacity_mix(1)
    assert sum(len(s.works) for s in capacity.submissions) == capacity.jobs
    cls, name = inputs.resolve_cluster_class()
    assert name.endswith(cls.__name__)
    multi = inputs.faults_mix(0).build(cls)
    assert len(multi.jobs) == inputs.FAULTS_JOBS and multi.plan.speculative_execution


def test_tracer_self_times_and_absent_probes():
    tracer = harness.Tracer()
    with tracer.op("op.x") as op_id:
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("a"):  # recursion is busy once
                pass
    layers = tracer.layers({op_id})
    assert layers["a"]["calls"] == 2 and layers["b"]["calls"] == 1
    outer = tracer.spans[1]
    assert layers["a"]["busy_s"] == pytest.approx(outer[2] - outer[1])
    total = sum(row["self_s"] for row in layers.values())
    top = tracer.spans[0]
    assert total == pytest.approx(top[2] - top[1])
    assert tracer.layers(set()) == {}

    assert tracer.patch("repro.cluster.tenancy:generate_trace", "t") is True
    from repro.cluster import tenancy

    tenancy.generate_trace(0, num_jobs=1)
    assert tracer.spans[-1][0] == "t"
    assert tracer.patch("repro.cluster.tenancy:no_such_function", "t") is False
    assert tracer.patch("repro.no_such_module:f", "t") is False
    assert [target for target, _ in tracer.absent] == [
        "repro.cluster.tenancy:no_such_function", "repro.no_such_module:f"
    ]
    tracer.unpatch()
    assert not hasattr(tenancy.generate_trace, "__wrapped__")

    def numbers():
        yield from range(3)

    assert list(tracer.wrap_generator(numbers, "g")()) == [0, 1, 2]
    assert sum(1 for span in tracer.spans if span[0] == "g") == 4  # 3 items + exhaustion


def test_host_speed_scales_by_the_probes_around_and_inside_an_op():
    import signal
    import time

    speed = harness.HostSpeed()

    def spin():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        return "done"

    result, raw, scaled = speed.timed(spin)
    assert result == "done"
    inside = speed._inside
    assert len(inside) >= 2  # the timer probed while the op ran ...
    assert raw == pytest.approx(0.2 - sum(inside), abs=0.02)  # ... and its probes are not the op's
    probes = speed._flank + inside
    assert min(probes) <= harness.PROBE_REFERENCE_S * raw / scaled <= max(probes)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # an op too short to probe takes the last flank and starts no timer
    flank = list(speed._flank)
    _, raw, scaled = speed.timed(lambda: None, probed=False)
    assert speed._flank == flank and speed._inside is inside
    assert scaled == pytest.approx(raw * speed.factor(flank))
    # a traced run is raw: no probes, samples as they passed
    run = harness.Run(harness.Tracer())
    run.timed("cold", "op.x", spin)
    assert run.speed is None and run.samples == run.raw


def test_compare_statuses():
    spec = {
        "workloads": [{"name": "w", "why": ""}],
        "end_to_end": [
            {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "r", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }

    def result(t, r, digest="d"):
        return {"workloads": {"w": {
            "end_to_end": {"t_s": {"unit": "s", "values": t}, "r": {"unit": "1/s", "values": r}},
            "info": {"untraced": {"sim_digest": digest}},
        }}}

    steady = result([1.0, 1.01, 0.99], [10.0, 10.1, 9.9])
    lines, regressions = compare.compare(spec, steady, steady)
    assert regressions == 0 and all("unchanged" in l or "identical" in l for l in lines)
    slower = result([1.2, 1.21, 1.19], [8.0, 8.1, 7.9], digest="e")
    lines, regressions = compare.compare(spec, steady, slower)
    assert regressions == 2 and "DIFFERS" in lines[-1]
    _, regressions = compare.compare(spec, slower, steady)
    assert regressions == 0  # faster is not a regression
    noisy = result([0.8, 1.0, 1.3, 1.05], [10.0, 13.0, 8.0, 9.5])
    lines, regressions = compare.compare(spec, steady, noisy)
    assert regressions == 0 and sum("unresolved" in l for l in lines) == 2
    # spread wider than the bound, yet every run is worse: settled
    assert compare.judge([1.0, 1.3, 0.9], [2.0, 2.6, 1.8], "lower", 0.1)[0] == "regressed"
    assert compare.judge([2.0, 2.6, 1.8], [1.0, 1.3, 0.9], "lower", 0.1)[0] == "unchanged"


@pytest.fixture(scope="module")
def policy_runs():
    """One untraced and one traced run of the cheapest workload."""
    results = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "dispatch-policy",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_result_lines_hold_exactly_the_declared_names(policy_runs):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = policy_runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {row["name"]: row["unit"] for row in SPEC[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(entry["value"] > 0 for entry in policy_runs[0]["metrics"].values())
    layers = policy_runs[1]["metrics"]
    assert layers["core.simcache.mix_hits"]["value"] == 3
    assert layers["uarch.trace.busy_s"]["value"] == 0  # a layer this workload never enters


def test_trace_file_parses_with_every_parent_present(policy_runs):
    payload = json.loads((BENCH_DIR / "out" / "trace-dispatch-policy.json").read_text())
    spans = {span["id"]: span for span in payload["spans"]}
    assert spans and payload["absent"] == []
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op"] == span["op"]
    # the traced layers account for the traced op: the remainder is small
    layers = policy_runs[1]["metrics"]
    cold_s = sum(
        s["end"] - s["start"]
        for s in spans.values()
        if s["parent"] is None and s["name"].startswith("op.")
    )
    assert layers["trace.unattributed_s"]["value"] < 0.1 * cold_s
