#!/usr/bin/env python3
"""The repository's benchmark: what a user waits for, and where it went.

    python3 bench/run.py [--seed N] [--seconds S] [--repeat K] [--out FILE]
        every workload, each in its own fresh interpreter, one after
        another: an untraced run (end-to-end metrics) then a traced run
        (per-layer metrics, bench/out/trace-<workload>.json)

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload in this interpreter; the last line of
        standard output is the result as one JSON object

Metric names, units and regression bounds are declared in BENCHMARK.json
at the repository root; README.md explains each of them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

from harness import (  # noqa: E402
    OUT_DIR, REPO_ROOT, HostSpeed, Run, Tracer, fingerprint, peak_rss_mb, perf, tail_percentile,
)

#: fresh interpreters timed for ``setup_s`` in one untraced run
SETUP_SAMPLES = 3


def declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_command(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def detail_path(workload: str, trace: int) -> Path:
    return OUT_DIR / f"run-{workload}-trace{trace}.json"


# -- one workload, this interpreter ----------------------------------------------


def setup_only(name: str, seed: int) -> int:
    """What ``setup_s`` times: imports, input construction, temp cache dir."""
    from workloads import WORKLOADS

    scratch = OUT_DIR / f"tmp-setup-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        WORKLOADS[name](seed, scratch).setup()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def time_setups(name: str, seed: int, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Wall seconds of fresh interpreters doing the set-up: as they passed,
    and scaled by the host-speed probes before and after each."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.flank()
        start = perf()
        subprocess.run(
            child_command(name, seed, "--setup-only"), check=True, stdout=subprocess.DEVNULL
        )
        raw.append(perf() - start)
        scaled.append(raw[-1] * speed.factor(before + speed.flank()))
    return raw, scaled


def sample_note(samples: list[float]) -> str:
    """Sample count, and the highest percentile with ten samples beyond it."""
    note = f"n={len(samples)}"
    tail = tail_percentile(samples)
    return note if tail is None else f"{note}  {tail[0]}={tail[1]:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS  # fails here, before any work, without src/

    group = "per_layer" if trace else "end_to_end"
    rows = {row["name"]: row for row in declared()[group]}
    tracer = Tracer() if trace else None
    run = Run(tracer)
    setup_raw, setup_samples = ([], []) if trace else time_setups(name, seed, run.speed)
    scratch = OUT_DIR / f"tmp-{name}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, scratch)
        workload.setup()
        passes = 1 if trace else workload.passes_for(seconds)
        if tracer is not None:
            workload.install_probes(tracer)
        try:
            workload.measure(run, passes)
            rss_mb = peak_rss_mb()
            workload.verify(run)
        finally:
            if tracer is not None:
                tracer.unpatch()
        values, notes = {}, {}
        if run.op_failed:
            pass  # a missing sample leaves nothing honest to report
        elif trace:
            measured = workload.per_layer(run, tracer)
            # a layer this workload never enters spent no time and did no work
            values = {metric: float(measured.pop(metric, 0.0)) for metric in rows}
            if measured:
                raise SystemExit(f"not declared in BENCHMARK.json: {sorted(measured)}")
        else:
            values = workload.end_to_end(run)
            values["setup_s"] = median(setup_samples)
            values["peak_rss_mb"] = rss_mb
            notes = {
                "setup_s": sample_note(setup_samples),
                "op_p50_s": sample_note(run.samples_of("cold")),
                "warm_op_p50_s": sample_note(run.samples_of("warm")),
                "work_per_s": f"n={passes}  ({workload.work_unit} per host second)",
            }
            if set(values) != set(rows):
                raise SystemExit(f"BENCHMARK.json declares {sorted(rows)}, got {sorted(values)}")
            # what the scaled medians above were on this host, as they passed
            run.info["raw_setup_s"] = median(setup_raw)
            run.info["raw_op_p50_s"] = workload.op_p50_s(run, "cold", raw=True)
            run.info["raw_warm_op_p50_s"] = workload.op_p50_s(run, "warm", raw=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics = {m: {"value": values[m], "unit": rows[m]["unit"]} for m in rows if m in values}

    print(f"# {name}  seed={seed}  passes={passes}  trace={trace}")
    for metric, entry in metrics.items():
        line = f"{group:10s} {metric:44s} {entry['value']:.6g} {entry['unit']}"
        if "bound" in rows[metric]:
            sign = "-" if rows[metric]["better"] == "higher" else "+"
            line += f"  bound={sign}{100 * rows[metric]['bound']:g}%"
        print(f"{line}  {notes.get(metric, 'n=1')}")
    run.info["failed_ops_ratio"] = run.failed / run.attempted
    for key, value in run.info.items():
        print(f"info       {key} = {value}")
    machine = fingerprint()
    print("info       machine " + json.dumps(machine, sort_keys=True))
    if tracer is not None:
        for target, reason in tracer.absent:
            print(f"info       probe absent: {target} ({reason})")
        trace_file = OUT_DIR / f"trace-{name}.json"
        tracer.write(trace_file, {"workload": name, "seed": seed})
        print(f"info       spans written to {trace_file.relative_to(REPO_ROOT)}")

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  passes=passes, notes=notes, info=run.info, failures=run.failures,
                  fingerprint=machine)
    detail_path(name, trace).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, one fresh interpreter each -----------------------------------


def run_all(seed: int, seconds: float, repeat: int, out: Path, only: list[str]) -> int:
    spec = declared()
    names = only or [w["name"] for w in spec["workloads"]]
    status = 0
    report: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        report["workloads"][name] = {
            "end_to_end": {}, "per_layer": {}, "info": {}, "raw_op_p50_s": [],
        }
    # Round-robin over workloads, so that a slow minute on a shared host
    # does not land on every repeat of one workload.
    for round_index in range(repeat):
        for name in names:
            for trace in (0, 1) if round_index == 0 else (0,):
                code = subprocess.run(
                    child_command(name, seed, "--seconds", str(seconds), "--trace", str(trace))
                ).returncode
                status = status or code
                if code not in (0, 1):
                    continue  # crashed before it could write a result
                detail = json.loads(detail_path(name, trace).read_text(encoding="utf-8"))
                entry = report["workloads"][name]
                report["fingerprint"] = detail["fingerprint"]
                if trace:
                    entry["per_layer"] = detail["metrics"]
                    entry["info"]["traced"] = detail["info"]
                else:
                    for metric, value in detail["metrics"].items():
                        row = entry["end_to_end"].setdefault(
                            metric, {"unit": value["unit"], "values": []}
                        )
                        row["values"].append(value["value"])
                    entry["info"]["untraced"] = detail["info"]
                    entry["raw_op_p50_s"].append(detail["info"]["raw_op_p50_s"])
    print("\n# summary: median over runs of each end-to-end metric")
    for name in names:
        entry = report["workloads"][name]
        for metric, row in entry["end_to_end"].items():
            print(f"{name:16s} {metric:16s} {median(row['values']):.6g} {row['unit']}"
                  f"  runs={len(row['values'])}")
        traced = entry["per_layer"].get("trace.op_p50_s")
        untraced = entry["raw_op_p50_s"]
        if traced and untraced:
            # spans are raw seconds, so both sides are
            overhead = traced["value"] - median(untraced)
            entry["info"]["tracing_overhead_s"] = overhead
            print(f"{name:16s} tracing overhead {overhead:+.4g} s on an op of "
                  f"{median(untraced):.4g} s (traced op minus untraced raw median)")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="with --workload: 1 records spans and prints per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload when running them all")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload[0], args.seed)
    seconds = args.seconds if args.seconds is not None else declared()["run_seconds"]
    if args.trace is not None and len(args.workload) == 1:
        return run_workload(args.workload[0], args.seed, seconds, args.trace)
    return run_all(args.seed, seconds, args.repeat, args.out, args.workload)


if __name__ == "__main__":
    sys.exit(main())
