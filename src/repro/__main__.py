"""Command-line interface: ``python -m repro <command>``.

Sub-commands mirror how the paper's artefacts are used:

* ``list``               — show the DCBench suite (groups, Table I info)
* ``tables``             — print Tables I, II and III
* ``run <workload>``     — execute a workload on a simulated cluster,
                            optionally under fault injection
                            (``--faults``, ``--crash-node``, ``--seed``,
                            ``--corruption-rate``, ``--link-loss``,
                            ``--partition``, ``--scrub``, ``--racks``,
                            ``--rack-fail``, ``--tor-fail``)
* ``characterize [...]`` — Figures 3–12 metrics for named workloads
                            (or the whole suite) with optional CSV/JSON
* ``speedup``            — the Figure 2 scaling study
* ``domains``            — the Figure 1 domain shares
* ``profile <workload>`` — sampled flat profile of the instruction stream
* ``colocate <w> <w>..`` — co-locate workloads on one socket (shared LLC)
* ``mix``                — a multi-tenant day of traffic: seeded heavy-tailed
                            trace through the FIFO/Fair/Capacity scheduler
                            (``--scheduler``, ``--jobs``, ``--rate``,
                            ``--engine``, ``--no-mix-cache``,
                            ``--crash-node``, ``--partition``, ``--racks``,
                            ``--rack-fail``, ``--tor-fail``, ``--colocate``)
* ``serve``              — open-loop service traffic through a frontend with
                            graceful degradation (``--rate``, ``--pattern``,
                            ``--deadline``, ``--shed-rate``, ``--limp``,
                            ``--unprotected``, ``--compare``)
* ``record``             — run a mix and serialize it as a WfCommons-style
                            instance JSON (``--trace``, ``--output``)
* ``fit-recipe``         — fit a workload recipe (mix, sizes, arrivals,
                            repetitiveness) from an instance or trace JSON
* ``gen-trace``          — regenerate a synthetic trace of any length from a
                            fitted recipe (``--jobs``, ``--seed``); replay it
                            with ``mix --trace FILE``
* ``rep-bench``          — Redbench-style repetition benchmark: per-bucket
                            materialization-cache payoff
                            (``--buckets``, ``--no-result-cache``)
"""

from __future__ import annotations

import argparse
import math
import sys


def _rate(text: str) -> float:
    """argparse type: a probability in [0, 1] (NaN-proof)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be a rate in [0, 1], got {text}")
    return value


def _link_rate(text: str) -> float:
    """argparse type: a per-segment loss probability in [0, 1) (NaN-proof)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value < 1.0:  # NaN fails every comparison
        raise argparse.ArgumentTypeError(f"must be a rate in [0, 1), got {text}")
    return value


def _partition(text: str) -> tuple[str, float, float]:
    """argparse type: a network partition spec ``NODE:START:DURATION``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected NODE:START:DURATION, got {text!r}"
        )
    node, start_text, duration_text = parts
    if not node:
        raise argparse.ArgumentTypeError("partition node name must not be empty")
    try:
        start = float(start_text)
        duration = float(duration_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"START and DURATION must be numbers, got {text!r}"
        ) from None
    if not (start >= 0.0 and math.isfinite(start)):
        raise argparse.ArgumentTypeError(
            f"partition START must be finite and non-negative, got {start_text}"
        )
    if not (duration > 0.0 and math.isfinite(duration)):
        raise argparse.ArgumentTypeError(
            f"partition DURATION must be finite and positive, got {duration_text}"
        )
    return (node, start, duration)


def _rack_fail(text: str) -> tuple[str, float]:
    """argparse type: a rack power-outage spec ``RACK:TIME``."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected RACK:TIME, got {text!r}")
    rack, time_text = parts
    if not rack:
        raise argparse.ArgumentTypeError("outage rack name must not be empty")
    try:
        time = float(time_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"TIME must be a number, got {text!r}"
        ) from None
    if not (time >= 0.0 and math.isfinite(time)):
        raise argparse.ArgumentTypeError(
            f"outage TIME must be finite and non-negative, got {time_text}"
        )
    return (rack, time)


def _tor_fail(text: str) -> tuple[str, float, float]:
    """argparse type: a ToR-switch failure spec ``RACK:START:DURATION``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected RACK:START:DURATION, got {text!r}"
        )
    rack, start_text, duration_text = parts
    if not rack:
        raise argparse.ArgumentTypeError("ToR-failure rack name must not be empty")
    try:
        start = float(start_text)
        duration = float(duration_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"START and DURATION must be numbers, got {text!r}"
        ) from None
    if not (start >= 0.0 and math.isfinite(start)):
        raise argparse.ArgumentTypeError(
            f"ToR-failure START must be finite and non-negative, got {start_text}"
        )
    if not (duration > 0.0 and math.isfinite(duration)):
        raise argparse.ArgumentTypeError(
            f"ToR-failure DURATION must be finite and positive, got {duration_text}"
        )
    return (rack, start, duration)


def _seconds(text: str) -> float:
    """argparse type: a finite, non-negative simulated time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (value >= 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite non-negative number of seconds, got {text}"
        )
    return value


def _positive_rate(text: str) -> float:
    """argparse type: a finite, strictly positive rate (NaN-proof)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive rate, got {text}"
        )
    return value


def _count(text: str) -> int:
    """argparse type: a positive integer count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a count") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a count >= 1, got {text}")
    return value


def _retry_budget(text: str) -> int:
    """argparse type: a retry budget in [0, 16]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a retry count") from None
    if not 0 <= value <= 16:
        raise argparse.ArgumentTypeError(
            f"retry budget must be in [0, 16], got {text}"
        )
    return value


def _limp(text: str) -> tuple[int, float]:
    """argparse type: a limping-server spec ``INDEX:FACTOR``."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected INDEX:FACTOR, got {text!r}")
    index_text, factor_text = parts
    try:
        index = int(index_text)
        factor = float(factor_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"INDEX must be an integer and FACTOR a number, got {text!r}"
        ) from None
    if index < 0:
        raise argparse.ArgumentTypeError(
            f"limping server INDEX must be >= 0, got {index_text}"
        )
    if not (factor >= 1.0 and math.isfinite(factor)):
        raise argparse.ArgumentTypeError(
            f"limp FACTOR must be finite and >= 1, got {factor_text}"
        )
    return (index, factor)


def _workers(text: str):
    """argparse type: a positive worker count or the literal "auto"."""
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a worker count") from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def _cmd_list(_args) -> int:
    from repro.core.suite import DCBench

    suite = DCBench.default()
    print(f"{'workload':<18s}{'group':<15s}info")
    print("-" * 70)
    for entry in suite:
        extra = ""
        impl = entry.impl
        if hasattr(impl, "info"):
            extra = f"{impl.info.input_description} ({impl.info.source})"
        else:
            extra = impl.suite
        print(f"{entry.name:<18s}{entry.group:<15s}{extra}")
    return 0


def _cmd_tables(_args) -> int:
    from repro.core.report import render_table1, render_table2, render_table3

    print(render_table1())
    print()
    print(render_table2())
    print()
    print(render_table3())
    return 0


def _cmd_run(args) -> int:
    from repro.cluster import FaultPlan, FaultyCluster, JobFailedError, make_cluster
    from repro.cluster.chaos import aggregate_accounting
    from repro.workloads import workload

    parser = args.parser
    if args.crash_time is not None and not args.crash_node:
        parser.error("--crash-time requires --crash-node")
    if args.recovery is not None and args.master_crash_time is None:
        parser.error("--recovery requires --master-crash-time")
    if args.master_downtime is not None and args.master_crash_time is None:
        parser.error("--master-downtime requires --master-crash-time")

    rack_outages = tuple(args.rack_fail or ())
    tor_failures = tuple(args.tor_fail or ())
    if (rack_outages or tor_failures) and args.racks < 2:
        parser.error("--rack-fail/--tor-fail require --racks >= 2")

    wl = workload(args.workload)
    cluster = make_cluster(args.slaves, block_size=64 * 1024, racks=args.racks)
    known = [node.name for node in cluster.slaves]
    known_racks = list(cluster.topology.racks) if cluster.topology else []
    for flag, specs in (("--rack-fail", rack_outages), ("--tor-fail", tor_failures)):
        for rack, *_rest in specs:
            if rack not in known_racks:
                parser.error(f"{flag} rack {rack!r} is not a rack "
                             f"(have: {', '.join(known_racks)})")
    if args.crash_node:
        if args.crash_node not in known:
            parser.error(f"--crash-node {args.crash_node!r} is not a slave "
                         f"(have: {', '.join(known)})")
    partitions = tuple(args.partition or ())
    for part_node, _, _ in partitions:
        if part_node not in known:
            parser.error(f"--partition node {part_node!r} is not a slave "
                         f"(have: {', '.join(known)})")
    faulty = bool(
        args.faults > 0
        or args.crash_node
        or args.master_crash_time is not None
        or args.corruption_rate > 0
        or args.link_loss > 0
        or partitions
        or rack_outages
        or tor_failures
        or args.scrub
    )
    if faulty:
        node_crashes = ()
        if args.crash_node:
            crash_time = args.crash_time if args.crash_time is not None else 1.0
            node_crashes = ((args.crash_node, crash_time),)
        plan = FaultPlan(
            map_failure_rate=args.faults,
            reduce_failure_rate=args.faults,
            node_crashes=node_crashes,
            master_crash_time=args.master_crash_time,
            master_recovery=args.recovery or "resume",
            master_downtime_s=(
                args.master_downtime if args.master_downtime is not None else 0.75
            ),
            corruption_rate=args.corruption_rate,
            link_loss_rate=args.link_loss,
            partitions=partitions,
            rack_outages=rack_outages,
            tor_failures=tor_failures,
            scrub=args.scrub,
            seed=args.seed,
        )
        cluster = FaultyCluster(cluster, plan)
    try:
        run = wl.run(scale=args.scale, cluster=cluster)
    except JobFailedError as error:
        print(f"{wl.info.name}: {error}", file=sys.stderr)
        return 1
    print(f"{wl.info.name}: {len(run.job_results)} job(s), "
          f"{run.duration_s:.3f}s simulated on {args.slaves} slave(s)")
    for key, value in run.counters.as_dict().items():
        print(f"  {key:<28s}{value}")
    print(f"  {'Disk writes per second':<28s}{run.disk_writes_per_second():.1f}")
    if faulty:
        print("resilience accounting:")
        for key, value in aggregate_accounting(run.timelines).items():
            if isinstance(value, tuple):
                value = ", ".join(value) or "-"
            elif isinstance(value, float):
                value = f"{value:.3f}"
            print(f"  {key:<28s}{value}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.core.characterize import characterize, characterize_suite
    from repro.core.export import to_csv, to_json
    from repro.core.simcache import SimCache
    from repro.core.suite import DCBench
    from repro.uarch.counters import METRICS

    cache = None if args.no_sim_cache else SimCache()
    suite = DCBench.default()
    if args.workloads:
        chars = [
            characterize(
                suite.entry(name),
                instructions=args.instructions,
                engine=args.engine,
                cache=cache,
            )
            for name in args.workloads
        ]
    else:
        chars = characterize_suite(
            suite,
            instructions=args.instructions,
            engine=args.engine,
            workers=args.workers,
            cache=cache,
        )
    if args.format == "csv":
        print(to_csv(chars), end="")
    elif args.format == "json":
        print(to_json(chars))
    else:
        columns = [(m.name, *m.column) for m in METRICS if m.column]
        header = f"{'workload':<18s}" + "".join(f"{h:>{w}s}" for _, h, w, _ in columns)
        print(header)
        print("-" * len(header))
        for c in chars:
            print(f"{c.name:<18s}" + "".join(
                f"{getattr(c.metrics, name):>{w}{spec}}" for name, _, w, spec in columns))
    return 0


def _cmd_speedup(_args) -> int:
    from repro.analysis.speedup import speedup_study

    result = speedup_study()
    print(f"{'workload':<16s}" + "".join(f"{n:>10d}" for n in result.slave_counts))
    for name in result.durations:
        print(f"{name:<16s}" + "".join(f"{v:>10.2f}" for v in result.series(name)))
    lo, hi = result.max_spread()
    print(f"spread at {result.slave_counts[-1]} slaves: {lo:.2f} - {hi:.2f}")
    return 0


def _cmd_domains(_args) -> int:
    from repro.analysis.domains import domain_shares

    for share in domain_shares():
        print(f"{share.category:<22s}{share.share:>5.0%}  {', '.join(share.sites)}")
    return 0


def _cmd_colocate(args) -> int:
    from repro.core.suite import DCBench
    from repro.uarch.config import scaled_machine
    from repro.uarch.multicore import MultiCoreSystem

    suite = DCBench.default()
    scale = 8
    specs = [
        suite.entry(name).trace_spec(args.instructions, seed=100 + i).scaled(scale)
        for i, name in enumerate(args.workloads)
    ]
    result = MultiCoreSystem(scaled_machine(scale)).run_colocated(specs)
    print(f"{'workload':<18s}{'solo IPC':>10s}{'co-located IPC':>16s}{'slowdown':>10s}")
    for name in args.workloads:
        solo_ipc = result.solo[name].ipc()
        # effective IPC includes the DRAM-contention correction folded
        # into the slowdown (the raw shared run reports LLC effects only).
        effective = solo_ipc / result.slowdown(name)
        print(f"{name:<18s}{solo_ipc:>10.2f}{effective:>16.2f}"
              f"{result.slowdown(name):>9.2f}x")
    return 0


def _cmd_mix(args) -> int:
    import json

    from repro.cluster import FaultPlan, JobFailedError, Topology
    from repro.cluster.scheduler import make_scheduler
    from repro.cluster.tenancy import (
        WorkloadTrace,
        characterize_colocation,
        default_pools,
        default_queues,
        generate_trace,
        run_mix,
    )
    from repro.core.simcache import MixCache

    parser = args.parser
    if args.crash_time is not None and not args.crash_node:
        parser.error("--crash-time requires --crash-node")
    known = [f"slave{i}" for i in range(1, args.slaves + 1)]
    if args.crash_node and args.crash_node not in known:
        parser.error(f"--crash-node {args.crash_node!r} is not a slave "
                     f"(have: {', '.join(known)})")
    partitions = tuple(args.partition or ())
    for part_node, _, _ in partitions:
        if part_node not in known:
            parser.error(f"--partition node {part_node!r} is not a slave "
                         f"(have: {', '.join(known)})")
    rack_outages = tuple(args.rack_fail or ())
    tor_failures = tuple(args.tor_fail or ())
    if (rack_outages or tor_failures) and args.racks < 2:
        parser.error("--rack-fail/--tor-fail require --racks >= 2")
    known_racks = (
        list(Topology.uniform(known, args.racks).racks) if args.racks > 1 else []
    )
    for flag, specs in (("--rack-fail", rack_outages), ("--tor-fail", tor_failures)):
        for rack, *_rest in specs:
            if rack not in known_racks:
                parser.error(f"{flag} rack {rack!r} is not a rack "
                             f"(have: {', '.join(known_racks)})")

    if args.trace:
        text = _read_file(args.trace, "mix")
        if text is None:
            return 2
        try:
            trace = WorkloadTrace.from_json(text)
        except ValueError as error:
            print(f"mix: {args.trace}: {error}", file=sys.stderr)
            return 2
    else:
        trace = generate_trace(
            seed=args.seed, num_jobs=args.jobs, arrival_rate_per_s=args.rate
        )
    scheduler = make_scheduler(
        args.scheduler,
        pools=default_pools(trace),
        queues=default_queues(trace),
    )
    plan = None
    if args.crash_node or partitions or rack_outages or tor_failures:
        node_crashes = ()
        if args.crash_node:
            crash_time = args.crash_time if args.crash_time is not None else 0.5
            node_crashes = ((args.crash_node, crash_time),)
        plan = FaultPlan(
            node_crashes=node_crashes,
            partitions=partitions,
            rack_outages=rack_outages,
            tor_failures=tor_failures,
            seed=args.seed,
        )
    mix_cache = None if args.no_mix_cache else MixCache()
    try:
        mix = run_mix(
            trace,
            scheduler,
            num_slaves=args.slaves,
            map_slots=args.map_slots,
            reduce_slots=args.reduce_slots,
            plan=plan,
            racks=args.racks,
            engine=args.engine,
            mix_cache=mix_cache,
        )
    except JobFailedError as error:
        print(f"mix: {error}", file=sys.stderr)
        return 1

    colocation = None
    if args.colocate:
        colocation = characterize_colocation(mix, instructions=args.instructions)

    if args.format == "json":
        payload = mix.to_dict()
        if args.colocate:
            payload["colocation"] = colocation.to_dict() if colocation else None
        print(json.dumps(payload, indent=2))
        return 0

    print(f"{args.scheduler} scheduler: {len(trace.jobs)} jobs, "
          f"{args.slaves} slave(s), makespan {mix.makespan_s:.3f}s, "
          f"mean slowdown {mix.mean_slowdown():.2f}x, "
          f"Jain {mix.jain_fairness():.3f}")
    header = (f"{'job':<5s}{'workload':<14s}{'class':<8s}{'user':<8s}"
              f"{'pool':<13s}{'arrive':>8s}{'wait':>8s}{'slowdown':>10s}")
    print(header)
    print("-" * len(header))
    for report in mix.reports:
        tj = report.trace_job
        print(f"{tj.index:<5d}{tj.workload:<14s}{tj.size_class:<8s}"
              f"{tj.user:<8s}{tj.pool:<13s}{tj.arrival_s:>8.3f}"
              f"{report.wait_s:>8.3f}{report.slowdown:>9.2f}x")
    print("per-pool:")
    for name, stats in mix.by_pool().items():
        print(f"  {name:<13s}{stats['jobs']:>3d} job(s)  "
              f"mean wait {stats['mean_wait_s']:.3f}s  "
              f"mean slowdown {stats['mean_slowdown']:.2f}x")
    if plan is not None:
        print("fault accounting:")
        for key, value in mix.outcome.fault_accounting.to_dict().items():
            if isinstance(value, list):
                value = ", ".join(value) or "-"
            elif isinstance(value, float):
                value = f"{value:.3f}"
            print(f"  {key:<27s}{value}")
    if args.colocate:
        if colocation is None:
            print("co-location: no instant with two jobs' tasks on one node")
        else:
            print(f"co-location at t={colocation.time_s:.3f}s on "
                  f"{colocation.node}: {', '.join(colocation.workloads)}")
            for name in colocation.workloads:
                print(f"  {name:<18s}solo IPC {colocation.solo_ipc[name]:.2f}  "
                      f"shared-LLC slowdown {colocation.slowdowns[name]:.2f}x")
    return 0


def _read_file(path: str, command: str) -> str | None:
    """Read a CLI input file, reporting failure in the command's voice."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as error:
        print(f"{command}: cannot read {path}: {error}", file=sys.stderr)
        return None


def _emit(text: str, output: str | None, what: str) -> None:
    """Print *text*, or write it to *output* and say what landed where."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {what} to {output}")
    else:
        print(text)


def _cmd_record(args) -> int:
    from repro.cluster.scheduler import make_scheduler
    from repro.cluster.tenancy import (
        WorkloadTrace,
        default_pools,
        default_queues,
        generate_trace,
        run_mix,
    )
    from repro.recipes import record_instance

    if args.trace:
        text = _read_file(args.trace, "record")
        if text is None:
            return 2
        try:
            trace = WorkloadTrace.from_json(text)
        except ValueError as error:
            print(f"record: {args.trace}: {error}", file=sys.stderr)
            return 2
    else:
        trace = generate_trace(
            seed=args.seed, num_jobs=args.jobs, arrival_rate_per_s=args.rate
        )
    scheduler = make_scheduler(
        args.scheduler, pools=default_pools(trace), queues=default_queues(trace)
    )
    mix = run_mix(
        trace,
        scheduler,
        num_slaves=args.slaves,
        map_slots=args.map_slots,
        reduce_slots=args.reduce_slots,
    )
    instance = record_instance(mix, name=args.name)
    _emit(instance.to_json(), args.output,
          f"instance ({len(instance.jobs)} jobs)")
    return 0


def _load_instance(path: str, command: str):
    """An Instance from a file holding either an instance or a bare trace."""
    import json

    from repro.cluster.tenancy import WorkloadTrace
    from repro.recipes import Instance, instance_from_trace

    text = _read_file(path, command)
    if text is None:
        return None
    try:
        data = json.loads(text)
        if isinstance(data, dict) and "schema_version" in data:
            return Instance.from_dict(data)
        return instance_from_trace(WorkloadTrace.from_dict(data))
    except (ValueError, TypeError, KeyError) as error:
        print(f"{command}: {path}: {error}", file=sys.stderr)
        return None


def _cmd_fit_recipe(args) -> int:
    from repro.recipes import fit_recipe

    instance = _load_instance(args.instance, "fit-recipe")
    if instance is None:
        return 2
    recipe = fit_recipe(instance, name=args.name)
    _emit(recipe.to_json(), args.output,
          f"recipe ({len(recipe.users)} users, "
          f"repetition {recipe.repetition_rate:.2f})")
    return 0


def _cmd_gen_trace(args) -> int:
    from repro.recipes import Recipe, generate_from_recipe

    text = _read_file(args.recipe, "gen-trace")
    if text is None:
        return 2
    try:
        recipe = Recipe.from_json(text)
    except (ValueError, TypeError, KeyError) as error:
        print(f"gen-trace: {args.recipe}: {error}", file=sys.stderr)
        return 2
    trace = generate_from_recipe(recipe, num_jobs=args.jobs, seed=args.seed)
    _emit(trace.to_json(), args.output,
          f"trace ({len(trace.jobs)} jobs)")
    return 0


def _bucket_rates(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated ascending repeat rates in [0, 1]."""
    try:
        rates = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rates, got {text!r}"
        ) from None
    if not rates or any(not 0.0 <= r <= 1.0 for r in rates):
        raise argparse.ArgumentTypeError(
            f"rates must be in [0, 1], got {text!r}"
        )
    if list(rates) != sorted(rates):
        raise argparse.ArgumentTypeError(
            f"rates must be ascending, got {text!r}"
        )
    return rates


def _cmd_rep_bench(args) -> int:
    import json

    from repro.recipes import run_repetition_benchmark

    report = run_repetition_benchmark(
        buckets=args.buckets,
        queries_per_bucket=args.queries,
        seed=args.seed,
        scale=args.scale,
        num_slaves=args.slaves,
        use_cache=not args.no_result_cache,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        state = ("on" if report.cache_enabled
                 else "off (--no-result-cache / REPRO_RESULT_CACHE=0)")
        print(f"materialization cache {state}, seed {report.seed}")
        for line in report.summary_lines():
            print(line)
    if not report.contract_holds():
        print("rep-bench: contract violated: hit rate must grow "
              "monotonically with repetitiveness and the most-repetitive "
              "bucket must show a latency win", file=sys.stderr)
        return 1
    return 0


def _fail_stage(text: str) -> tuple[str, int]:
    """argparse type: an injected stage-failure spec ``STAGE:N``."""
    stage, sep, count_text = text.rpartition(":")
    if not sep or not stage:
        raise argparse.ArgumentTypeError(f"expected STAGE:N, got {text!r}")
    try:
        count = int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"N must be an integer, got {text!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"N must be >= 1, got {count_text}")
    return (stage, count)


def _cmd_workflow(args) -> int:
    import json

    from repro.cluster import make_cluster
    from repro.cluster.workflow import (
        _DAG_BLOCK_SIZE,
        WorkflowFaultPlan,
        WorkflowRunner,
        build_workflow,
    )
    from repro.core.export import workflow_to_json

    parser = args.parser
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.slaves < 1:
        parser.error(f"--slaves must be >= 1, got {args.slaves}")
    if args.crash_time is not None and not args.crash_node:
        parser.error("--crash-time requires --crash-node")
    known = [f"slave{i}" for i in range(1, args.slaves + 1)]
    if args.crash_node and args.crash_node not in known:
        parser.error(f"--crash-node {args.crash_node!r} is not a slave "
                     f"(have: {', '.join(known)})")
    partitions = tuple(args.partition or ())
    for part_node, _, _ in partitions:
        if part_node not in known:
            parser.error(f"--partition node {part_node!r} is not a slave "
                         f"(have: {', '.join(known)})")

    workflow = build_workflow(
        args.dag, scale=args.scale, num_slaves=args.slaves
    )
    stages = set(workflow.order)
    destroy = tuple(args.destroy_output or ())
    fail_stages = tuple(args.fail_stage or ())
    for name in destroy:
        if name not in stages:
            parser.error(f"--destroy-output stage {name!r} is not in "
                         f"{args.dag} (have: {', '.join(workflow.order)})")
    for name, _ in fail_stages:
        if name not in stages:
            parser.error(f"--fail-stage stage {name!r} is not in "
                         f"{args.dag} (have: {', '.join(workflow.order)})")
    if args.master_crash_after and args.master_crash_after not in stages:
        parser.error(f"--master-crash-after stage "
                     f"{args.master_crash_after!r} is not in {args.dag} "
                     f"(have: {', '.join(workflow.order)})")

    node_crashes = ()
    if args.crash_node:
        crash_time = args.crash_time if args.crash_time is not None else 1.0
        node_crashes = ((args.crash_node, crash_time),)
    plan = None
    if node_crashes or partitions or destroy or fail_stages \
            or args.master_crash_after:
        plan = WorkflowFaultPlan(
            node_crashes=node_crashes,
            partitions=partitions,
            destroy_outputs=destroy,
            fail_stages=fail_stages,
            master_crash_after=args.master_crash_after,
            seed=args.seed,
        )

    cluster = make_cluster(num_slaves=args.slaves, block_size=_DAG_BLOCK_SIZE)
    runner = WorkflowRunner(cluster, scheduler=args.scheduler, plan=plan)
    result = runner.run(workflow)

    if args.format == "json":
        print(workflow_to_json(result))
    else:
        acct = result.accounting
        print(f"{args.dag} on {args.scheduler}: {result.status}, "
              f"{len(workflow)} stage(s) in {acct.waves} wave(s), "
              f"end {result.end_s:.3f}s")
        header = (f"{'stage':<10s}{'status':<11s}{'execs':>6s}{'retries':>8s}"
                  f"{'recomputes':>11s}{'finished':>10s}")
        print(header)
        print("-" * len(header))
        for report in result.reports:
            finished = (f"{report.finished_s:.3f}"
                        if report.finished_s is not None else "-")
            print(f"{report.stage:<10s}{report.status:<11s}"
                  f"{report.executions:>6d}{report.retries:>8d}"
                  f"{report.recomputes:>11d}{finished:>10s}")
        print("accounting:")
        for key, value in acct.to_dict().items():
            if isinstance(value, float):
                value = f"{value:.3f}"
            print(f"  {key:<26s}{value}")
        print(f"events: {len(result.events)} delivered")

    # Contract: without injected permanent failures the DAG must
    # complete (lineage recovery and retries absorb everything else).
    expect_partial = any(
        n > workflow.stage(stage).policy.max_retries
        for stage, n in fail_stages
    )
    if result.status != "completed" and not expect_partial:
        print(f"run-workflow: contract violation: workflow "
              f"{result.status}", file=sys.stderr)
        return 1
    return 0


def _render_serve_report(label: str, report) -> None:
    pct = report.latency_percentiles
    quantiles = "  ".join(
        f"{name} {value:.3f}s" if value == value else f"{name} -"
        for name, value in pct.items()
    )
    print(f"{label}: {report.offered} offered on {report.servers} server(s)  "
          f"completed {report.completed}  shed {report.shed}  "
          f"killed {report.killed}  retries {report.retries}")
    print(f"  latency   {quantiles}")
    print(f"  goodput   {report.goodput_rps:.2f} req/s  "
          f"utilization {report.utilization:.1%}  "
          f"SLO attainment {report.slo_attainment:.1%}")
    print(f"  {report.procfs.render('overload')}")


def _cmd_serve(args) -> int:
    import json

    from repro.cluster.chaos import run_overload_chaos
    from repro.cluster.serve import ArrivalProcess, ServePolicy, run_service

    if args.compare:
        result = run_overload_chaos(
            seed=args.seed,
            rate_per_s=args.rate,
            num_requests=args.requests,
            servers=args.servers,
            pattern=args.pattern,
            deadline_s=args.deadline,
        )
        if args.format == "json":
            payload = {
                "seed": result.seed,
                "rate_per_s": result.rate_per_s,
                "pattern": result.pattern,
                "deadline_s": result.deadline_s,
                "p99_gap_s": result.p99_gap_s,
                "ordering_holds": result.ordering_holds,
                "protected": result.protected.to_dict(),
                "unprotected": result.unprotected.to_dict(),
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"overload comparison: {args.pattern} arrivals at "
                  f"{args.rate:g} req/s, deadline {args.deadline:g}s")
            _render_serve_report("protected", result.protected)
            _render_serve_report("unprotected", result.unprotected)
            print(f"p99 gap {result.p99_gap_s:.3f}s  "
                  f"degradation ordering holds: {result.ordering_holds}")
        return 0 if result.ordering_holds else 1

    for index, _ in args.limp or ():
        if index >= args.servers:
            args.parser.error(
                f"--limp server {index} is not in the bank "
                f"(have 0..{args.servers - 1})"
            )
    process = ArrivalProcess(rate_per_s=args.rate, pattern=args.pattern)
    if args.unprotected:
        policy = ServePolicy.unprotected(deadline_s=args.deadline)
    else:
        policy = ServePolicy(
            deadline_s=args.deadline,
            max_queue_depth=args.max_queue,
            shed_rate=args.shed_rate,
            shed_threshold=args.shed_threshold,
            retry_budget=args.retries,
        )
    report = run_service(
        process=process,
        num_requests=args.requests,
        servers=args.servers,
        policy=policy,
        seed=args.seed,
        limping_servers=tuple(args.limp or ()),
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        posture = "unprotected" if args.unprotected else "protected"
        _render_serve_report(posture, report)
    return 0


def _cmd_profile(args) -> int:
    from repro.core.suite import DCBench
    from repro.perf.sampling import profile_trace

    suite = DCBench.default()
    spec = suite.entry(args.workload).trace_spec(args.instructions)
    profile = profile_trace(spec, period=args.period)
    print(profile.render(args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DCBench-style workload characterization (IISWC 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the DCBench suite").set_defaults(fn=_cmd_list)
    sub.add_parser("tables", help="print Tables I-III").set_defaults(fn=_cmd_tables)

    run = sub.add_parser("run", help="execute one workload on a simulated cluster")
    run.add_argument("workload")
    run.add_argument("--scale", type=float, default=0.5)
    run.add_argument("--slaves", type=int, default=4)
    run.add_argument("--faults", type=_rate, default=0.0, metavar="RATE",
                     help="per-attempt task failure probability (0 disables)")
    run.add_argument("--seed", type=int, default=0,
                     help="fault-injection seed (runs are reproducible)")
    run.add_argument("--crash-node", metavar="NAME",
                     help="crash this slave mid-run (e.g. slave2)")
    run.add_argument("--crash-time", type=_seconds, default=None, metavar="SECONDS",
                     help="simulated time of the --crash-node crash "
                          "(default 1.0; requires --crash-node)")
    run.add_argument("--master-crash-time", type=_seconds, default=None,
                     metavar="SECONDS",
                     help="crash the JobTracker/NameNode at this simulated time")
    run.add_argument("--recovery", choices=("restart", "resume"), default=None,
                     help="what the restarted master does with in-flight jobs: "
                          "re-submit from scratch (restart, stock 1.x) or "
                          "replay the job-history journal (resume, default); "
                          "requires --master-crash-time")
    run.add_argument("--master-downtime", type=_seconds, default=None,
                     metavar="SECONDS",
                     help="control-plane downtime after the master crash "
                          "(default 0.75; requires --master-crash-time)")
    run.add_argument("--corruption-rate", type=_rate, default=0.0, metavar="RATE",
                     help="per-replica at-rest bit-rot probability "
                          "(corrupt replicas are caught by CRC32 checksums "
                          "on read; 0 disables)")
    run.add_argument("--link-loss", type=_link_rate, default=0.0, metavar="RATE",
                     help="per-segment network loss probability in [0, 1); "
                          "lost segments are retransmitted at TCP-like cost")
    run.add_argument("--racks", type=_count, default=1, metavar="N",
                     help="spread the slaves over N uniform racks "
                          "(default 1: flat, the pre-topology model)")
    run.add_argument("--rack-fail", type=_rack_fail, action="append",
                     metavar="RACK:TIME",
                     help="rack power outage: crash every node in RACK at "
                          "TIME seconds (repeatable; needs --racks >= 2)")
    run.add_argument("--tor-fail", type=_tor_fail, action="append",
                     metavar="RACK:START:DURATION",
                     help="ToR-switch failure: partition every node in RACK "
                          "for DURATION seconds from START (repeatable; "
                          "needs --racks >= 2)")
    run.add_argument("--partition", type=_partition, action="append",
                     metavar="NODE:START:DURATION",
                     help="partition this slave off the network for DURATION "
                          "seconds starting at simulated time START "
                          "(repeatable; e.g. slave2:0.5:2.0)")
    run.add_argument("--scrub", action="store_true",
                     help="run the DataBlockScanner scrubber after the job "
                          "(finds and repairs at-rest corruption)")
    run.set_defaults(fn=_cmd_run, parser=run)

    ch = sub.add_parser("characterize", help="Figures 3-12 metrics")
    ch.add_argument("workloads", nargs="*", help="workload names (default: all)")
    ch.add_argument("--instructions", type=int, default=200_000)
    ch.add_argument("--format", choices=("table", "csv", "json"), default="table")
    ch.add_argument("--engine", choices=("fast", "reference"), default="fast",
                    help="simulation engine (bit-identical; fast is the default)")
    ch.add_argument("--workers", type=_workers, default=None, metavar="N|auto",
                    help="parallelize the suite over N processes")
    ch.add_argument("--no-sim-cache", action="store_true",
                    help="bypass the persistent .repro-cache result cache")
    ch.set_defaults(fn=_cmd_characterize)

    sub.add_parser("speedup", help="the Figure 2 scaling study").set_defaults(
        fn=_cmd_speedup
    )
    sub.add_parser("domains", help="the Figure 1 domain shares").set_defaults(
        fn=_cmd_domains
    )

    col = sub.add_parser("colocate", help="co-locate workloads on one socket")
    col.add_argument("workloads", nargs="+", help="two or more suite workloads")
    col.add_argument("--instructions", type=int, default=80_000)
    col.set_defaults(fn=_cmd_colocate)

    mix = sub.add_parser("mix", help="multi-tenant trace through a scheduler")
    mix.add_argument("--scheduler", choices=("fifo", "fair", "capacity"),
                     default="fair", help="which Hadoop-1.x scheduler to model")
    mix.add_argument("--jobs", type=int, default=8,
                     help="number of trace jobs to generate")
    mix.add_argument("--rate", type=_seconds, default=2.0, metavar="PER_SECOND",
                     help="Poisson arrival rate (simulated jobs per second)")
    mix.add_argument("--trace", metavar="FILE",
                     help="replay a trace JSON (e.g. from gen-trace or "
                          "WorkloadTrace.to_json) instead of generating one; "
                          "--jobs/--rate/--seed are ignored")
    mix.add_argument("--seed", type=int, default=0,
                     help="trace + fault seed (mixes are reproducible)")
    mix.add_argument("--slaves", type=int, default=4)
    mix.add_argument("--map-slots", type=int, default=8,
                     help="map slots per slave")
    mix.add_argument("--reduce-slots", type=int, default=4,
                     help="reduce slots per slave")
    mix.add_argument("--crash-node", metavar="NAME",
                     help="crash this slave mid-trace (e.g. slave2)")
    mix.add_argument("--crash-time", type=_seconds, default=None,
                     metavar="SECONDS",
                     help="simulated time of the --crash-node crash "
                          "(default 0.5; requires --crash-node)")
    mix.add_argument("--racks", type=_count, default=1, metavar="N",
                     help="spread the slaves over N uniform racks "
                          "(default 1: flat, the pre-topology model)")
    mix.add_argument("--rack-fail", type=_rack_fail, action="append",
                     metavar="RACK:TIME",
                     help="rack power outage: crash every node in RACK at "
                          "TIME seconds (repeatable; needs --racks >= 2)")
    mix.add_argument("--tor-fail", type=_tor_fail, action="append",
                     metavar="RACK:START:DURATION",
                     help="ToR-switch failure: partition every node in RACK "
                          "for DURATION seconds from START (repeatable; "
                          "needs --racks >= 2)")
    mix.add_argument("--partition", type=_partition, action="append",
                     metavar="NODE:START:DURATION",
                     help="partition this slave off the network "
                          "(repeatable; e.g. slave1:0.1:1.0)")
    mix.add_argument("--engine", choices=("fast", "reference"), default="fast",
                     help="cluster dispatch engine: fast (indexed, the "
                          "default) or reference; bit-identical by contract")
    mix.add_argument("--no-mix-cache", action="store_true",
                     help="bypass the persistent .repro-cache mix cache "
                          "(the escape hatch; also REPRO_MIX_CACHE=0)")
    mix.add_argument("--colocate", action="store_true",
                     help="characterize the busiest co-located instant "
                          "under a shared LLC")
    mix.add_argument("--instructions", type=int, default=20_000,
                     help="trace length per workload for --colocate")
    mix.add_argument("--format", choices=("table", "json"), default="table")
    mix.set_defaults(fn=_cmd_mix, parser=mix)

    rec = sub.add_parser(
        "record",
        help="run a multi-tenant mix and serialize it as a WfCommons-style "
             "instance JSON",
    )
    rec.add_argument("--trace", metavar="FILE",
                     help="play this trace JSON instead of generating one")
    rec.add_argument("--jobs", type=int, default=8,
                     help="number of jobs in the generated trace")
    rec.add_argument("--rate", type=_positive_rate, default=2.0,
                     metavar="PER_SECOND", help="mean Poisson arrival rate")
    rec.add_argument("--seed", type=int, default=0,
                     help="trace seed (traces are reproducible)")
    rec.add_argument("--scheduler", choices=("fifo", "fair", "capacity"),
                     default="fair")
    rec.add_argument("--slaves", type=int, default=4)
    rec.add_argument("--map-slots", type=int, default=8)
    rec.add_argument("--reduce-slots", type=int, default=4)
    rec.add_argument("--name", default="recorded-mix",
                     help="instance name stored in the JSON")
    rec.add_argument("--output", metavar="FILE",
                     help="write the instance JSON here (default: stdout)")
    rec.set_defaults(fn=_cmd_record, parser=rec)

    fit = sub.add_parser(
        "fit-recipe",
        help="fit a workload recipe (mix, sizes, arrivals, repetitiveness) "
             "from an instance or trace JSON",
    )
    fit.add_argument("instance", help="instance JSON (from record) or "
                                      "trace JSON (from gen-trace)")
    fit.add_argument("--name", default=None,
                     help="recipe name (default: derived from the instance)")
    fit.add_argument("--output", metavar="FILE",
                     help="write the recipe JSON here (default: stdout)")
    fit.set_defaults(fn=_cmd_fit_recipe, parser=fit)

    gen = sub.add_parser(
        "gen-trace",
        help="regenerate a synthetic workload trace of any length from a "
             "fitted recipe",
    )
    gen.add_argument("recipe", help="recipe JSON (from fit-recipe)")
    gen.add_argument("--jobs", type=_count, default=50,
                     help="number of synthetic submissions to generate")
    gen.add_argument("--seed", type=int, default=0,
                     help="generation seed (generation is deterministic)")
    gen.add_argument("--output", metavar="FILE",
                     help="write the trace JSON here (default: stdout)")
    gen.set_defaults(fn=_cmd_gen_trace, parser=gen)

    rep = sub.add_parser(
        "rep-bench",
        help="Redbench-style repetition benchmark: materialization-cache "
             "payoff per repetitiveness bucket",
    )
    rep.add_argument("--buckets", type=_bucket_rates,
                     default=(0.0, 0.25, 0.5, 0.75, 0.95),
                     metavar="R1,R2,...",
                     help="ascending target repeat rates, one bucket each")
    rep.add_argument("--queries", type=_count, default=24,
                     help="queries per bucket")
    rep.add_argument("--seed", type=int, default=0,
                     help="stream seed (streams are reproducible)")
    rep.add_argument("--scale", type=float, default=1.0,
                     help="warehouse table scale")
    rep.add_argument("--slaves", type=int, default=2)
    rep.add_argument("--no-result-cache", action="store_true",
                     help="run with the materialization cache disabled "
                          "(the escape hatch; also REPRO_RESULT_CACHE=0)")
    rep.add_argument("--format", choices=("table", "json"), default="table")
    rep.set_defaults(fn=_cmd_rep_bench, parser=rep)

    serve = sub.add_parser(
        "serve", help="open-loop service traffic through a degrading frontend"
    )
    serve.add_argument("--rate", type=_positive_rate, default=8.0,
                       metavar="PER_SECOND",
                       help="mean open-loop arrival rate (requests per second)")
    serve.add_argument("--requests", type=_count, default=200,
                       help="number of requests to offer")
    serve.add_argument("--servers", type=_count, default=4,
                       help="identical servers in the bank")
    serve.add_argument("--pattern", choices=("poisson", "diurnal", "bursty"),
                       default="poisson", help="arrival process shape")
    serve.add_argument("--seed", type=int, default=0,
                       help="arrival/class/shed seed (runs are reproducible)")
    serve.add_argument("--deadline", type=_positive_rate, default=8.0,
                       metavar="SECONDS", help="per-request deadline (the SLO)")
    serve.add_argument("--max-queue", type=_count, default=64,
                       help="admission-control queue-depth limit")
    serve.add_argument("--shed-rate", type=_rate, default=0.0, metavar="RATE",
                       help="fraction of traffic shed above --shed-threshold")
    serve.add_argument("--shed-threshold", type=_count, default=16,
                       help="queue depth at which shedding starts")
    serve.add_argument("--retries", type=_retry_budget, default=1,
                       help="retry budget for deadline-killed requests [0, 16]")
    serve.add_argument("--limp", type=_limp, action="append",
                       metavar="INDEX:FACTOR",
                       help="limp this server's service time by FACTOR "
                            "(repeatable; e.g. 0:3.0)")
    serve.add_argument("--unprotected", action="store_true",
                       help="disable every degradation control "
                            "(the overload control group)")
    serve.add_argument("--compare", action="store_true",
                       help="run protected vs unprotected on the same "
                            "arrivals; exit 1 if the protected frontend "
                            "does not win on p99")
    serve.add_argument("--format", choices=("table", "json"), default="table")
    serve.set_defaults(fn=_cmd_serve, parser=serve)

    wf = sub.add_parser(
        "run-workflow",
        help="run a multi-stage DAG workflow with lineage-based recovery",
    )
    wf.add_argument("--dag",
                    choices=("hive-chain", "kmeans", "pagerank", "diamond"),
                    default="hive-chain", help="which prebuilt DAG to run")
    wf.add_argument("--scheduler", choices=("fifo", "fair", "capacity"),
                    default="fifo")
    wf.add_argument("--seed", type=int, default=0,
                    help="fault-injection seed (runs are reproducible)")
    wf.add_argument("--scale", type=float, default=0.05,
                    help="input scale of each stage's workload")
    wf.add_argument("--slaves", type=int, default=4)
    wf.add_argument("--crash-node", metavar="NAME",
                    help="crash this slave mid-workflow (e.g. slave2)")
    wf.add_argument("--crash-time", type=_seconds, default=None,
                    metavar="SECONDS",
                    help="workflow-relative time of the --crash-node crash "
                         "(default 1.0; requires --crash-node)")
    wf.add_argument("--partition", type=_partition, action="append",
                    metavar="NODE:START:DURATION",
                    help="partition NODE off the network (repeatable)")
    wf.add_argument("--destroy-output", action="append", metavar="STAGE",
                    help="destroy every replica of STAGE's output right "
                         "after it commits (repeatable; forces a lineage "
                         "recomputation)")
    wf.add_argument("--fail-stage", type=_fail_stage, action="append",
                    metavar="STAGE:N",
                    help="fail STAGE's first N executions at commit "
                         "(repeatable; N past the retry budget cancels "
                         "the downstream cone)")
    wf.add_argument("--master-crash-after", metavar="STAGE",
                    help="crash the JobTracker right after STAGE's wave "
                         "commits; the run resumes from the journal")
    wf.add_argument("--format", choices=("table", "json"), default="table")
    wf.set_defaults(fn=_cmd_workflow, parser=wf)

    prof = sub.add_parser("profile", help="sampled flat profile of a workload")
    prof.add_argument("workload")
    prof.add_argument("--instructions", type=int, default=100_000)
    prof.add_argument("--period", type=int, default=97)
    prof.add_argument("--top", type=int, default=10)
    prof.set_defaults(fn=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — normal CLI etiquette.
        return 0


if __name__ == "__main__":
    sys.exit(main())
