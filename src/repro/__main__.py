"""Command-line interface: ``python -m repro <command>``.

Commands: ``list``, ``tables``, ``run``, ``characterize``, ``speedup``,
``domains``, ``colocate``, ``mix``, ``rep-bench``, ``serve``,
``run-workflow`` and ``profile``.  ``python -m repro <command> --help``
lists a command's flags.

Each flag is declared once, as a ``(name, add_argument keywords)`` pair,
in a group shared by every command that takes it; ``COMMANDS`` holds one
``(name, help, handler, flags)`` row per command and is all
:func:`build_parser` reads.  Each cross-flag check exists once too: the
node/rack fault checks live in :func:`_node_faults`.  Handlers import
what they run when they run, so ``--help`` loads no simulator code.
"""

from __future__ import annotations

import argparse
import math
import sys

# -- argparse types ---------------------------------------------------------------


def _number(cast, lo, hi=None, *, open_lo=False, open_hi=False, what="number"):
    """argparse type factory: a finite *cast* value no lower than *lo* and,
    when given, no higher than *hi*.

    ``open_lo``/``open_hi`` exclude that end.  NaN and ±inf are rejected
    whatever the bounds.
    """
    if hi is None:
        bounds = f"{'>' if open_lo else '>='} {lo}"
    else:
        bounds = f"in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what}") from None
        if not (
            math.isfinite(value)
            and (value > lo if open_lo else value >= lo)
            and (hi is None or (value < hi if open_hi else value <= hi))
        ):
            raise argparse.ArgumentTypeError(f"must be a {what} {bounds}, got {text}")
        return value

    return parse


_RATE = _number(float, 0, 1, what="rate")
_SECONDS = _number(float, 0, what="number of seconds")
_POSITIVE = _number(float, 0, open_lo=True)
_COUNT = _number(int, 1, what="count")


def _spec(metavar: str, *fields, help: str) -> dict:
    """Keywords of a repeatable colon-separated flag such as
    ``NODE:START:DURATION``: each field of *metavar* is parsed by the
    matching type in *fields* (``str`` for a name) and must not be empty."""
    labels = metavar.split(":")

    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != len(fields):
            raise argparse.ArgumentTypeError(f"expected {metavar}, got {text!r}")
        values = []
        for label, field, part in zip(labels, fields, parts):
            if not part:
                raise argparse.ArgumentTypeError(
                    f"{label} must not be empty, got {text!r}"
                )
            try:
                values.append(field(part))
            except argparse.ArgumentTypeError as error:
                raise argparse.ArgumentTypeError(f"{label}: {error}") from None
        return tuple(values)

    return dict(type=parse, action="append", metavar=metavar, help=help)


def _bucket_rates(text: str) -> tuple[float, ...]:
    """argparse type: comma-separated ascending repeat rates in [0, 1]."""
    rates = tuple(_RATE(part) for part in text.split(","))
    if list(rates) != sorted(rates):
        raise argparse.ArgumentTypeError(f"rates must be ascending, got {text!r}")
    return rates


def _workers(text: str):
    """argparse type: a positive worker count or the literal "auto"."""
    return "auto" if text == "auto" else _COUNT(text)


# -- flags shared between commands, each declared once ---------------------------


def _with(flag: tuple, **changes) -> tuple:
    """*flag* with some of its ``add_argument`` keywords replaced."""
    name, kwargs = flag
    return name, {**kwargs, **changes}


_WORKLOAD = ("workload", dict(help="suite workload name (see list)"))
_SEED = ("--seed", dict(type=int, default=0,
                        help="seed of every random choice the command makes "
                             "(runs are reproducible)"))
_SCALE = ("--scale", dict(type=_POSITIVE, help="workload input scale"))
_INSTRUCTIONS = ("--instructions", dict(type=_COUNT,
                                        help="trace length per workload"))
_ENGINE = ("--engine", dict(choices=("fast", "reference"), default="fast",
                            help="simulation/dispatch engine: fast (the "
                                 "default) or reference; bit-identical by "
                                 "contract"))
_FORMAT = ("--format", dict(choices=("table", "json"), default="table"))
_SCHEDULER = ("--scheduler", dict(choices=("fifo", "fair", "capacity"),
                                  default="fair",
                                  help="which Hadoop-1.x scheduler to model"))
_ARRIVAL_RATE = ("--rate", dict(type=_POSITIVE, default=2.0, metavar="PER_SECOND",
                                help="mean Poisson arrival rate "
                                     "(simulated jobs per second)"))
_SLAVES = ("--slaves", dict(type=_COUNT, default=4,
                            help="number of simulated slave nodes"))

_CLUSTER_SHAPE = (
    _SLAVES,
    ("--map-slots", dict(type=_COUNT, default=8, help="map slots per slave")),
    ("--reduce-slots", dict(type=_COUNT, default=4, help="reduce slots per slave")),
)

_RACKS = (
    ("--racks", dict(type=_COUNT, default=1, metavar="N",
                     help="spread the slaves over N uniform racks "
                          "(default 1: flat, the pre-topology model)")),
    ("--rack-fail", _spec("RACK:TIME", str, _SECONDS,
                          help="rack power outage: crash every node in RACK "
                               "at TIME seconds (repeatable; needs "
                               "--racks >= 2)")),
    ("--tor-fail", _spec("RACK:START:DURATION", str, _SECONDS, _POSITIVE,
                         help="ToR-switch failure: partition every node in "
                              "RACK for DURATION seconds from START "
                              "(repeatable; needs --racks >= 2)")),
)

#: each fault-injecting command's default ``--crash-time`` (simulated s)
_CRASH_S = {"run": 1.0, "mix": 0.5, "run-workflow": 1.0}


def _node_fault_flags(command: str) -> tuple:
    """``--crash-node/--crash-time/--partition`` for *command*."""
    return (
        ("--crash-node", dict(metavar="NAME",
                              help="crash this slave mid-run (e.g. slave2)")),
        ("--crash-time", dict(type=_SECONDS, metavar="SECONDS",
                              help="simulated time of the --crash-node crash "
                                   f"(default {_CRASH_S[command]}; requires "
                                   "--crash-node)")),
        ("--partition", _spec("NODE:START:DURATION", str, _SECONDS, _POSITIVE,
                              help="partition NODE off the network for "
                                   "DURATION seconds from START (repeatable; "
                                   "e.g. slave2:0.5:2.0)")),
    )


# -- checks and rendering shared between commands -------------------------------


def _node_faults(args) -> tuple[tuple, tuple, tuple, tuple]:
    """Check the node and rack fault flags against the cluster they name and
    return ``(node_crashes, partitions, rack_outages, tor_failures)``."""
    from repro.cluster.cluster import slave_names
    from repro.cluster.topology import Topology

    error = args.parser.error
    racks = getattr(args, "racks", 1)
    partitions = tuple(args.partition or ())
    rack_outages = tuple(getattr(args, "rack_fail", None) or ())
    tor_failures = tuple(getattr(args, "tor_fail", None) or ())
    if args.crash_time is not None and not args.crash_node:
        error("--crash-time requires --crash-node")
    if (rack_outages or tor_failures) and racks < 2:
        error("--rack-fail/--tor-fail require --racks >= 2")
    if racks > args.slaves:
        error(f"--racks {racks} exceeds --slaves {args.slaves}")
    nodes = slave_names(args.slaves)
    rack_names = Topology.uniform(nodes, racks).racks if racks > 1 else ()
    for flag, kind, known, names in (
        ("--crash-node", "slave", nodes, [args.crash_node] if args.crash_node else []),
        ("--partition node", "slave", nodes, [spec[0] for spec in partitions]),
        ("--rack-fail rack", "rack", rack_names, [spec[0] for spec in rack_outages]),
        ("--tor-fail rack", "rack", rack_names, [spec[0] for spec in tor_failures]),
    ):
        for name in names:
            if name not in known:
                error(f"{flag} {name!r} is not a {kind} (have: {', '.join(known)})")
    node_crashes = ()
    if args.crash_node:
        crash_s = _CRASH_S[args.command] if args.crash_time is None else args.crash_time
        node_crashes = ((args.crash_node, crash_s),)
    return node_crashes, partitions, rack_outages, tor_failures


def _print_block(title: str | None, items: dict, width: int) -> None:
    """Print a ``key value`` block: floats to three places, sequences
    comma-joined (``-`` when empty)."""
    if title:
        print(title)
    for key, value in items.items():
        if isinstance(value, (tuple, list)):
            value = ", ".join(value) or "-"
        elif isinstance(value, float):
            value = f"{value:.3f}"
        print(f"  {key:<{width}s}{value}")


# -- command handlers ------------------------------------------------------------


def _cmd_list(_args) -> int:
    from repro.core.suite import DCBench

    suite = DCBench.default()
    print(f"{'workload':<18s}{'group':<15s}info")
    print("-" * 70)
    for entry in suite:
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
    from repro.cluster.faults import aggregate_accounting
    from repro.workloads import workload

    parser = args.parser
    if args.recovery is not None and args.master_crash_time is None:
        parser.error("--recovery requires --master-crash-time")
    if args.master_downtime is not None and args.master_crash_time is None:
        parser.error("--master-downtime requires --master-crash-time")
    node_crashes, partitions, rack_outages, tor_failures = _node_faults(args)

    wl = workload(args.workload)
    cluster = make_cluster(args.slaves, block_size=64 * 1024, racks=args.racks)
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
    faulty = plan.injects_faults or plan.scrub
    if faulty:
        cluster = FaultyCluster(cluster, plan)
    try:
        run = wl.run(scale=args.scale, cluster=cluster)
    except JobFailedError as error:
        print(f"{wl.info.name}: {error}", file=sys.stderr)
        return 1
    print(f"{wl.info.name}: {len(run.job_results)} job(s), "
          f"{run.duration_s:.3f}s simulated on {args.slaves} slave(s)")
    _print_block(None, {
        **run.counters.as_dict(),
        "Disk writes per second": f"{run.disk_writes_per_second():.1f}",
    }, 28)
    if faulty:
        _print_block("resilience accounting:", aggregate_accounting(run.timelines), 28)
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

    if len(args.workloads) < 2 or len(set(args.workloads)) != len(args.workloads):
        args.parser.error("colocate needs two or more distinct workloads, "
                          f"got {' '.join(args.workloads)}")
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

    from repro.cluster import FaultPlan, JobFailedError
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

    node_crashes, partitions, rack_outages, tor_failures = _node_faults(args)
    plan = None
    if node_crashes or partitions or rack_outages or tor_failures:
        plan = FaultPlan(
            node_crashes=node_crashes,
            partitions=partitions,
            rack_outages=rack_outages,
            tor_failures=tor_failures,
            seed=args.seed,
        )
    if args.trace:
        try:
            with open(args.trace, encoding="utf-8") as fh:
                trace = WorkloadTrace.from_json(fh.read())
        except OSError as error:
            print(f"mix: cannot read {args.trace}: {error}", file=sys.stderr)
            return 2
        except (ValueError, TypeError, KeyError) as error:
            print(f"mix: {args.trace}: {error}", file=sys.stderr)
            return 2
    else:
        trace = generate_trace(
            seed=args.seed, num_jobs=args.jobs, arrival_rate_per_s=args.rate
        )
    scheduler = make_scheduler(
        args.scheduler, pools=default_pools(trace), queues=default_queues(trace)
    )
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
            mix_cache=None if args.no_mix_cache else MixCache(),
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
        _print_block("fault accounting:", mix.outcome.fault_accounting.to_dict(), 27)
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


def _cmd_rep_bench(args) -> int:
    import json

    from repro.hive import run_repetition_benchmark

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
    node_crashes, partitions, _, _ = _node_faults(args)
    workflow = build_workflow(
        args.dag, scale=args.scale, num_slaves=args.slaves
    )
    stages = set(workflow.order)
    destroy = tuple(args.destroy_output or ())
    fail_stages = tuple(args.fail_stage or ())
    named = [("--destroy-output", name) for name in destroy]
    named += [("--fail-stage", name) for name, _ in fail_stages]
    if args.master_crash_after:
        named.append(("--master-crash-after", args.master_crash_after))
    for flag, name in named:
        if name not in stages:
            parser.error(f"{flag} stage {name!r} is not in "
                         f"{args.dag} (have: {', '.join(workflow.order)})")

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
        _print_block("accounting:", acct.to_dict(), 26)
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


#: serve's degradation-posture flags, which --compare replaces with its own;
#: each defaults to None, so a flag given at ServePolicy's default value
#: still counts as given
_POSTURE = ("limp", "unprotected", "max_queue", "shed_rate", "shed_threshold",
            "retries")


def _cmd_serve(args) -> int:
    import json

    from repro.cluster.serve import ArrivalProcess, ServePolicy, run_service

    parser = args.parser
    process = ArrivalProcess(rate_per_s=args.rate, pattern=args.pattern)
    if args.compare:
        ignored = [f"--{dest.replace('_', '-')}" for dest in _POSTURE
                   if getattr(args, dest) is not None]
        if ignored:
            parser.error(f"--compare runs its own protected and unprotected "
                         f"postures; drop {', '.join(ignored)}")
        protected, unprotected = (
            run_service(process=process, num_requests=args.requests,
                        servers=args.servers, policy=posture(args.deadline),
                        seed=args.seed)
            for posture in (ServePolicy.protected, ServePolicy.unprotected)
        )
        p99_gap_s = unprotected.p99_s - protected.p99_s
        ordering_holds = protected.p99_s < unprotected.p99_s
        if args.format == "json":
            payload = {
                "seed": args.seed,
                "rate_per_s": args.rate,
                "pattern": args.pattern,
                "deadline_s": args.deadline,
                "p99_gap_s": p99_gap_s,
                "ordering_holds": ordering_holds,
                "protected": protected.to_dict(),
                "unprotected": unprotected.to_dict(),
            }
            print(json.dumps(payload, indent=2))
        else:
            print(f"overload comparison: {args.pattern} arrivals at "
                  f"{args.rate:g} req/s, deadline {args.deadline:g}s")
            _render_serve_report("protected", protected)
            _render_serve_report("unprotected", unprotected)
            print(f"p99 gap {p99_gap_s:.3f}s  "
                  f"degradation ordering holds: {ordering_holds}")
        return 0 if ordering_holds else 1

    for index, _ in args.limp or ():
        if index >= args.servers:
            parser.error(
                f"--limp server {index} is not in the bank "
                f"(have 0..{args.servers - 1})"
            )
    if args.unprotected:
        policy = ServePolicy.unprotected(deadline_s=args.deadline)
    else:
        knobs = dict(
            max_queue_depth=args.max_queue,
            shed_rate=args.shed_rate,
            shed_threshold=args.shed_threshold,
            retry_budget=args.retries,
        )
        policy = ServePolicy(
            deadline_s=args.deadline,
            **{knob: value for knob, value in knobs.items() if value is not None},
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


# -- the command table -----------------------------------------------------------

COMMANDS = (
    ("list", "list the DCBench suite", _cmd_list, ()),
    ("tables", "print Tables I-III", _cmd_tables, ()),
    ("run", "execute one workload on a simulated cluster, optionally under "
            "fault injection", _cmd_run, (
        _WORKLOAD,
        _with(_SCALE, default=0.5),
        _SLAVES,
        _SEED,
        ("--faults", dict(type=_RATE, default=0.0, metavar="RATE",
                          help="per-attempt task failure probability "
                               "(0 disables)")),
        *_node_fault_flags("run"),
        ("--master-crash-time", dict(type=_SECONDS, metavar="SECONDS",
                                     help="crash the JobTracker/NameNode at "
                                          "this simulated time")),
        ("--recovery", dict(choices=("restart", "resume"),
                            help="restarted master re-submits in-flight jobs "
                                 "(restart, stock 1.x) or replays the job-history "
                                 "journal (resume, default); requires "
                                 "--master-crash-time")),
        ("--master-downtime", dict(type=_SECONDS, metavar="SECONDS",
                                   help="control-plane downtime after the master "
                                        "crash (default 0.75; requires "
                                        "--master-crash-time)")),
        ("--corruption-rate", dict(type=_RATE, default=0.0, metavar="RATE",
                                   help="per-replica at-rest bit-rot probability, "
                                        "caught by CRC32 checksums on read")),
        ("--link-loss", dict(type=_number(float, 0, 1, open_hi=True, what="rate"),
                             default=0.0, metavar="RATE",
                             help="per-segment network loss probability; lost "
                                  "segments are retransmitted at TCP-like cost")),
        *_RACKS,
        ("--scrub", dict(action="store_true",
                         help="run the DataBlockScanner scrubber after the job")),
    )),
    ("characterize", "Figures 3-12 metrics", _cmd_characterize, (
        ("workloads", dict(nargs="*", help="workload names (default: all)")),
        _with(_INSTRUCTIONS, default=200_000),
        _with(_FORMAT, choices=("table", "csv", "json")),
        _ENGINE,
        ("--workers", dict(type=_workers, metavar="N|auto",
                           help="parallelize the suite over N processes")),
        ("--no-sim-cache", dict(action="store_true",
                                help="bypass the persistent .repro-cache")),
    )),
    ("speedup", "the Figure 2 scaling study", _cmd_speedup, ()),
    ("domains", "the Figure 1 domain shares", _cmd_domains, ()),
    ("colocate", "co-locate workloads on one socket", _cmd_colocate, (
        ("workloads", dict(nargs="+", help="two or more distinct suite workloads")),
        _with(_INSTRUCTIONS, default=80_000),
    )),
    ("mix", "multi-tenant trace through a scheduler", _cmd_mix, (
        ("--trace", dict(metavar="FILE",
                         help="replay this trace JSON (as written by "
                              "WorkloadTrace.to_json) instead of generating "
                              "one; --jobs and --rate are then ignored, and "
                              "--seed seeds only the fault plan")),
        ("--jobs", dict(type=_COUNT, default=8, help="number of trace jobs")),
        _ARRIVAL_RATE,
        _SEED,
        _SCHEDULER,
        *_CLUSTER_SHAPE,
        *_node_fault_flags("mix"),
        *_RACKS,
        _ENGINE,
        ("--no-mix-cache", dict(action="store_true",
                                help="bypass the persistent .repro-cache "
                                     "(also REPRO_MIX_CACHE=0)")),
        ("--colocate", dict(action="store_true",
                            help="characterize the busiest co-located instant")),
        _with(_INSTRUCTIONS, default=20_000),
        _FORMAT,
    )),
    ("rep-bench", "Redbench-style repetition benchmark: materialization-cache "
                  "payoff per repetitiveness bucket", _cmd_rep_bench, (
        ("--buckets", dict(type=_bucket_rates, default=(0.0, 0.25, 0.5, 0.75, 0.95),
                           metavar="R1,R2,...",
                           help="ascending target repeat rates, one bucket each")),
        ("--queries", dict(type=_COUNT, default=24, help="queries per bucket")),
        _SEED,
        _with(_SCALE, default=1.0),
        _with(_SLAVES, default=2),
        ("--no-result-cache", dict(action="store_true",
                                   help="disable the materialization cache "
                                        "(also REPRO_RESULT_CACHE=0)")),
        _FORMAT,
    )),
    ("serve", "open-loop service traffic through a degrading frontend",
     _cmd_serve, (
        _with(_ARRIVAL_RATE, default=8.0,
              help="mean open-loop arrival rate (requests per second)"),
        ("--requests", dict(type=_COUNT, default=200,
                            help="number of requests to offer")),
        ("--servers", dict(type=_COUNT, default=4,
                           help="identical servers in the bank")),
        ("--pattern", dict(choices=("poisson", "diurnal", "bursty"),
                           default="poisson", help="arrival process shape")),
        _SEED,
        ("--deadline", dict(type=_POSITIVE, default=8.0, metavar="SECONDS",
                            help="per-request deadline (the SLO)")),
        ("--max-queue", dict(type=_COUNT,
                             help="admission-control queue-depth limit")),
        ("--shed-rate", dict(type=_RATE, metavar="RATE",
                             help="fraction of traffic shed above --shed-threshold")),
        ("--shed-threshold", dict(type=_COUNT,
                                  help="queue depth at which shedding starts")),
        ("--retries", dict(type=_number(int, 0, 16, what="retry budget"),
                           help="retry budget for deadline-killed requests")),
        ("--limp", _spec("INDEX:FACTOR", _number(int, 0, what="server index"),
                         _number(float, 1),
                         help="limp this server's service time by FACTOR "
                              "(repeatable; e.g. 0:3.0)")),
        ("--unprotected", dict(action="store_true", default=None,
                               help="disable every degradation control "
                                    "(the overload control group)")),
        ("--compare", dict(action="store_true",
                           help="run protected vs unprotected on the same arrivals "
                                "(no posture flags); exit 1 unless protected "
                                "wins on p99")),
        _FORMAT,
    )),
    ("run-workflow", "run a multi-stage DAG workflow with lineage-based "
                     "recovery", _cmd_workflow, (
        ("--dag", dict(choices=("hive-chain", "kmeans", "pagerank", "diamond"),
                       default="hive-chain", help="which prebuilt DAG to run")),
        _with(_SCHEDULER, default="fifo"),
        _SEED,
        _with(_SCALE, default=0.05),
        _SLAVES,
        *_node_fault_flags("run-workflow"),
        ("--destroy-output", dict(action="append", metavar="STAGE",
                                  help="destroy every replica of STAGE's output "
                                       "once it commits (repeatable)")),
        ("--fail-stage", _spec("STAGE:N", str, _COUNT,
                               help="fail STAGE's first N executions at commit "
                                    "(repeatable)")),
        ("--master-crash-after", dict(metavar="STAGE",
                                      help="crash the JobTracker right after "
                                           "STAGE's wave commits")),
        _FORMAT,
    )),
    ("profile", "sampled flat profile of a workload", _cmd_profile, (
        _WORKLOAD,
        _with(_INSTRUCTIONS, default=100_000),
        ("--period", dict(type=_COUNT, default=97,
                          help="sample every N-th retired op")),
        ("--top", dict(type=_COUNT, default=10, help="rows to print")),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DCBench-style workload characterization (IISWC 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, flags in COMMANDS:
        command = sub.add_parser(name, help=summary)
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
        command.set_defaults(fn=handler, parser=command)
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
