"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``env``          print the simulated testbed configuration (Table II)
``run``          run paper experiments and print their tables; ``--trace``
                 / ``--trace-perfetto`` / ``--metrics`` record and export
                 command-lifecycle observability data; ``--telemetry``
                 samples windowed timeseries and persists a run
                 directory (``--run-dir``) for ``repro report``
``report``       render a run directory written by ``run --telemetry``
                 into a self-contained HTML dashboard (tables + inline
                 SVG sparklines, no external assets)
``profile``      run one experiment traced and print the per-layer
                 simulated-time breakdown (``--self`` for a built-in
                 smoke workload)
``observations`` run the experiments needed for the 13 observations and
                 report which reproduce (Table I); points fan out over
                 ``--jobs`` workers and replay from ``--cache``
``cache``        manage the point-result cache (``cache prune`` deletes
                 entries orphaned by code changes)
``faults``       inspect fault-injection profiles (``faults list`` shows
                 the built-in presets accepted by ``run --faults``)
``list``         list available experiment ids, including the auxiliary
                 ``sec4`` (the §IV emulator-fidelity matrix, one point
                 per latency model), which ``run`` executes only when
                 named: ``repro run sec4``
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .core import ExperimentConfig, table1, table2
from .obs import MetricsRegistry, Tracer
from .obs.telemetry import DEFAULT_INTERVAL_US
from .sim.engine import ms


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig(seed=args.seed)
    if args.fast:
        config = ExperimentConfig(
            seed=args.seed,
            point_runtime_ns=ms(3),
            ramp_ns=ms(0.5),
            zones_per_level=5,
            interference_reset_zones=12,
            interference_runtime_ns=ms(600),
        )
    if args.scale != 1.0:
        config = config.scaled(args.scale)
    if getattr(args, "faults", None):
        config = dataclasses.replace(config, faults=args.faults)
    if getattr(args, "stack", None):
        config = dataclasses.replace(config, stacks=tuple(args.stack))
    if getattr(args, "tenants", None):
        config = dataclasses.replace(config, fleet_tenants=args.tenants)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the CLUSTER'23 ZNS characterization paper "
                    "on a simulated device.",
    )
    parser.add_argument("--seed", type=int, default=0x5EED,
                        help="root seed for all random streams")
    parser.add_argument("--fast", action="store_true",
                        help="reduced statistical scale (quick look)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply experiment durations/sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("env", help="print the simulated environment (Table II)")
    sub.add_parser("list", help="list experiment ids")
    run_parser = sub.add_parser("run", help="run experiments, print tables")
    run_parser.add_argument("ids", nargs="*",
                            help="experiment ids (default: all; see 'list')")
    run_parser.add_argument("--jobs", "-j", type=int, default=1,
                            help="worker processes for the sweep points "
                                 "(default 1 = in-process; output is "
                                 "byte-identical at any job count)")
    run_parser.add_argument("--cache", metavar="DIR", default=".repro_cache",
                            help="point-result cache directory (default "
                                 "%(default)s); doubles as a checkpoint "
                                 "for interrupted sweeps")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="recompute every point; neither read nor "
                                 "write the cache")
    run_parser.add_argument("--trace", metavar="PATH",
                            help="record command-lifecycle spans to a "
                                 "JSON-lines file (ns timestamps); runs "
                                 "every point in-process in plan order "
                                 "(--jobs and the cache are ignored)")
    run_parser.add_argument("--trace-perfetto", metavar="PATH",
                            help="also export the Chrome trace_event JSON "
                                 "(loadable in Perfetto / chrome://tracing)")
    run_parser.add_argument("--metrics", action="store_true",
                            help="print the metrics-registry table after "
                                 "the run")
    run_parser.add_argument("--stack", metavar="NAME", action="append",
                            default=None,
                            help="restrict the stack-comparison sweeps "
                                 "(fig2a/fig2b) to this stack; repeatable. "
                                 "Choices: spdk, thrpool, iouring-none, "
                                 "iouring-mq-deadline")
    run_parser.add_argument("--faults", metavar="SPEC", default=None,
                            help="inject faults: a preset name (see "
                                 "'faults list') or a JSON profile path; "
                                 "deterministic under --seed and --jobs")
    run_parser.add_argument("--tenants", metavar="N", type=int, default=None,
                            help="serving tenants sharing the fig7_fleet "
                                 "device (default 3); flows through cache "
                                 "keys like every other config knob")
    run_parser.add_argument("--telemetry", metavar="US", nargs="?",
                            type=float, const=DEFAULT_INTERVAL_US,
                            default=None,
                            help="sample windowed telemetry every US "
                                 "simulated microseconds (default "
                                 f"{DEFAULT_INTERVAL_US:g}) and persist a "
                                 "run directory; timeseries are "
                                 "byte-identical at any --jobs")
    run_parser.add_argument("--run-dir", metavar="DIR", default=None,
                            help="run-directory path (default "
                                 "runs/<timestamp> when --telemetry is "
                                 "on); view with 'repro report DIR'")
    report_parser = sub.add_parser(
        "report", help="render a run directory to a self-contained "
                       "HTML dashboard")
    report_parser.add_argument("run_dir",
                               help="directory written by run --telemetry")
    report_parser.add_argument("--output", "-o", metavar="PATH",
                               default=None,
                               help="output HTML path (default "
                                    "<run_dir>/report.html; '-' prints "
                                    "to stdout)")
    profile_parser = sub.add_parser(
        "profile", help="trace one experiment, print per-layer breakdown")
    profile_parser.add_argument("experiment", nargs="?",
                                help="experiment id (see 'list')")
    profile_parser.add_argument("--self", dest="self_profile",
                                action="store_true",
                                help="profile a built-in smoke workload "
                                     "instead of an experiment")
    profile_parser.add_argument("--trace", metavar="PATH",
                                help="also write the JSON-lines trace")
    profile_parser.add_argument("--points", action="store_true",
                                help="report per-point wall-clock instead "
                                     "of the simulated-time breakdown")
    profile_parser.add_argument("--jobs", "-j", type=int, default=1,
                                help="worker processes for --points")
    obs_parser = sub.add_parser(
        "observations", help="evaluate the 13 observations (Table I)")
    obs_parser.add_argument(
        "--skip-interference", action="store_true",
        help="skip the minutes-long fig6/obs11/fig7 experiments")
    obs_parser.add_argument("--jobs", "-j", type=int, default=1,
                            help="worker processes for the sweep points "
                                 "(default 1 = in-process; checks are "
                                 "identical at any job count)")
    obs_parser.add_argument("--cache", metavar="DIR", default=".repro_cache",
                            help="point-result cache directory (default "
                                 "%(default)s)")
    obs_parser.add_argument("--no-cache", action="store_true",
                            help="recompute every point; neither read nor "
                                 "write the cache")
    cache_parser = sub.add_parser(
        "cache", help="manage the point-result cache")
    cache_sub = cache_parser.add_subparsers(dest="cache_command",
                                            required=True)
    prune_parser = cache_sub.add_parser(
        "prune", help="delete cache entries from older code versions")
    prune_parser.add_argument("--cache", metavar="DIR",
                              default=".repro_cache",
                              help="cache directory (default %(default)s)")
    prune_parser.add_argument("--dry-run", action="store_true",
                              help="report what would be deleted, delete "
                                   "nothing")
    faults_parser = sub.add_parser(
        "faults", help="inspect fault-injection profiles")
    faults_sub = faults_parser.add_subparsers(dest="faults_command",
                                              required=True)
    faults_sub.add_parser(
        "list", help="list the built-in fault presets (for run --faults)")

    args = parser.parse_args(argv)

    if args.command == "env":
        print(table2())
        return 0

    if args.command == "list":
        from .core.experiments.points import experiment_plans

        default = experiment_plans()
        for exp_id in experiment_plans(auxiliary=True):
            print(exp_id if exp_id in default
                  else f"{exp_id}  (auxiliary: run only when named)")
        return 0

    if args.command == "run":
        config = _config_from_args(args)
        if config.stacks is not None:
            from .core.experiments.common import STACKS

            unknown = [name for name in config.stacks if name not in STACKS]
            if unknown:
                run_parser.error(
                    f"unknown stack(s) {', '.join(unknown)} "
                    f"(choose from {', '.join(STACKS)})"
                )
        if config.faults is not None:
            from .faults.plan import FaultPlanError, resolve

            try:
                plan = resolve(config.faults)
            except FaultPlanError as exc:
                run_parser.error(str(exc))
            if plan is not None:
                print(f"[faults] profile {plan.name!r} active "
                      "(deterministic under --seed)", file=sys.stderr)
        tracer = Tracer() if (args.trace or args.trace_perfetto) else None
        metrics = MetricsRegistry() if args.metrics else None
        if tracer is not None or metrics is not None:
            config = dataclasses.replace(config, tracer=tracer, metrics=metrics)
        telemetry_us = args.telemetry
        if telemetry_us is not None:
            if telemetry_us <= 0:
                run_parser.error("--telemetry interval must be > 0 µs")
            config = dataclasses.replace(
                config, telemetry_interval_ns=int(telemetry_us * 1000))
        jobs, cache_dir = args.jobs, None if args.no_cache else args.cache
        if tracer is not None:
            # Tracing records one in-process timeline; spans cannot be
            # merged across workers or replayed from the cache.
            if jobs != 1:
                print("[exec] --trace forces a serial in-process run; "
                      "ignoring --jobs", file=sys.stderr)
            jobs, cache_dir = 1, None
        from .exec import execute_experiments

        results, report = execute_experiments(
            args.ids or None, config, jobs=jobs, cache_dir=cache_dir,
            progress=lambda message: print(message, file=sys.stderr),
        )
        for result in results.values():
            print(result.table())
            print()
        if args.run_dir is not None or telemetry_us is not None:
            import time

            from .obs.report import write_run

            run_dir = args.run_dir or time.strftime("runs/%Y%m%d-%H%M%S")
            manifest = {
                "ids": sorted(results),
                "seed": args.seed,
                "fast": args.fast,
                "scale": args.scale,
                "faults": config.faults,
                "interval_us": telemetry_us,
                "jobs": jobs,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
            paths = write_run(run_dir, results, report, manifest)
            print(f"[run] wrote {len(paths)} artifacts -> {run_dir} "
                  f"(view: repro report {run_dir})", file=sys.stderr)
        if tracer is not None:
            if args.trace:
                count = tracer.write_jsonl(args.trace)
                print(f"[trace] {count} events -> {args.trace}")
            if args.trace_perfetto:
                count = tracer.write_chrome_trace(args.trace_perfetto)
                print(f"[trace] {count} trace_event records -> "
                      f"{args.trace_perfetto}")
        if metrics is not None:
            print()
            print(metrics.table())
        return 0

    if args.command == "report":
        from .obs.report import load_run, render_html

        try:
            run = load_run(args.run_dir)
        except (FileNotFoundError, ValueError) as exc:
            report_parser.error(str(exc))
        page = render_html(run)
        if args.output == "-":
            sys.stdout.write(page)
            return 0
        out_path = args.output or os.path.join(args.run_dir, "report.html")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(page)
        segments = sum(len(v) for v in run["telemetry"].values())
        print(f"[report] {len(run['results'])} experiments, "
              f"{segments} telemetry segments -> {out_path}")
        return 0

    if args.command == "profile":
        from .obs.profile import profile_experiment, run_self_profile

        if args.points:
            if not args.experiment:
                profile_parser.error("--points needs an experiment id")
            from .exec import execute_experiments

            config = _config_from_args(args)
            _results, report = execute_experiments(
                [args.experiment], config, jobs=args.jobs,
                progress=lambda message: print(message, file=sys.stderr),
            )
            print(f"[profile] experiment {args.experiment} (wall clock)")
            print(report.table())
            return 0
        if args.self_profile:
            import time

            from .sim.engine import events_total

            events_before = events_total()
            wall_started = time.perf_counter()
            tracer, breakdown = run_self_profile()
            wall_s = time.perf_counter() - wall_started
            events = events_total() - events_before
            print("[profile] built-in smoke workload (zn540_small)")
            print(f"[profile] {events} events in {wall_s * 1e3:.1f} ms "
                  f"({events / wall_s:,.0f} events/sec)")
        elif args.experiment:
            config = _config_from_args(args)
            tracer, breakdown, _result = profile_experiment(
                args.experiment, config)
            print(f"[profile] experiment {args.experiment}")
        else:
            profile_parser.error("give an experiment id or --self")
        print(breakdown.table())
        if args.trace:
            count = tracer.write_jsonl(args.trace)
            print(f"[trace] {count} events -> {args.trace}")
        return 0

    if args.command == "observations":
        from .core.observations import run_observation_suite

        config = _config_from_args(args)
        checks = run_observation_suite(
            config, jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache,
            skip_interference=args.skip_interference,
            progress=lambda message: print(message, file=sys.stderr),
        )
        for check in checks:
            print(check)
        print()
        print(table1(checks))
        return 0 if all(c.passed for c in checks) else 1

    if args.command == "cache":
        from .exec.cache import ResultCache

        if args.cache_command == "prune":
            cache = ResultCache(args.cache)
            stale, kept = cache.prune(dry_run=args.dry_run)
            verb = "would delete" if args.dry_run else "deleted"
            print(f"[cache] {verb} {len(stale)} stale entr"
                  f"{'y' if len(stale) == 1 else 'ies'}, "
                  f"kept {kept} current ({args.cache})")
            if args.dry_run:
                for path in stale:
                    print(f"[cache]   {path}")
            return 0

    if args.command == "faults":
        from .faults.plan import describe_presets

        if args.faults_command == "list":
            pairs = describe_presets()
            width = max(len(name) for name, _ in pairs)
            for name, note in pairs:
                print(f"{name:<{width}}  {note}")
            print()
            print("Use with: repro run --faults <name>  (or a JSON "
                  "profile path; see DESIGN.md section 12)")
            return 0

    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
