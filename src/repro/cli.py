"""Command-line interface.

Two halves:

* reproduction — regenerate the paper's figures::

      ocd-repro list
      ocd-repro run fig4 [--paper-scale] [--csv-dir out/]
      ocd-repro run all --paper-scale --csv-dir results/

* toolkit — work with OCD instances as JSON files::

      ocd-repro generate --family random --out problem.json
      ocd-repro solve problem.json
      ocd-repro simulate problem.json --heuristic local --render
      ocd-repro compare problem.json

* observability — record and inspect run traces
  (``docs/OBSERVABILITY.md``)::

      ocd-repro trace problem.json --heuristic all --out trace.jsonl
      ocd-repro trace random --size 20 --tokens 8 --profile
      ocd-repro report trace.jsonl
      ocd-repro run fig2 --trace-dir traces/

* trace analytics — consume traces (``repro.obs.analyze``)::

      ocd-repro trace-diff a.trace.jsonl b.trace.jsonl
      ocd-repro trace-verify trace.jsonl [more.jsonl ...]
      ocd-repro trace-attribute trace.jsonl --format json
      ocd-repro trace-export trace.jsonl --format chrome --out run.chrome.json
      ocd-repro trace-scan traces/ --fail-on-anomaly

  ``report``, ``trace-verify``, ``trace-scan`` and ``trace-attribute``
  all take ``--format json`` for deterministic sorted-key JSON output.
  Every analytic reads finished traces in one post-hoc pass.

* live monitoring — follow a sweep while it runs
  (``repro.obs.live``)::

      ocd-repro run fig2 --ledger results/ledger.jsonl --trace-dir traces/
      ocd-repro watch results/ledger.jsonl --trace traces/
      ocd-repro watch results/ledger.jsonl --once --fail-on-anomaly

  ``watch`` follows the ledger; its ``--trace`` verdict is one
  ``trace-scan`` pass once the ledger shows ``sweep_end``.

(equivalently ``python -m repro ...``).  Problem files are the
``Problem.to_dict`` JSON form.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import List, Optional

from repro.core.problem import Problem

__all__ = ["main"]

_GENERATE_FAMILIES = ("random", "bottleneck", "dag", "spread")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocd-repro",
        description=(
            "Reproduction of 'The Overlay Network Content Distribution "
            "Problem' (Killian et al., 2005): regenerate the evaluation "
            "figures, or solve/simulate OCD instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (figure number) or 'all'")
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full parameters (minutes instead of seconds)",
    )
    run.add_argument(
        "--csv-dir",
        default=None,
        help="also write each experiment's rows to <dir>/<id>.csv",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan sweep points out over N worker processes (default 1: "
        "serial; output is bit-identical either way)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache",
    )
    run.add_argument(
        "--force",
        action="store_true",
        help="recompute every point even when a cached result exists",
    )
    run.add_argument(
        "--cache-dir",
        default=os.path.join("results", "cache"),
        help="result cache root (default results/cache)",
    )
    run.add_argument(
        "--trace-dir",
        default=None,
        help="write one run-trace JSONL per computed sweep point into this "
        "directory (cache hits compute nothing and leave no trace)",
    )
    run.add_argument(
        "--ledger",
        default=None,
        help="append the run ledger (sweep and point status events) "
        "here, for 'ocd-repro watch' (default "
        "<cache-dir>/ledger.jsonl while the cache is on, none without it)",
    )
    run.add_argument(
        "--profile-sweep",
        action="store_true",
        help="aggregate per-worker phase timers/metrics into one "
        "sweep-level profile, rendered at sweep end and embedded in the "
        "ledger's sweep_end event",
    )

    generate = sub.add_parser(
        "generate", help="generate a random OCD instance as JSON"
    )
    generate.add_argument("--family", choices=_GENERATE_FAMILIES, default="random")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--size", type=int, default=6, help="approximate vertex count"
    )
    generate.add_argument("--tokens", type=int, default=3)
    generate.add_argument(
        "--out", default="-", help="output path ('-' for stdout)"
    )

    solve = sub.add_parser(
        "solve", help="exact optima for a small instance (JSON file)"
    )
    solve.add_argument("problem", help="path to a Problem JSON file")

    simulate = sub.add_parser("simulate", help="run one heuristic on an instance")
    simulate.add_argument("problem", help="path to a Problem JSON file")
    simulate.add_argument(
        "--heuristic",
        default="local",
        help="round_robin | random | local | bandwidth | global | sequential",
    )
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--render",
        action="store_true",
        help="print the pruned schedule step by step (small instances)",
    )
    simulate.add_argument(
        "--profile",
        action="store_true",
        help="print the phase-timer/metrics summary after the run",
    )

    trace = sub.add_parser(
        "trace",
        help="run heuristics with full tracing into a JSONL trace file",
    )
    trace.add_argument(
        "scenario",
        help="path to a Problem JSON file, or a generator family "
        f"({' | '.join(_GENERATE_FAMILIES)})",
    )
    trace.add_argument(
        "--heuristic",
        default="all",
        help="round_robin | random | local | bandwidth | global | sequential "
        "| all (default: all, tracing every standard heuristic in turn)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--size",
        type=int,
        default=12,
        help="approximate vertex count when scenario is a generator family",
    )
    trace.add_argument(
        "--tokens",
        type=int,
        default=6,
        help="token count when scenario is a generator family",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="trace output path (default <scenario>.trace.jsonl)",
    )
    trace.add_argument(
        "--profile",
        action="store_true",
        help="print the phase-timer/metrics summary after tracing",
    )
    trace.add_argument(
        "--engine",
        choices=("sim", "reference"),
        default="sim",
        help="sim (incremental engine, default) or reference (run the "
        "frozen pre-kernel oracle and re-trace its schedule) — diffing "
        "the two with 'trace-diff --ignore-fields engine' is the "
        "differential-debugging smoke test",
    )

    diff = sub.add_parser(
        "trace-diff",
        help="localize the first divergence between two trace files",
    )
    diff.add_argument("trace_a", help="path to trace A (JSONL)")
    diff.add_argument("trace_b", help="path to trace B (JSONL)")
    diff.add_argument(
        "--ignore-fields",
        default="",
        help="comma-separated event fields excluded from comparison "
        "(e.g. 'engine' when diffing a live trace against a re-trace)",
    )

    verify = sub.add_parser(
        "trace-verify",
        help="replay-validate traces against the paper's schedule-validity "
        "invariants",
    )
    verify.add_argument(
        "traces", nargs="+", help="trace JSONL file(s) to validate"
    )
    verify.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or "
        "deterministic sorted-key JSON",
    )

    attribute = sub.add_parser(
        "trace-attribute",
        help="explain each traced run's makespan: critical path, blocking "
        "causes, and the lower-bound gap decomposition",
    )
    attribute.add_argument(
        "traces", nargs="+", help="trace JSONL file(s) to attribute"
    )
    attribute.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or "
        "deterministic sorted-key JSON (including one schema-valid "
        "run_attribution event per run)",
    )

    export = sub.add_parser(
        "trace-export",
        help="export a trace's causal structure for external viewers",
    )
    export.add_argument("trace", help="path to a trace JSONL file")
    export.add_argument(
        "--format",
        choices=("chrome", "dot"),
        default="chrome",
        help="chrome (trace-viewer/Perfetto JSON timeline, lane per "
        "vertex, default) or dot (Graphviz dissemination trees)",
    )
    export.add_argument(
        "--out",
        default="-",
        help="output path ('-' for stdout, the default)",
    )

    scan = sub.add_parser(
        "trace-scan",
        help="scan trace files or directories for anomalous runs",
    )
    scan.add_argument(
        "paths",
        nargs="+",
        help="trace JSONL file(s) and/or directories of *.jsonl traces",
    )
    scan.add_argument(
        "--stall-span",
        type=int,
        default=3,
        help="flag zero-gain spans at least this long (default: 3)",
    )
    scan.add_argument(
        "--plateau-span",
        type=int,
        default=4,
        help="flag constant non-zero deficit plateaus at least this long "
        "(default: 4)",
    )
    scan.add_argument(
        "--util-floor",
        type=float,
        default=0.02,
        help="arc utilization at or below this counts as quiet (default: 0.02)",
    )
    scan.add_argument(
        "--util-span",
        type=int,
        default=3,
        help="flag quiet-network spans at least this long (default: 3)",
    )
    scan.add_argument(
        "--fail-on-anomaly",
        action="store_true",
        help="exit non-zero when any anomaly is found (for CI)",
    )
    scan.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or "
        "deterministic sorted-key JSON",
    )

    watch = sub.add_parser(
        "watch",
        help="live terminal dashboard over a sweep's run ledger",
    )
    watch.add_argument(
        "ledger",
        help="run-ledger JSONL path (written by run --ledger)",
    )
    watch.add_argument(
        "--trace",
        action="append",
        default=None,
        metavar="PATH",
        help="also scan these trace files/directories for anomalies once "
        "the sweep ends (repeatable)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (non-TTY/CI mode)",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="poll interval in seconds (default: 1.0)",
    )
    watch.add_argument(
        "--fail-on-anomaly",
        action="store_true",
        help="exit non-zero when the trace scan finds any anomaly",
    )

    report = sub.add_parser(
        "report", help="render a trace JSONL file as a text timeline"
    )
    report.add_argument("trace", help="path to a trace JSONL file")
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or "
        "deterministic sorted-key JSON",
    )

    compare = sub.add_parser(
        "compare", help="all heuristics x all metrics on an instance"
    )
    compare.add_argument("problem", help="path to a Problem JSON file")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--with-sequential",
        action="store_true",
        help="include the streaming (in-order) heuristic",
    )
    return parser


class _InputError(Exception):
    """An instance file a verb cannot load; :func:`main` reports it."""


def _load_problem(path: str) -> Problem:
    try:
        with open(path) as handle:
            return Problem.from_dict(json.load(handle))
    except OSError as error:
        raise _InputError(f"{path}: {error.strerror or error}") from None
    except ValueError as error:
        raise _InputError(f"{path}: {error}") from None


def _emit_json(payload) -> None:
    """The one ``--format json`` serializer: sorted keys, 2-space indent.

    Every JSON-emitting verb goes through here so their output is
    deterministic and byte-comparable across runs.
    """
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_list() -> int:
    from repro.experiments import ALL_EXPERIMENTS

    for name in sorted(ALL_EXPERIMENTS):
        print(name)
    return 0


def _executor_config(args):
    """The ``run`` flags as an :class:`ExecutorConfig`.

    The run ledger goes to ``<cache-dir>/ledger.jsonl`` while the cache
    is on and no ``--ledger`` is given; ``--no-cache`` alone writes none.
    """
    from repro.experiments import ExecutorConfig

    ledger = args.ledger
    if ledger is None and not args.no_cache:
        ledger = os.path.join(args.cache_dir, "ledger.jsonl")
    return ExecutorConfig(
        workers=args.workers,
        use_cache=not args.no_cache,
        force=args.force,
        cache_dir=args.cache_dir,
        progress=True,
        trace_dir=args.trace_dir,
        ledger_path=ledger,
        profile=args.profile_sweep,
    )


def _cmd_run(args) -> int:
    from repro.experiments import (
        ALL_EXPERIMENTS,
        PAPER,
        QUICK,
        Executor,
        SweepError,
    )

    if args.experiment != "all" and args.experiment not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{', '.join(sorted(ALL_EXPERIMENTS))} or 'all'",
            file=sys.stderr,
        )
        return 2
    scale = PAPER if args.paper_scale else QUICK
    try:
        config = _executor_config(args)
    except ValueError as error:
        print(f"run: {error}", file=sys.stderr)
        return 2
    executor = Executor(config)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.perf_counter()
        try:
            result = ALL_EXPERIMENTS[name](scale, executor=executor)
        except SweepError as error:
            print(f"{name} failed:\n{error}", file=sys.stderr)
            return 1
        elapsed = time.perf_counter() - started
        print(result.to_text())
        print(f"({name} completed in {elapsed:.1f}s at {scale.name} scale)\n")
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            path = os.path.join(args.csv_dir, f"{name}.csv")
            result.to_csv(path)
            print(f"wrote {path}\n")
    return 0


def _generate_problem(family: str, seed: int, size: int, tokens: int) -> Problem:
    from repro.topology.generators import (
        adversarial_spread_instance,
        bottleneck_instance,
        dag_instance,
        random_instance,
    )

    rng = random.Random(seed)
    if family == "random":
        return random_instance(
            rng, max_vertices=max(2, size), max_tokens=max(1, tokens)
        )
    if family == "bottleneck":
        return bottleneck_instance(
            rng, cluster_size=max(1, size // 2), num_tokens=max(1, tokens)
        )
    if family == "dag":
        return dag_instance(
            rng, num_vertices=max(2, size), num_tokens=max(1, tokens)
        )
    return adversarial_spread_instance(
        rng, num_vertices=max(2, size), num_tokens=max(1, tokens)
    )


def _cmd_generate(args) -> int:
    problem = _generate_problem(args.family, args.seed, args.size, args.tokens)
    payload = json.dumps(problem.to_dict(), indent=2)
    if args.out == "-":
        print(payload)
    else:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}: {problem}")
    return 0


def _cmd_solve(args) -> int:
    from repro.core.bounds import remaining_bandwidth, remaining_timesteps
    from repro.exact import (
        min_bandwidth_exact,
        solve_eocd_ilp,
        solve_focd_bnb,
    )

    problem = _load_problem(args.problem)
    print(f"instance: {problem}")
    if not problem.is_satisfiable():
        print("unsatisfiable: some wanted token cannot reach its wanter")
        return 1
    print(
        f"counting bounds: >= {remaining_timesteps(problem)} timesteps, "
        f">= {remaining_bandwidth(problem)} moves"
    )
    optimum, witness = solve_focd_bnb(problem)
    print(f"optimal makespan (FOCD): {optimum} timesteps")
    min_bw = min_bandwidth_exact(problem)
    print(f"optimal bandwidth (EOCD): {min_bw} moves")
    hybrid = solve_eocd_ilp(problem, optimum)
    print(
        f"min bandwidth among fastest schedules: {hybrid.bandwidth} moves "
        f"at {optimum} timesteps"
    )
    if hybrid.bandwidth > min_bw:
        print("note: time and bandwidth optima conflict on this instance")
    return 0


def _resolve_heuristic(name: str):
    """One heuristic instance by CLI name, or ``None`` if unknown."""
    from repro.heuristics import HEURISTIC_FACTORIES, SequentialHeuristic

    if name == "sequential":
        return SequentialHeuristic()
    if name in HEURISTIC_FACTORIES:
        return HEURISTIC_FACTORIES[name]()
    return None


def _cmd_simulate(args) -> int:
    from repro.core.pruning import prune_schedule
    from repro.heuristics import HEURISTIC_FACTORIES
    from repro.obs import MetricsRegistry
    from repro.sim import run_heuristic, schedule_to_text

    problem = _load_problem(args.problem)
    heuristic = _resolve_heuristic(args.heuristic)
    if heuristic is None:
        print(
            f"unknown heuristic {args.heuristic!r}; choose from "
            f"{', '.join(sorted(HEURISTIC_FACTORIES))}, sequential",
            file=sys.stderr,
        )
        return 2
    metrics = MetricsRegistry() if args.profile else None
    result = run_heuristic(problem, heuristic, seed=args.seed, metrics=metrics)
    pruned, stats = prune_schedule(problem, result.schedule)
    print(
        f"{heuristic.name} on {problem}: success={result.success} "
        f"makespan={result.makespan} bandwidth={result.bandwidth} "
        f"(pruned {pruned.bandwidth})"
    )
    if args.render:
        print(schedule_to_text(problem, pruned))
    if metrics is not None:
        print(metrics.render())
    return 0 if result.success else 1


def _cmd_trace(args) -> int:
    from repro.heuristics import HEURISTIC_FACTORIES, standard_heuristics
    from repro.obs import JsonlTracer, MetricsRegistry
    from repro.sim import StallError, run_heuristic

    if args.scenario in _GENERATE_FAMILIES:
        problem = _generate_problem(args.scenario, args.seed, args.size, args.tokens)
        scenario_fields = {
            "scenario": args.scenario,
            "family": args.scenario,
            "size": args.size,
            "tokens": args.tokens,
        }
        default_stem = args.scenario
    else:
        problem = _load_problem(args.scenario)
        scenario_fields = {"scenario": args.scenario}
        default_stem = os.path.splitext(os.path.basename(args.scenario))[0]

    if args.heuristic == "all":
        field = standard_heuristics()
    else:
        heuristic = _resolve_heuristic(args.heuristic)
        if heuristic is None:
            print(
                f"unknown heuristic {args.heuristic!r}; choose from "
                f"{', '.join(sorted(HEURISTIC_FACTORIES))}, sequential, all",
                file=sys.stderr,
            )
            return 2
        field = [heuristic]

    out = args.out if args.out is not None else f"{default_stem}.trace.jsonl"
    metrics = MetricsRegistry() if args.profile else None
    failures = 0
    with JsonlTracer(path=out) as tracer:
        tracer.emit(
            "trace_header",
            {**scenario_fields, "seed": args.seed, "heuristic": args.heuristic},
        )
        for heuristic in field:
            try:
                if args.engine == "reference":
                    result = _reference_traced_run(
                        tracer, problem, heuristic.name, args.seed
                    )
                else:
                    result = run_heuristic(
                        problem,
                        heuristic,
                        seed=args.seed,
                        tracer=tracer,
                        metrics=metrics,
                    )
            except StallError as error:
                failures += 1
                print(f"{heuristic.name}: stalled ({error})", file=sys.stderr)
                continue
            print(
                f"{heuristic.name}: success={result.success} "
                f"makespan={result.makespan} bandwidth={result.bandwidth}"
            )
            if not result.success:
                failures += 1
    print(f"wrote {out}")
    if metrics is not None:
        print(metrics.render())
    return 0 if failures == 0 else 1


def _reference_traced_run(tracer, problem: Problem, name: str, seed: int):
    """Run the frozen oracle (no tracing support) and re-trace its schedule."""
    from repro.obs.analyze import retrace_run
    from repro.sim.reference import make_reference_heuristic, reference_run_heuristic

    result = reference_run_heuristic(
        problem, make_reference_heuristic(name), seed=seed
    )
    retrace_run(
        tracer,
        problem,
        result.schedule,
        heuristic_name=name,
        engine="reference",
    )
    return result


def _cmd_trace_diff(args) -> int:
    from repro.obs.analyze import diff_traces

    ignore = tuple(f for f in args.ignore_fields.split(",") if f)
    try:
        result = diff_traces(args.trace_a, args.trace_b, ignore_fields=ignore)
    except (OSError, ValueError) as error:
        print(f"trace-diff failed: {error}", file=sys.stderr)
        return 2
    print(result.render())
    return 0 if result.identical else 1


def _cmd_trace_verify(args) -> int:
    from repro.obs.analyze import validate_trace

    reports = []
    for path in args.traces:
        try:
            report = validate_trace(path)
        except (OSError, ValueError) as error:
            print(f"trace-verify failed on {path}: {error}", file=sys.stderr)
            return 2
        reports.append(report)
    ok = all(report.ok for report in reports)
    if args.format == "json":
        _emit_json(
            {
                "ok": ok,
                "reports": [report.as_dict() for report in reports],
            }
        )
    else:
        for report in reports:
            print(report.render())
    return 0 if ok else 1


def _cmd_trace_scan(args) -> int:
    from repro.obs.analyze import ScanThresholds, scan_paths

    thresholds = ScanThresholds(
        stall_span=args.stall_span,
        plateau_span=args.plateau_span,
        util_floor=args.util_floor,
        util_span=args.util_span,
    )
    try:
        anomalies = scan_paths(args.paths, thresholds)
    except (OSError, ValueError) as error:
        print(f"trace-scan failed: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit_json(
            {
                "anomalies": [anomaly.as_dict() for anomaly in anomalies],
                "count": len(anomalies),
                "paths": list(args.paths),
            }
        )
    else:
        for anomaly in anomalies:
            print(anomaly.render())
        print(
            f"trace-scan: {len(anomalies)} anomaly(ies) across "
            f"{len(args.paths)} path(s)"
        )
    if anomalies and args.fail_on_anomaly:
        return 1
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.live import watch

    try:
        result = watch(
            args.ledger,
            trace_paths=args.trace or [],
            stream=sys.stdout,
            once=args.once,
            interval=args.interval,
            fail_on_anomaly=args.fail_on_anomaly,
        )
    except (OSError, ValueError) as error:
        print(f"watch failed: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("", file=sys.stderr)
        return 130
    return result.exit_code


def _cmd_report(args) -> int:
    from repro.obs import render_report, split_runs
    from repro.obs.events import read_events

    try:
        events = read_events(args.trace)
    except (OSError, ValueError) as error:
        print(f"report failed: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        header, runs = split_runs(events)
        _emit_json(
            {
                "path": args.trace,
                "header": header,
                "runs": [run.as_dict() for run in runs],
            }
        )
        return 0
    print(render_report(events, title=args.trace), end="")
    return 0


def _cmd_trace_attribute(args) -> int:
    from repro.obs.analyze import AttributionError, attribute_trace
    from repro.obs.analyze.attribution import summary_event

    reports = []
    for path in args.traces:
        try:
            reports.append(attribute_trace(path))
        except AttributionError as error:
            print(f"trace-attribute refused {path}: {error}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as error:
            print(f"trace-attribute failed on {path}: {error}", file=sys.stderr)
            return 2
    if args.format == "json":
        _emit_json(
            {
                "reports": [report.as_dict() for report in reports],
                "events": [
                    summary_event(run)
                    for report in reports
                    for run in report.runs
                ],
            }
        )
    else:
        for report in reports:
            print(report.render())
    return 0


def _cmd_trace_export(args) -> int:
    from repro.obs.analyze import chrome_trace, dot_forest
    from repro.obs.events import read_events

    try:
        events = read_events(args.trace)
        if args.format == "chrome":
            rendered = json.dumps(
                chrome_trace(events, path=args.trace), sort_keys=True, indent=2
            )
        else:
            rendered = dot_forest(events, path=args.trace).rstrip("\n")
    except (OSError, ValueError) as error:
        print(f"trace-export failed on {args.trace}: {error}", file=sys.stderr)
        return 2
    if args.out == "-":
        print(rendered)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import compare_heuristics
    from repro.experiments.report import format_table
    from repro.heuristics import SequentialHeuristic, standard_heuristics

    problem = _load_problem(args.problem)
    field = standard_heuristics()
    if args.with_sequential:
        field.append(SequentialHeuristic())
    rows = compare_heuristics(problem, heuristics=field, seed=args.seed)
    print(f"instance: {problem}")
    print(format_table([row.as_dict() for row in rows]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except _InputError as error:
        print(f"{args.command} failed: {error}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace-diff":
        return _cmd_trace_diff(args)
    if args.command == "trace-verify":
        return _cmd_trace_verify(args)
    if args.command == "trace-attribute":
        return _cmd_trace_attribute(args)
    if args.command == "trace-export":
        return _cmd_trace_export(args)
    if args.command == "trace-scan":
        return _cmd_trace_scan(args)
    if args.command == "watch":
        return _cmd_watch(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
