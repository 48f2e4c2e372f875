"""Command-line interface: run any paper experiment by id.

Examples::

    caasper list
    caasper run fig3
    caasper run fig12 --trials 500
    caasper run fig14 --containers c_1,c_48113
    caasper trace fig10-cyclical --out /tmp/cyclical.csv
    caasper obs --trace fig10-cyclical --jsonl /tmp/trace.jsonl --metrics-text
    caasper chaos --scenario kitchen-sink --seed 3 --minutes 720 --strict
    caasper serve --tenants 3 --port 8080 --tick-seconds 0.05 --state-dir /tmp/serve
    caasper serve --drill --tenants 200 --minutes 720 --kill-cycles 10
    caasper report --events /tmp/trace.jsonl --chrome /tmp/trace.json
    caasper sweep --traces fig9-workday,fig10-cyclical --store-dir /tmp/cas
    caasper store stats --store-dir /tmp/cas
    caasper store verify && caasper store gc --max-bytes 0
    caasper lint --strict
    caasper lint src/repro/core --format json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .errors import ReproError
from .experiments import EXPERIMENTS
from .workloads.traces import paper_trace, paper_trace_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="caasper",
        description=(
            "CaaSPER reproduction (SIGMOD 2024): run the paper's "
            "experiments from the command line."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments and traces")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="experiment id (figure/table)",
    )
    run_parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="parameter-search trials (fig12/fig13/fig14)",
    )
    run_parser.add_argument(
        "--containers",
        type=str,
        default=None,
        help="comma-separated Alibaba container ids (fig14)",
    )
    run_parser.add_argument(
        "--no-charts",
        action="store_true",
        help="suppress ASCII chart panels",
    )

    trace_parser = sub.add_parser("trace", help="export a paper trace to CSV")
    trace_parser.add_argument(
        "name", choices=paper_trace_names(), help="trace name"
    )
    trace_parser.add_argument(
        "--out", type=str, required=True, help="output CSV path"
    )

    report_parser = sub.add_parser(
        "report",
        help="write a markdown experiment report (--out) or run offline "
        "diagnostics over a recorded trace log (--events)",
    )
    report_parser.add_argument(
        "--out", type=str, default=None, help="output markdown path"
    )
    report_parser.add_argument(
        "--fast",
        action="store_true",
        help="reduce search sizes and skip the slow fig14 sweep",
    )
    report_parser.add_argument(
        "--events",
        type=str,
        default=None,
        metavar="PATH",
        help="JSONL trace log (from `caasper obs/chaos --jsonl`) to "
        "analyse: decision timelines, throttling root causes, K/C/N "
        "decomposition, fleet rollup",
    )
    report_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostics format (default: text)",
    )
    report_parser.add_argument(
        "--chrome",
        type=str,
        default=None,
        metavar="PATH",
        help="also export the stamped events as Chrome "
        "chrome://tracing / Perfetto JSON",
    )
    report_parser.add_argument(
        "--trace-id",
        type=str,
        default=None,
        help="restrict diagnostics to one trace id",
    )
    report_parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="MIN",
        help="attribution lookback window in simulated minutes "
        "(default: 60)",
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help="evaluate CaaSPER over a set of traces (Table-3-style table)",
    )
    sweep_parser.add_argument(
        "--traces",
        type=str,
        required=True,
        help="comma-separated paper-trace names (see `caasper list`)",
    )
    sweep_parser.add_argument(
        "--min-cores", type=int, default=1, help="guardrail floor"
    )
    sweep_parser.add_argument(
        "--proactive",
        action="store_true",
        help="enable the forecasting component (daily seasonality)",
    )
    sweep_parser.add_argument(
        "--store-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="memoise per-trace results in this result store "
        "(warm re-runs short-circuit; see `caasper store`)",
    )

    obs_parser = sub.add_parser(
        "obs",
        help="replay a trace with telemetry attached and inspect the "
        "decision audit trail",
    )
    obs_parser.add_argument(
        "--trace",
        required=True,
        choices=paper_trace_names(),
        help="paper trace to replay",
    )
    obs_parser.add_argument(
        "--jsonl",
        type=str,
        default=None,
        help="write every observability event to this JSONL file",
    )
    obs_parser.add_argument(
        "--metrics-text",
        action="store_true",
        help="print the Prometheus-style metrics exposition",
    )
    obs_parser.add_argument(
        "--top-spans",
        type=int,
        default=0,
        metavar="N",
        help="print the N most expensive timing spans",
    )
    obs_parser.add_argument(
        "--decisions",
        type=int,
        default=20,
        metavar="N",
        help="audit-log entries to print (0 suppresses the log)",
    )
    obs_parser.add_argument(
        "--proactive",
        action="store_true",
        help="enable the forecasting component",
    )
    obs_parser.add_argument(
        "--min-cores", type=int, default=1, help="guardrail floor"
    )

    from .faults.scenarios import scenario_names

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario against the hardened live "
        "loop and audit the degradations",
    )
    chaos_parser.add_argument(
        "--scenario",
        default="kitchen-sink",
        choices=scenario_names(),
        help="named chaos scenario (default: kitchen-sink)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0, help="fault-plan seed (replayable)"
    )
    chaos_parser.add_argument(
        "--minutes",
        type=int,
        default=720,
        help="run length in simulated minutes",
    )
    chaos_parser.add_argument(
        "--trace",
        default=None,
        choices=paper_trace_names(),
        help="drive the run with a paper trace instead of the synthetic "
        "cyclical day",
    )
    chaos_parser.add_argument(
        "--proactive",
        action="store_true",
        help="enable the forecasting component",
    )
    chaos_parser.add_argument(
        "--jsonl",
        type=str,
        default=None,
        help="write every observability event to this JSONL file",
    )
    chaos_parser.add_argument(
        "--metrics-text",
        action="store_true",
        help="print the Prometheus-style metrics exposition",
    )
    chaos_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero unless every fired fault kind has its "
        "matching degradation in the audit trail",
    )

    from .capacity import capacity_scenario_names

    capacity_parser = sub.add_parser(
        "capacity",
        help="run a cluster-wide capacity scenario (bin-packing, "
        "node-pool autoscaling, contention, fleet economics)",
    )
    capacity_parser.add_argument(
        "--scenario",
        default="hotspot-node",
        choices=capacity_scenario_names(),
        help="named capacity scenario (default: hotspot-node)",
    )
    capacity_parser.add_argument(
        "--seed", type=int, default=0, help="scenario seed (replayable)"
    )
    capacity_parser.add_argument(
        "--minutes",
        type=int,
        default=0,
        help="run length in simulated minutes (0: scenario default)",
    )
    capacity_parser.add_argument(
        "--pods",
        type=int,
        default=0,
        help="tenant count (0: scenario default)",
    )
    capacity_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text summary or the run's canonical JSON (byte-identical "
        "across same-seed runs)",
    )
    capacity_parser.add_argument(
        "--kcn-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the cluster + per-tenant K/C/N ledger as canonical "
        "JSON",
    )
    capacity_parser.add_argument(
        "--jsonl",
        type=str,
        default=None,
        metavar="FILE",
        help="write every observability event to this JSONL file",
    )

    fleet_parser = sub.add_parser(
        "fleet",
        help="shard a multi-trace evaluation across worker processes "
        "(deterministic merge, checkpoint journal, resume)",
    )
    fleet_parser.add_argument(
        "--traces",
        type=str,
        default=None,
        help="comma-separated paper-trace names (default: every paper "
        "trace; see `caasper list`)",
    )
    fleet_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes (1 = serial in-process; default: 2)",
    )
    fleet_parser.add_argument(
        "--journal",
        type=str,
        default=None,
        metavar="PATH",
        help="checkpoint finished jobs to this JSONL file",
    )
    fleet_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip jobs already completed in the --journal file",
    )
    fleet_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=0, help="plan seed (replayable)"
    )
    fleet_parser.add_argument(
        "--min-cores", type=int, default=1, help="guardrail floor"
    )
    fleet_parser.add_argument(
        "--proactive",
        action="store_true",
        help="enable the forecasting component",
    )
    fleet_parser.add_argument(
        "--timeout-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-job wall-clock deadline (stalled jobs become typed "
        "timeout failures)",
    )
    fleet_parser.add_argument(
        "--scenario",
        default=None,
        choices=scenario_names(),
        help="run the hardened live loop under this chaos scenario "
        "instead of the open-loop sweep",
    )
    fleet_parser.add_argument(
        "--store-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="memoise job results in this result store (cache hits "
        "short-circuit before process dispatch)",
    )
    fleet_parser.add_argument(
        "--jsonl",
        type=str,
        default=None,
        metavar="PATH",
        help="write every observability event (worker events relayed in "
        "plan order) to this JSONL file; feed it to `caasper report "
        "--events`",
    )

    store_parser = sub.add_parser(
        "store",
        help="inspect and maintain the content-addressed result store",
    )
    store_sub = store_parser.add_subparsers(dest="store_command", required=True)
    store_commands = {
        "stats": "summarise the store (entries, bytes, kinds)",
        "ls": "list cached blobs (oldest first)",
        "gc": "evict least-recently-written blobs down to a size budget",
        "clear": "remove every blob and reset the index",
        "verify": "checksum every blob; exit 1 if any is corrupt",
    }
    for name, help_text in store_commands.items():
        cmd_parser = store_sub.add_parser(name, help=help_text)
        cmd_parser.add_argument(
            "--store-dir",
            type=str,
            default=None,
            metavar="DIR",
            help="store directory (default: ~/.cache/caasper or "
            "$CAASPER_STORE_DIR)",
        )
        if name == "gc":
            cmd_parser.add_argument(
                "--max-bytes",
                type=int,
                required=True,
                metavar="N",
                help="size budget; oldest blobs are evicted until the "
                "store fits (0 empties it)",
            )

    serve_parser = sub.add_parser(
        "serve",
        help="run the multi-tenant serve daemon (or its chaos drill)",
    )
    serve_parser.add_argument(
        "--tenants",
        type=int,
        default=0,
        metavar="N",
        help="tenants to pre-register with varied seeded workloads "
        "(default: 0 — register via POST /tenants)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="listen on 127.0.0.1:PORT (0 = ephemeral); omitted = "
        "headless mode driven by the built-in harness",
    )
    serve_parser.add_argument(
        "--state-dir",
        type=str,
        default=None,
        metavar="DIR",
        help="crash-safe state directory (journal + snapshot); "
        "restarting from the same DIR resumes at the exact tick",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default: 0)"
    )
    serve_parser.add_argument(
        "--scenario",
        type=str,
        default="",
        metavar="NAME",
        help="repro.faults scenario injected into every tenant "
        "(default: none; the drill defaults to kitchen-sink)",
    )
    serve_parser.add_argument(
        "--minutes",
        type=int,
        default=720,
        metavar="N",
        help="simulated minutes: headless run length and drill chaos "
        "horizon (default: 720)",
    )
    serve_parser.add_argument(
        "--crash-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="per-tick tenant crash probability exercising the "
        "supervision tree (default: 0)",
    )
    serve_parser.add_argument(
        "--tick-seconds",
        type=float,
        default=0.0,
        metavar="S",
        help="server mode: wall seconds per simulated-minute tick "
        "(default: 0 — tick only via POST /tick)",
    )
    serve_parser.add_argument(
        "--max-ticks",
        type=int,
        default=0,
        metavar="N",
        help="server mode: drain and exit after N ticks (default: "
        "0 — run until SIGTERM)",
    )
    serve_parser.add_argument(
        "--kcn-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the final per-tenant K/C/N ledger as canonical "
        "JSON (crash-recovery tests byte-compare this)",
    )
    serve_parser.add_argument(
        "--jsonl",
        type=str,
        default=None,
        metavar="FILE",
        help="write the typed observability event trail as JSONL at exit",
    )
    serve_parser.add_argument(
        "--access-log",
        type=str,
        default=None,
        metavar="FILE",
        help="server mode: JSONL access log (wall-clock timestamps; "
        "the one I/O edge)",
    )
    serve_parser.add_argument(
        "--metrics-text",
        action="store_true",
        help="print the Prometheus metrics exposition at exit",
    )
    serve_parser.add_argument(
        "--drill",
        action="store_true",
        help="run the chaos + SIGKILL self-check instead of serving",
    )
    serve_parser.add_argument(
        "--kill-cycles",
        type=int,
        default=10,
        metavar="N",
        help="drill: SIGKILL/restart cycles to inject (default: 10)",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="run the domain-aware static analyser (repro.lint) over the "
        "source tree",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro and "
        "benchmarks, resolved from the current directory)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif for GitHub code "
        "scanning)",
    )
    lint_parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding, warnings included",
    )
    lint_parser.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint_parser.add_argument(
        "--ignore",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list every registered rule code and exit",
    )
    lint_parser.add_argument(
        "--graph",
        action="store_true",
        help="dump the resolved project call graph as JSON and exit "
        "(no linting)",
    )

    sanitize_parser = sub.add_parser(
        "sanitize",
        help="arm the runtime sanitizers (repro.sanitize): determinism "
        "guard, event-loop stall detector, fleet fork-safety probe",
    )
    sanitize_parser.add_argument(
        "--scope",
        choices=("all", "selfcheck", "serve", "fleet"),
        default="all",
        help="what to run under the sanitizers (default: all). "
        "selfcheck: injected violations must trip; serve: a drill and "
        "a live daemon under guard; fleet: pickle/fork probe plus a "
        "guarded sweep",
    )
    sanitize_parser.add_argument(
        "--stall-threshold",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="event-loop per-callback budget (default: 0.25)",
    )
    sanitize_parser.add_argument(
        "--tenants",
        type=int,
        default=20,
        metavar="N",
        help="serve scope: drill tenant count (default: 20)",
    )
    sanitize_parser.add_argument(
        "--minutes",
        type=int,
        default=180,
        metavar="N",
        help="serve scope: drill trace minutes (default: 180)",
    )
    return parser


def _run_experiment(args: argparse.Namespace) -> str:
    module = EXPERIMENTS[args.experiment]
    kwargs = {}
    if args.trials is not None and args.experiment in ("fig12", "fig13"):
        kwargs["trials"] = args.trials
    if args.experiment == "fig14":
        if args.trials is not None:
            kwargs["tune_trials"] = args.trials
        if args.containers:
            kwargs["container_ids"] = tuple(
                cid.strip() for cid in args.containers.split(",") if cid.strip()
            )
    result = module.run(**kwargs)

    render = module.render
    try:
        return render(result, charts=not args.no_charts)
    except TypeError:
        return render(result)


def _build_report(fast: bool = False) -> str:
    """Run every experiment and render one markdown document.

    ``fast`` shrinks the parameter searches and limits the Alibaba sweep
    to two containers, keeping the full report under a minute.
    """
    sections: list[str] = [
        "# CaaSPER reproduction — experiment report",
        "",
        "Auto-generated by `caasper report`. Paper-vs-measured context "
        "lives in EXPERIMENTS.md.",
    ]
    search_kwargs = (
        {"trials": 60, "resample_minutes": 10}
        if fast
        else {"trials": 300, "resample_minutes": 5}
    )
    plans: list[tuple[str, dict]] = [
        ("fig3", {}),
        ("fig4", {}),
        ("fig5", {}),
        ("fig6", {}),
        ("fig7", {}),
        ("fig8", {}),
        ("fig9", {}),
        ("fig10", {}),
        ("fig11", {}),
        ("fig12", search_kwargs),
        ("fig13", search_kwargs),
        ("correctness", {}),
    ]
    if fast:
        plans.append(
            ("fig14", {"container_ids": ("c_1", "c_48113"), "tune_trials": 8})
        )
    else:
        plans.append(("fig14", {"tune_trials": 25}))

    for name, kwargs in plans:
        module = EXPERIMENTS[name]
        result = module.run(**kwargs)
        try:
            body = module.render(result, charts=False)
        except TypeError:
            body = module.render(result)
        sections.append("")
        sections.append(f"## {name}")
        sections.append("")
        sections.append("```")
        sections.append(body)
        sections.append("```")
    return "\n".join(sections) + "\n"


def _run_trace_report(args: argparse.Namespace) -> int:
    """Offline diagnostics over a recorded JSONL trace log."""
    from .obs.tracing import export_chrome_trace
    from .obs.trace_log import load_trace
    from .report import (
        ATTRIBUTION_WINDOW_MINUTES,
        build_fleet_report,
        build_run_report,
        render_json,
        render_text,
    )

    read = load_trace(args.events)
    window = (
        args.window if args.window is not None else ATTRIBUTION_WINDOW_MINUTES
    )
    if args.trace_id:
        report = build_run_report(read.events, args.trace_id, window)
    else:
        report = build_fleet_report(read.events, window)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    if read.skipped_total:
        skipped = ", ".join(
            f"{kind}={count}" for kind, count in sorted(read.skipped.items())
        )
        print(
            f"note: skipped {read.skipped_total} events of unknown "
            f"kind(s): {skipped}",
            file=sys.stderr,
        )
    if args.chrome:
        export_chrome_trace(read.events, args.chrome, trace_id=args.trace_id)
        print(f"wrote Chrome trace to {args.chrome}", file=sys.stderr)
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    """Replay one paper trace with full telemetry and summarise it."""
    from .analysis.explain import explain_trace
    from .core.config import CaasperConfig
    from .core.recommender import CaasperRecommender
    from .obs import JsonlSink, Observer
    from .sim.sweep import SweepConfig

    trace = paper_trace(args.trace)
    sweep_config = SweepConfig(min_cores=args.min_cores)
    sim_config = sweep_config.simulator_for(trace)
    recommender = CaasperRecommender(
        CaasperConfig(
            c_min=args.min_cores,
            max_cores=sim_config.max_cores,
            proactive=args.proactive,
        ),
    )

    sinks: list[JsonlSink] = []
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    observer = Observer(sinks=sinks)

    from .sim.simulator import simulate_trace

    result = simulate_trace(trace, recommender, sim_config, observer=observer)
    observer.close()

    decisions = observer.decisions()
    resizes = observer.events_of_kind("resize")
    throttled = observer.events_of_kind("throttled")
    print(
        f"replayed {trace.name!r}: {trace.minutes} minutes, "
        f"{len(decisions)} consultations, {len(resizes)} resizes, "
        f"{len(throttled)} throttled minutes"
    )
    print(
        f"K={result.metrics.total_slack:.0f} "
        f"C={result.metrics.total_insufficient_cpu:.0f} "
        f"N={result.metrics.num_scalings}"
    )
    if args.jsonl:
        print(f"wrote {sinks[0].events_written} events to {args.jsonl}")
    if args.decisions:
        print()
        print(explain_trace(observer, limit=args.decisions))
    if args.metrics_text:
        print()
        print(observer.metrics.render_text(), end="")
    if args.top_spans:
        print()
        print(observer.spans.render_top(args.top_spans))
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    """Run one fault-injection scenario and audit the degradation trail."""
    from math import ceil

    from .core.config import CaasperConfig
    from .core.recommender import CaasperRecommender
    from .faults.scenarios import make_scenario
    from .obs import JsonlSink, Observer
    from .sim.live import LiveSystemConfig, simulate_live
    from .workloads.base import TraceWorkload
    from .workloads.synthetic import cyclical_days

    if args.trace:
        trace = paper_trace(args.trace)
    else:
        days = max(1, ceil(args.minutes / 1440))
        trace = cyclical_days(days=days, name="chaos-cyclical")
    if args.minutes < trace.minutes:
        trace = trace.window(0, args.minutes)
    workload = TraceWorkload(trace)

    plan = make_scenario(
        args.scenario, seed=args.seed, horizon_minutes=workload.minutes
    )
    recommender = CaasperRecommender(
        CaasperConfig(c_min=2, max_cores=16, proactive=args.proactive),
    )
    sinks: list[JsonlSink] = []
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    observer = Observer(sinks=sinks)
    result = simulate_live(
        workload,
        recommender,
        LiveSystemConfig(),
        observer=observer,
        faults=plan,
    )
    observer.close()

    fires: dict[str, int] = result.detail["faults"]
    resilience: dict[str, int] = result.detail["resilience"]
    unpaired = result.detail["unpaired_resize_decisions"]
    print(
        f"chaos scenario {args.scenario!r} (seed {args.seed}): "
        f"{workload.minutes} minutes, {sum(fires.values())} faults injected"
    )
    print(
        f"K={result.metrics.total_slack:.0f} "
        f"C={result.metrics.total_insufficient_cpu:.0f} "
        f"N={result.metrics.num_scalings} "
        f"unpaired_decisions={len(unpaired)}"
    )
    print("faults injected:")
    for label, count in sorted(fires.items()):
        print(f"  {label:24s} {count}")
    print("degradations absorbed:")
    for label, count in resilience.items():
        print(f"  {label:24s} {count}")
    if args.jsonl:
        print(f"wrote {sinks[0].events_written} events to {args.jsonl}")
    if args.metrics_text:
        print()
        print(observer.metrics.render_text(), end="")

    # Every fired fault kind must have left its matching defense in the
    # audit trail; --strict turns a gap into a non-zero exit for CI.
    expectations = (
        (("telemetry_drop", "telemetry_nan", "telemetry_stale"),
         "safe_mode", "telemetry faults must trip safe-mode"),
        (("actuation_reject",),
         "retry", "rejected enactments must be retried"),
        (("actuation_hang",),
         "rollback", "hung rollouts must be rolled back"),
        (("component_recommender", "component_forecaster"),
         "quarantine", "component faults must be quarantined"),
    )
    violations = []
    for labels, event_kind, message in expectations:
        if any(fires.get(label, 0) for label in labels):
            if not observer.events_of_kind(event_kind):
                violations.append(message)
    for message in violations:
        print(f"MISSING DEGRADATION: {message}", file=sys.stderr)
    if args.strict and violations:
        return 1
    if not violations:
        print("degradation check: every fired fault kind was absorbed")
    return 0


def _run_capacity(args: argparse.Namespace) -> int:
    """Run one cluster-capacity scenario and render its fleet rollup."""
    import json as json_module

    from .capacity import make_capacity_scenario, run_capacity
    from .obs import JsonlSink, Observer

    scenario = make_capacity_scenario(
        args.scenario, seed=args.seed, minutes=args.minutes, pods=args.pods
    )
    observer: Observer | None = None
    sinks: list[JsonlSink] = []
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
        observer = Observer(sinks=sinks)
    result = run_capacity(scenario, observer=observer)
    if observer is not None:
        observer.close()

    if args.format == "json":
        print(result.canonical_json())
    else:
        print(result.render_text())
    if args.kcn_out:
        ledger = {
            "cluster": result.metrics.to_payload(),
            "per_tenant": {
                name: kcn.to_payload()
                for name, kcn in sorted(result.per_tenant.items())
            },
        }
        with open(args.kcn_out, "w", encoding="utf-8") as handle:
            handle.write(
                json_module.dumps(
                    ledger, sort_keys=True, separators=(",", ":")
                )
            )
        # Status goes to stderr so `--format json` stdout stays a single
        # canonical payload (byte-comparable across runs).
        print(f"wrote K/C/N ledger to {args.kcn_out}", file=sys.stderr)
    if args.jsonl:
        print(
            f"wrote {sinks[0].events_written} events to {args.jsonl}",
            file=sys.stderr,
        )
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    """Run a fleet-sharded evaluation and render its merged report."""
    import json
    import time

    from .core.config import CaasperConfig
    from .fleet import FleetRunner, chaos_plan, sweep_outcome, sweep_plan
    from .sim.sweep import SweepConfig, default_recommender_factory

    if args.traces:
        names = [n.strip() for n in args.traces.split(",") if n.strip()]
    else:
        names = paper_trace_names()
    traces = [paper_trace(name) for name in names]

    if args.scenario is not None:
        plan = chaos_plan(
            traces,
            scenario=args.scenario,
            recommender_config=CaasperConfig(
                c_min=max(2, args.min_cores),
                max_cores=16,
                proactive=args.proactive,
            ),
            seed=args.seed,
        )
    else:
        sweep_config = SweepConfig(min_cores=args.min_cores)
        base = CaasperConfig(
            c_min=args.min_cores,
            max_cores=max(args.min_cores + 1, 64),
            proactive=args.proactive,
        )
        plan = sweep_plan(
            traces,
            config=sweep_config,
            recommender_factory=default_recommender_factory(
                base, sweep_config
            ),
            seed=args.seed,
        )

    store = None
    if args.store_dir:
        from .store import ResultStore

        store = ResultStore(args.store_dir)
    observer = None
    jsonl_sink = None
    if args.jsonl:
        from .obs import JsonlSink, Observer

        jsonl_sink = JsonlSink(args.jsonl)
        observer = Observer(sinks=(jsonl_sink,), buffer_events=False)
    runner = FleetRunner(
        workers=args.workers,
        job_timeout_seconds=args.timeout_seconds,
        journal_path=args.journal,
        resume=args.resume,
        store=store,
        observer=observer,
    )
    start = time.perf_counter()
    try:
        outcome = runner.run(plan)
    finally:
        if jsonl_sink is not None:
            jsonl_sink.close()
    wall = time.perf_counter() - start
    if jsonl_sink is not None:
        print(f"wrote {jsonl_sink.events_written} events to {args.jsonl}")

    if args.format == "json":
        payload = {
            "plan": outcome.plan_name,
            "signature": outcome.signature,
            "workers": outcome.workers,
            "ok": outcome.ok_count,
            "failed": outcome.failed_count,
            "resumed": outcome.resumed_count,
            "wall_seconds": wall,
            "failures": [
                {
                    "job_id": failure.job_id,
                    "kind": failure.failure_kind,
                    "error": failure.summary(),
                }
                for failure in outcome.failures()
            ],
        }
        if store is not None:
            payload["store"] = {
                "hits": store.stats.hits,
                "misses": store.stats.misses,
                "hit_rate": store.stats.hit_rate,
            }
        if outcome.failed_count == 0:
            payload["aggregate"] = sweep_outcome(outcome).aggregate()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if outcome.failed_count else 0

    if outcome.failed_count == 0:
        sweep = sweep_outcome(outcome)
        print(sweep.table())
        aggregate = sweep.aggregate()
        print()
        print(
            f"fleet means: slack {aggregate['mean_avg_slack']:.2f} cores, "
            f"insufficient CPU "
            f"{aggregate['mean_avg_insufficient_cpu']:.3f} cores, "
            f"throttled obs {aggregate['mean_throttled_obs_pct']:.2f}%, "
            f"{aggregate['mean_scalings']:.0f} scalings/trace"
        )
    else:
        for failure in outcome.failures():
            print(f"FAILED [{failure.failure_kind}] {failure.summary()}")
    print(
        f"fleet: {outcome.ok_count} ok, {outcome.failed_count} failed, "
        f"{outcome.resumed_count} resumed from journal, "
        f"workers={outcome.workers}, wall={wall:.2f}s"
    )
    if store is not None:
        print(_store_summary_line(store))
    return 1 if outcome.failed_count else 0


def _store_summary_line(store: "object") -> str:
    """One-line hit/miss summary printed after store-backed runs."""
    stats = store.stats  # type: ignore[attr-defined]
    return (
        f"store: {stats.hits} hits, {stats.misses} misses "
        f"(hit rate {stats.hit_rate * 100:.1f}%)"
    )


def _run_store(args: argparse.Namespace) -> int:
    """Inspect or maintain the content-addressed result store."""
    from .store import ResultStore, default_store_root

    root = args.store_dir or str(default_store_root())
    store = ResultStore(root)
    command = args.store_command

    if command == "stats":
        entries = store.entries()
        total = sum(entry["nbytes"] for entry in entries)
        by_kind: dict[str, int] = {}
        for entry in entries:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        print(f"store: {root}")
        print(f"entries: {len(entries)}")
        print(f"bytes: {total}")
        for kind in sorted(by_kind):
            print(f"  {kind:10s} {by_kind[kind]}")
        return 0

    if command == "ls":
        for entry in store.entries():
            print(f"{entry['key']}  {entry['kind']:10s} {entry['nbytes']:>10d}")
        return 0

    if command == "gc":
        evicted = store.gc(max_bytes=args.max_bytes)
        print(
            f"evicted {len(evicted)} blobs; {len(store)} remain "
            f"({store.total_bytes()} bytes)"
        )
        return 0

    if command == "clear":
        removed = store.clear()
        print(f"removed {removed} blobs")
        return 0

    if command == "verify":
        report = store.verify()
        print(
            f"checked {report['checked']} blobs: {report['ok']} ok, "
            f"{len(report['corrupt'])} corrupt"
        )
        for key in report["corrupt"]:
            print(f"  corrupt: {key}", file=sys.stderr)
        return 1 if report["corrupt"] else 0

    raise AssertionError(f"unknown store command {command!r}")  # pragma: no cover


def _serve_outputs(args: argparse.Namespace, plane, observer) -> None:
    """Shared `caasper serve` exit artifacts (K/C/N, events, metrics)."""
    import json as json_module

    if args.kcn_out:
        with open(args.kcn_out, "w", encoding="utf-8") as handle:
            handle.write(
                json_module.dumps(
                    plane.kcn(), sort_keys=True, separators=(",", ":")
                )
            )
        print(f"wrote K/C/N ledger to {args.kcn_out}")
    if args.jsonl and observer is not None and observer.ring is not None:
        from .obs.tracing import render_trace_jsonl

        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(render_trace_jsonl(observer.ring.events))
        print(f"wrote {len(observer.ring.events)} events to {args.jsonl}")
    if args.metrics_text and observer is not None:
        print(observer.metrics.render_text(), end="")


def _run_serve(args: argparse.Namespace) -> int:
    """`caasper serve`: chaos drill, headless harness run, or HTTP daemon."""
    from .obs import Observer
    from .serve.config import ServeConfig
    from .serve.drill import run_drill
    from .serve.harness import ServeHarness, build_specs
    from .serve.plane import ControlPlane
    from .serve.server import ServeDaemon

    if args.drill:
        report = run_drill(
            tenants=args.tenants or 200,
            minutes=args.minutes,
            seed=args.seed,
            kill_cycles=args.kill_cycles,
            state_dir=args.state_dir,
            scenario=args.scenario or "kitchen-sink",
            crash_rate=args.crash_rate or 0.005,
            on_progress=lambda message: print(f"drill: {message}"),
        )
        for check in report["checks"]:
            mark = "PASS" if check["ok"] else "FAIL"
            print(f"{mark} {check['name']}: {check['detail']}")
        print(
            f"drill {'passed' if report['ok'] else 'FAILED'}: "
            f"{report['tenants']} tenants, {report['ticks']} ticks, "
            f"{len(report['kill_ticks'])} kill/restart cycles, "
            f"K/C/N digest {report['kcn_digest']}"
        )
        return 0 if report["ok"] else 1

    wants_observer = bool(
        args.jsonl or args.metrics_text or args.port is not None
    )
    observer = Observer() if wants_observer else None
    config = ServeConfig(seed=args.seed)

    if args.port is None:
        # Headless: the built-in harness streams seeded telemetry. With
        # --state-dir, a rerun resumes at the recovered tick and runs to
        # the same total, so interrupted and clean runs converge.
        harness = ServeHarness(
            args.tenants or 10,
            config=config,
            state_dir=args.state_dir,
            observer=observer,
            seed=args.seed,
            scenario=args.scenario,
            scenario_minutes=args.minutes,
            crash_rate=args.crash_rate,
            crash_horizon_ticks=args.minutes,
        )
        if harness.plane.recovery is not None:
            recovery = harness.plane.recovery
            print(
                f"recovered {recovery['recovered_tenants']} tenants at "
                f"tick {recovery['tick']} from {args.state_dir}"
            )
        harness.run(max(0, args.minutes - harness.plane.tick))
        audit = harness.audit()
        print(
            f"served {audit['tenants']} tenants to tick {audit['tick']}: "
            f"{audit['supervisor']['restarts']} restarts, "
            f"{audit['supervisor']['quarantines']} quarantines, "
            f"{audit['admission']['shed']} samples shed, "
            f"{audit['breakers']['opens']} breaker opens"
        )
        _serve_outputs(args, harness.plane, observer)
        if args.state_dir:
            harness.plane.quiesce("headless_complete")
        return 0

    import asyncio

    plane = ControlPlane(config, state_dir=args.state_dir, observer=observer)
    for spec in build_specs(
        args.tenants,
        seed=args.seed,
        scenario=args.scenario,
        scenario_minutes=args.minutes,
        crash_rate=args.crash_rate,
        crash_horizon_ticks=args.minutes,
    ):
        if spec.tenant not in plane.specs:
            plane.register(spec)
    daemon = ServeDaemon(
        plane,
        port=args.port,
        tick_seconds=args.tick_seconds,
        max_ticks=args.max_ticks,
        jsonl_path=args.access_log,
        announce=True,
    )
    code = asyncio.run(daemon.run())
    _serve_outputs(args, plane, observer)
    return code


def _run_lint(args: argparse.Namespace) -> int:
    """Run the domain-aware static analyser and render its report."""
    import os

    from .lint import (
        LintEngine,
        make_rules,
        render_json,
        render_rule_list,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0

    paths = list(args.paths)
    if not paths:
        paths = [p for p in ("src/repro", "benchmarks") if os.path.exists(p)]
        if not paths:
            # Fall back to the installed package location so `caasper
            # lint` works from any working directory.
            paths = [os.path.dirname(os.path.abspath(__file__))]
    if args.graph:
        print(_render_call_graph(paths))
        return 0
    select = (
        [c.strip() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )
    ignore = (
        [c.strip() for c in args.ignore.split(",") if c.strip()]
        if args.ignore
        else None
    )
    try:
        engine = LintEngine(make_rules(select=select, ignore=ignore))
    except ValueError as error:  # unknown rule codes
        print(str(error), file=sys.stderr)
        return 2
    report = engine.run(paths)
    if args.format == "json":
        print(render_json(report))
    elif args.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)


def _render_call_graph(paths: "list[str]") -> str:
    """``caasper lint --graph``: the resolved call graph as JSON."""
    import ast as ast_module

    from .lint import LintEngine, ModuleContext, ProjectIndex
    from .lint.callgraph import build_call_graph, render_graph_json

    project = ProjectIndex()
    for path in LintEngine.discover(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast_module.parse(source, filename=path)
        except SyntaxError:
            continue
        project.add(ModuleContext(path, source, tree))
    return render_graph_json(build_call_graph(project))


def _run_sanitize(args: argparse.Namespace) -> int:
    """Arm the runtime sanitizers; exit non-zero on any failed check."""
    scopes = (
        ("selfcheck", "fleet", "serve")
        if args.scope == "all"
        else (args.scope,)
    )
    failures = 0

    def record(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if "selfcheck" in scopes:
        _sanitize_selfcheck(record, args.stall_threshold)
    if "fleet" in scopes:
        _sanitize_fleet(record)
    if "serve" in scopes:
        _sanitize_serve(record, args)
    print(
        f"sanitize: {failures} failure(s) across scope "
        f"{args.scope!r}"
    )
    return 1 if failures else 0


def _sanitize_selfcheck(args_record, stall_threshold: float) -> None:
    """Injected violations must trip; legitimate calls must not."""
    import asyncio
    import random as random_module
    import time as time_module

    from .errors import SanitizerError
    from .sanitize import (
        DeterminismSanitizer,
        LoopStallDetector,
        invoke_as,
        probe_fork_safety,
    )

    record = args_record
    with DeterminismSanitizer() as guard:
        try:
            invoke_as("repro.sim", time_module.time)
            record(
                "determinism-trips-wall-clock",
                False,
                "time.time from repro.sim went unreported",
            )
        except SanitizerError as error:
            record("determinism-trips-wall-clock", True, str(error))
        try:
            invoke_as("repro.core", random_module.random)  # lint: disable=DET002 - the self-check injects this exact violation
            record(
                "determinism-trips-rng",
                False,
                "random.random from repro.core went unreported",
            )
        except SanitizerError as error:
            record("determinism-trips-rng", True, str(error))
        value = invoke_as("repro.cli", time_module.time)
        record(
            "determinism-passes-non-domain",
            isinstance(value, float),
            "repro.cli may read the wall clock",
        )
        record(
            "determinism-trips-recorded",
            len(guard.trips) == 2,
            f"{len(guard.trips)} trip(s) recorded",
        )
    record(
        "determinism-unpatches-on-exit",
        not hasattr(time_module.time, "__sanitizer_original__"),
        "time.time restored",
    )

    trip_threshold = min(stall_threshold, 0.05)

    async def stalls_on_purpose() -> None:
        await asyncio.sleep(0)
        time_module.sleep(trip_threshold * 3)

    detector = LoopStallDetector(threshold=trip_threshold)
    with detector:
        asyncio.run(stalls_on_purpose())
    tripped = bool(detector.stalls)
    record(
        "stall-detector-trips",
        tripped,
        detector.stalls[0].render()
        if tripped
        else "blocking sleep in a callback went unreported",
    )

    clean = LoopStallDetector(threshold=stall_threshold)
    with clean:
        asyncio.run(asyncio.sleep(0.01))
    record(
        "stall-detector-clean-loop",
        not clean.stalls,
        "well-behaved loop reported no stalls",
    )

    for check in probe_fork_safety().checks:
        record(f"fork.{check.name}", check.ok, check.detail)


def _sanitize_fleet(record) -> None:
    """Pickle/fork probe on a real plan, then a sweep under guard."""
    from .fleet.plans import sweep_plan
    from .sanitize import DeterminismSanitizer, probe_plan
    from .trace import CpuTrace
    from .workloads.synthetic import noisy

    traces = [
        noisy(
            CpuTrace.constant(2.0 + index, 120, f"sanitize-{index}"),
            sigma=0.1,
            seed=index + 1,
        )
        for index in range(3)
    ]
    plan = sweep_plan(traces, name="sanitize", seed=5)
    for check in probe_plan(plan).checks:
        record(f"fleet.{check.name}", check.ok, check.detail)
    with DeterminismSanitizer():
        for job in plan.jobs:
            job.execute(plan.seed_for(job))
    record(
        "fleet.sweep-under-guard",
        True,
        f"{len(plan.jobs)} simulate job(s) ran without touching the "
        "wall clock",
    )


def _sanitize_serve(record, args: argparse.Namespace) -> None:
    """A drill and a live daemon, both under the sanitizers."""
    import asyncio
    import json as json_module
    import tempfile

    from .sanitize import DeterminismSanitizer, LoopStallDetector
    from .serve.config import ServeConfig
    from .serve.drill import run_drill
    from .serve.plane import ControlPlane
    from .serve.server import ServeDaemon

    with DeterminismSanitizer():
        with tempfile.TemporaryDirectory() as state_dir:
            drill = run_drill(
                tenants=args.tenants,
                minutes=args.minutes,
                seed=0,
                kill_cycles=2,
                state_dir=state_dir,
            )
    record(
        "serve.drill-under-guard",
        bool(drill.get("ok")),
        f"{len(drill.get('checks', []))} drill check(s) under the "
        "determinism guard",
    )

    async def http(port: int, method: str, path: str, body=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        payload = (
            b"" if body is None else json_module.dumps(body).encode("utf-8")
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            "Host: sanitize\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status_line = raw.split(b"\r\n", 1)[0]
        return int(status_line.split()[1])

    async def scenario() -> int:
        with tempfile.TemporaryDirectory() as state_dir:
            plane = ControlPlane(
                ServeConfig(max_tenants=4), state_dir=state_dir
            )
            daemon = ServeDaemon(plane, port=0)
            task = asyncio.ensure_future(daemon.run())
            while daemon.bound_port is None:
                if task.done():
                    task.result()
                await asyncio.sleep(0.005)
            port = daemon.bound_port
            for index in range(2):
                await http(
                    port,
                    "POST",
                    "/tenants",
                    {"tenant": f"t{index}", "seed": index, "replicas": 1},
                )
            for _ in range(3):
                await http(
                    port,
                    "POST",
                    "/telemetry",
                    {"batch": {"t0": [2.0], "t1": [3.0]}},
                )
                await http(port, "POST", "/tick")
            await http(port, "GET", "/state")
            daemon.request_shutdown("sanitize")
            return await task

    detector = LoopStallDetector(threshold=args.stall_threshold)
    with DeterminismSanitizer(), detector:
        exit_code = asyncio.run(scenario())
    record(
        "serve.daemon-under-guard",
        exit_code == 0,
        "register/telemetry/tick/drain lifecycle under both sanitizers",
    )
    record(
        "serve.daemon-loop-stall-free",
        not detector.stalls,
        "no event-loop callback exceeded "
        f"{args.stall_threshold:.3f}s"
        if not detector.stalls
        else detector.stalls[0].render(),
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` (a refused resume, a bad trace
    file) is the user's to fix, not a crash: it prints as one
    ``caasper: error: <message>`` line on stderr and exits 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ReproError as error:
        message = " ".join(str(error).splitlines())
        print(f"caasper: error: {message}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns its exit code."""
    if args.command == "list":
        print("experiments:")
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:12s} {doc}")
        print("traces:")
        for name in paper_trace_names():
            print(f"  {name}")
        return 0

    if args.command == "run":
        print(_run_experiment(args))
        return 0

    if args.command == "trace":
        trace = paper_trace(args.name)
        trace.to_csv(args.out)
        print(f"wrote {trace.minutes} samples to {args.out}")
        return 0

    if args.command == "report":
        if args.events:
            return _run_trace_report(args)
        if not args.out:
            parser.error("report requires --out (markdown) or --events "
                         "(trace diagnostics)")
        text = _build_report(fast=args.fast)
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
        return 0

    if args.command == "sweep":
        from .core.config import CaasperConfig
        from .engine import BatchEngine
        from .sim.sweep import (
            SweepConfig,
            default_recommender_factory,
            run_sweep,
        )

        names = [n.strip() for n in args.traces.split(",") if n.strip()]
        traces = [paper_trace(name) for name in names]
        base = CaasperConfig(
            c_min=args.min_cores,
            max_cores=max(args.min_cores + 1, 64),
            proactive=args.proactive,
        )
        sweep_config = SweepConfig(min_cores=args.min_cores)
        store = None
        if args.store_dir:
            from .store import ResultStore

            store = ResultStore(args.store_dir)
        # Engine-ineligible traces fall back to the scalar loop per trace;
        # results are byte-identical either way (docs/ENGINE.md).
        outcome = run_sweep(
            traces,
            sweep_config,
            default_recommender_factory(base, sweep_config),
            store=store,
            engine=BatchEngine(),
        )
        print(outcome.table())
        aggregate = outcome.aggregate()
        print()
        print(
            f"fleet means: slack {aggregate['mean_avg_slack']:.2f} cores, "
            f"throttled obs {aggregate['mean_throttled_obs_pct']:.2f}%, "
            f"{aggregate['mean_scalings']:.0f} scalings/trace"
        )
        if store is not None:
            print(_store_summary_line(store))
        return 0

    if args.command == "fleet":
        return _run_fleet(args)

    if args.command == "store":
        return _run_store(args)

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "chaos":
        return _run_chaos(args)

    if args.command == "capacity":
        return _run_capacity(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "sanitize":
        return _run_sanitize(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Long reports piped into `head`/`less -F` close stdout early;
        # that is normal pipeline behaviour, not an error. Point stdout
        # at devnull so interpreter shutdown doesn't re-raise on flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
