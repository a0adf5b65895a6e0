"""Command-line interface.

Usage examples::

    repro list
    repro table servers
    repro run --algorithm min-energy --vms 200 --interarrival 4
    repro figure fig2 --quick
    repro trace --vms 100 --interarrival 4 --out trace.csv
    repro analyze --trace trace.csv
    repro sweep --field mean_duration --values 2 5 10
    repro solve --vms 12 --window 25
    repro audit --vms 200
    repro explain --vms 30 --servers 5 --algorithm min-energy
    repro report --out report.md --quick
    repro serve --port 7077 --http-port 8080 --data-dir state/
    repro serve --port 7077 --trace-out spans.json
    repro client --port 7077 --vms 200 --interarrival 4
    repro client --port 7077 --vms 200 --retries 5
    repro inject-fault --port 7077 --server-id 3
    repro inject-fault --port 7077 --server-id 3 --recover
    repro serve --port 7077 --consolidate-epoch 50 --frag-threshold 0.4
    repro serve --port 7077 --log-json --slo-latency-ms 50
    repro consolidate --port 7077 --at 120
    repro top --port 7077 --interval 2
    repro slo --port 7077
    repro trace spans.json

(Equivalently ``python -m repro ...``. Running ``repro`` with no
subcommand prints the usage line and exits with status 2.)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from repro.allocators.names import ALLOCATOR_NAMES
from repro.exceptions import ReproError

if TYPE_CHECKING:
    from repro.experiments.config import ScenarioConfig

__all__ = ["main", "build_parser"]

#: ``repro figure NAME`` -> the :mod:`repro.experiments.figures`
#: function that regenerates it. Like every ``repro.experiments`` import
#: here, that module (and the scipy it pulls in) loads only when a
#: subcommand that needs it runs.
_FIGURES = {
    "fig2": "fig2",
    "fig3": "fig3",
    "fig4": "fig4",
    "fig5": "fig5",
    "fig6": "fig6",
    "fig7": "fig7",
    "fig8": "fig8",
    "fig9": "fig9",
    "zoo": "ablation_zoo",
    "sleep": "ablation_sleep_policy",
    "wake": "ablation_initial_wake",
    "ilp-gap": "ilp_gap",
    "robust": "robust_frontier",
}

#: Reduced grids so --quick completes in seconds.
_QUICK_OVERRIDES = {
    "fig2": dict(n_vms_list=(100, 200), interarrivals=(1.0, 4.0, 8.0),
                 seeds=(0, 1)),
    "fig3": dict(interarrivals=(1.0, 4.0, 8.0), seeds=(0, 1)),
    "fig4": dict(n_vms_list=(100, 200), interarrivals=(1.0, 4.0, 8.0),
                 seeds=(0, 1)),
    "fig5": dict(n_vms=200, interarrivals=(1.0, 4.0, 8.0), seeds=(0, 1)),
    "fig6": dict(n_vms=200, interarrivals=(1.0, 4.0, 8.0), seeds=(0, 1)),
    "fig7": dict(n_vms_list=(100, 200), interarrivals=(1.0, 4.0, 8.0),
                 seeds=(0, 1)),
    "fig8": dict(n_vms=200, interarrivals=(1.0, 4.0, 8.0), seeds=(0, 1)),
    "fig9": dict(n_vms=200, interarrivals=(1.0, 4.0, 8.0), seeds=(0, 1)),
    "ilp-gap": dict(n_vms=8, seeds=(0, 1)),
    "robust": dict(n_vms=100, gammas=(0, 1, 2), draws=5),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-saving VM allocation (Xie et al., ICDCSW'13) "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        """A subcommand; ``main`` calls its ``handler(args)``."""
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    # Where the daemon a client subcommand talks to listens; --retries
    # is added last so each --help keeps its option order.
    daemon_at = argparse.ArgumentParser(add_help=False)
    daemon_at.add_argument("--host", default="127.0.0.1")
    daemon_at.add_argument("--port", type=int, default=7077)

    def add_retries(p: argparse.ArgumentParser, help: str = "retry "
                    "transient failures up to this many times") -> None:
        p.add_argument("--retries", type=int, default=0, help=help)

    def add_workload(p: argparse.ArgumentParser, *, vms: int = 100,
                     trace: bool = False, seed: bool = True) -> None:
        """The generated workload's knobs (after an optional --trace)."""
        if trace:
            p.add_argument("--trace", default=None,
                           help="trace file (.csv or .json); otherwise a "
                                "workload is generated")
        p.add_argument("--vms", type=int, default=vms)
        p.add_argument("--interarrival", type=float, default=4.0)
        p.add_argument("--duration", type=float, default=5.0)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    command("list", _cmd_list,
            help="list the available allocation algorithms")

    p_table = command("table", _cmd_table, help="print Table I or Table II")
    p_table.add_argument("which", choices=("vms", "servers"))

    p_run = command(
        "run", _cmd_run,
        help="compare one algorithm against FFPS on a scenario")
    p_run.add_argument("--algorithm", default="min-energy",
                       choices=ALLOCATOR_NAMES)
    add_workload(p_run, seed=False)
    p_run.add_argument("--transition", type=float, default=1.0)
    p_run.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])

    p_fig = command(
        "figure", _cmd_figure,
        help="regenerate a figure's data (fig2..fig9, ablations)")
    p_fig.add_argument("name", choices=sorted(_FIGURES))
    p_fig.add_argument("--quick", action="store_true",
                       help="reduced grid for a fast preview")
    p_fig.add_argument("--out", default=None,
                       help="also export the data (.csv or .json)")

    p_robust = command(
        "robust", _cmd_robust,
        help="Γ-robust frontier: replay committed plans against demand "
             "realized from the declared intervals")
    p_robust.add_argument("--vms", type=int, default=300)
    p_robust.add_argument("--interarrival", type=float, default=0.5)
    p_robust.add_argument("--duration", type=float, default=8.0)
    p_robust.add_argument("--uncertainty", type=float, default=0.3,
                          help="demand radius as a fraction of nominal "
                               "(0, 1]")
    p_robust.add_argument("--gammas", type=int, nargs="+",
                          default=[0, 1, 2, 3, 4],
                          help="Γ budgets to sweep (0 = nominal)")
    p_robust.add_argument("--no-box", action="store_true",
                          help="skip the full worst-case anchor point")
    p_robust.add_argument("--algorithm", default="first-fit",
                          choices=ALLOCATOR_NAMES)
    p_robust.add_argument("--draws", type=int, default=20,
                          help="realized demand worlds per budget")
    p_robust.add_argument("--seed", type=int, default=7)

    p_trace = command(
        "trace", _cmd_trace,
        help="generate a workload trace, or summarize a Chrome-trace file")
    p_trace.add_argument("file", nargs="?", default=None,
                         help="a Chrome trace_event JSON file to "
                              "summarize (as written by "
                              "'serve --trace-out'); omit to generate a "
                              "workload trace instead")
    add_workload(p_trace)
    p_trace.add_argument("--out", default=None,
                         help="output path (.csv or .json); required "
                              "when generating")

    p_analyze = command(
        "analyze", _cmd_analyze,
        help="concurrency profile and energy bounds of a workload")
    add_workload(p_analyze, trace=True)
    p_analyze.add_argument("--servers", type=int, default=None,
                           help="fleet size (default: half the VMs)")

    p_sweep = command(
        "sweep", _cmd_sweep, help="sensitivity sweep of one scenario knob")
    p_sweep.add_argument("--field", required=True,
                         choices=("n_vms", "mean_interarrival",
                                  "mean_duration", "transition_time",
                                  "server_ratio"))
    p_sweep.add_argument("--values", type=float, nargs="+", required=True)
    p_sweep.add_argument("--algorithm", default="min-energy",
                         choices=ALLOCATOR_NAMES)
    add_workload(p_sweep, seed=False)
    p_sweep.add_argument("--seeds", type=int, nargs="+",
                         default=[0, 1, 2, 3, 4])

    p_solve = command(
        "solve", _cmd_solve,
        help="exact / receding-horizon solve of a small workload")
    p_solve.add_argument("--vms", type=int, default=10)
    p_solve.add_argument("--servers", type=int, default=5)
    p_solve.add_argument("--interarrival", type=float, default=2.0)
    p_solve.add_argument("--duration", type=float, default=5.0)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--window", type=int, default=None,
                         help="receding-horizon window; omit for the "
                              "full exact ILP")
    p_solve.add_argument("--time-limit", type=float, default=60.0)

    p_audit = command(
        "audit", _cmd_audit,
        help="characterise a workload, plan it, and audit the plan")
    add_workload(p_audit, trace=True)
    p_audit.add_argument("--servers", type=int, default=None)
    p_audit.add_argument("--algorithm", default="min-energy",
                         choices=ALLOCATOR_NAMES)

    p_explain = command(
        "explain", _cmd_explain,
        help="explain every placement decision of one allocator run: "
             "candidates, feasibility, cost terms")
    add_workload(p_explain, vms=30, trace=True)
    p_explain.add_argument("--servers", type=int, default=None,
                           help="fleet size (default: half the VMs)")
    p_explain.add_argument("--algorithm", default="min-energy",
                           choices=ALLOCATOR_NAMES)
    p_explain.add_argument("--max-delay", type=int, default=0,
                           help="admission queue depth in ticks")
    p_explain.add_argument("--vm-id", type=int, default=None,
                           help="show the full candidate breakdown for "
                                "this VM only")

    p_report = command(
        "report", _cmd_report, help="write a markdown reproduction report")
    p_report.add_argument("--out", required=True)
    p_report.add_argument("--sections", nargs="+", default=None,
                          help="subset of sections (default: all)")
    p_report.add_argument("--quick", action="store_true",
                          help="reduced grids for a fast preview")

    p_serve = command(
        "serve", _cmd_serve,
        help="run the online allocation daemon (JSON lines over TCP or "
             "stdio)")
    p_serve.add_argument("--servers", type=int, default=100,
                         help="fleet size (paper's five-type mix)")
    p_serve.add_argument("--algorithm", default="min-energy",
                         choices=ALLOCATOR_NAMES)
    p_serve.add_argument("--seed", type=int, default=None)
    p_serve.add_argument("--algo-param", action="append", default=[],
                         metavar="KEY=VALUE", dest="algo_param",
                         help="extra allocator constructor parameter "
                              "(repeatable), e.g. --algo-param "
                              "policy=never-sleep --algo-param "
                              "engine=indexed:gamma=2 (engine takes "
                              "an EngineConfig spec string and also "
                              "configures the cluster store)")
    p_serve.add_argument("--max-delay", type=int, default=0,
                         help="queue depth in ticks when the fleet is "
                              "full (0 = reject outright)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7077,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--stdio", action="store_true",
                         help="serve stdin/stdout instead of TCP")
    p_serve.add_argument("--data-dir", default=None,
                         help="journal + snapshot directory (enables "
                              "crash-safe restart)")
    p_serve.add_argument("--snapshot-every", type=int, default=100,
                         help="checkpoint after this many placements")
    p_serve.add_argument("--restore", action="store_true",
                         help="resume from --data-dir's snapshot and "
                              "journal")
    p_serve.add_argument("--trace-out", default=None,
                         help="record spans while serving and write a "
                              "Chrome trace_event JSON on shutdown")
    p_serve.add_argument("--max-inflight", type=int, default=64,
                         help="mutating requests in flight before the "
                              "daemon answers 'overloaded' (0 = "
                              "unbounded)")
    p_serve.add_argument("--http-port", type=int, default=None,
                         metavar="PORT",
                         help="also serve the HTTP/REST gateway "
                              "(/v1/<op>, /metrics, /healthz, /varz) on "
                              "this port (0 picks an ephemeral port)")
    p_serve.add_argument("--consolidate-epoch", type=int, default=0,
                         metavar="N",
                         help="run a live consolidation episode at every "
                              "Nth tick boundary (0 = disabled)")
    p_serve.add_argument("--frag-threshold", type=float, default=None,
                         metavar="X",
                         help="run a live consolidation episode whenever "
                              "fleet fragmentation reaches X in (0, 1]")
    p_serve.add_argument("--migration-cost", type=float, default=5.0,
                         metavar="E",
                         help="migration energy charged per GByte of a "
                              "moved VM's memory")
    p_serve.add_argument("--migration-k", type=int, default=None,
                         metavar="K",
                         help="bid each migrating remainder to at most K "
                              "feasible targets (bounds episode latency)")
    p_serve.add_argument("--log-json", action="store_true",
                         help="emit structured JSON logs (one object per "
                              "line on stderr), correlated by trace id")
    p_serve.add_argument("--log-level", default="info",
                         choices=("debug", "info", "warning", "error"),
                         help="minimum level for --log-json records")
    p_serve.add_argument("--slo-latency-ms", type=float, default=100.0,
                         metavar="MS",
                         help="latency SLO objective: a request is 'fast' "
                              "when served within MS milliseconds")
    p_serve.add_argument("--slo-latency-target", type=float, default=0.99,
                         metavar="F",
                         help="fraction of requests that must be fast")
    p_serve.add_argument("--slo-availability", type=float, default=0.999,
                         metavar="F",
                         help="fraction of requests that must succeed")
    p_serve.add_argument("--telemetry-capacity", type=int, default=1024,
                         metavar="N",
                         help="per-tick fleet telemetry ring size "
                              "(0 disables sampling)")
    p_serve.add_argument("--flight-capacity", type=int, default=256,
                         metavar="N",
                         help="flight-recorder ring size: last N "
                              "request/response pairs kept for debug "
                              "dumps (0 disables)")

    p_client = command(
        "client", _cmd_client, parents=[daemon_at],
        help="stream a workload at a running daemon")
    p_client.add_argument("--framing", default="lines",
                          choices=("lines", "frames"),
                          help="wire dialect: v1 JSON lines or v3 "
                               "binary frames")
    add_workload(p_client, trace=True)
    p_client.add_argument("--batch", type=int, default=None,
                          metavar="N",
                          help="send v2 place_batch requests of up to N "
                               "VMs instead of one place per VM")
    p_client.add_argument("--shutdown", action="store_true",
                          help="ask the daemon to shut down afterwards")
    add_retries(p_client, "retry transient failures (connection drops, "
                "overload shedding) up to this many times with capped "
                "exponential backoff")

    p_fault = command(
        "inject-fault", _cmd_inject_fault, parents=[daemon_at],
        help="report a live server failure (or recovery) to a running "
             "daemon")
    p_fault.add_argument("--server-id", type=int, required=True,
                         help="the server that failed (or recovered)")
    p_fault.add_argument("--at", type=int, default=None, metavar="TICK",
                         help="failure tick (default: the daemon's "
                              "current clock)")
    p_fault.add_argument("--recover", action="store_true",
                         help="bring the server back instead of "
                              "failing it")
    add_retries(p_fault)

    p_consolidate = command(
        "consolidate", _cmd_consolidate, parents=[daemon_at],
        help="force one live consolidation episode on a running daemon")
    p_consolidate.add_argument("--at", type=int, default=None,
                               metavar="TICK",
                               help="episode tick (default: the daemon's "
                                    "current clock)")
    add_retries(p_consolidate)

    p_top = command(
        "top", _cmd_top, parents=[daemon_at],
        help="live fleet telemetry dashboard for a running daemon")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="seconds between refreshes")
    p_top.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop after N refreshes (0 = run until ^C)")
    p_top.add_argument("--last", type=int, default=10, metavar="N",
                       help="show the newest N telemetry samples")
    add_retries(p_top)

    p_slo = command(
        "slo", _cmd_slo, parents=[daemon_at],
        help="print a daemon's SLO burn-rate report (exit 1 when an "
             "objective is burning)")
    add_retries(p_slo)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    for name in ALLOCATOR_NAMES:
        print(name)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1, table2

    print(table1() if args.which == "vms" else table2())
    return 0


def _scenario(args: argparse.Namespace, **extra: object) -> ScenarioConfig:
    """The scenario ``--vms`` / ``--interarrival`` / ``--duration`` name."""
    from repro.experiments.config import ScenarioConfig

    return ScenarioConfig(n_vms=args.vms,
                          mean_interarrival=args.interarrival,
                          mean_duration=args.duration, **extra)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import compare_averaged

    config = _scenario(args, transition_time=args.transition,
                       seeds=tuple(args.seeds))
    result = compare_averaged(config, algorithm=args.algorithm)
    print(f"scenario: {args.vms} VMs on {config.n_servers} servers, "
          f"inter-arrival {args.interarrival} min, "
          f"mean length {args.duration} min")
    print(f"ffps energy:        {result.baseline_energy}")
    print(f"{args.algorithm} energy: {result.algorithm_energy}")
    print(f"energy reduction:   {100 * result.reduction.mean:.2f}% "
          f"± {100 * result.reduction.ci_halfwidth:.2f}")
    print(f"cpu util (ffps/{args.algorithm}): "
          f"{100 * result.baseline_cpu_util.mean:.1f}% / "
          f"{100 * result.algorithm_cpu_util.mean:.1f}%")
    print(f"mem util (ffps/{args.algorithm}): "
          f"{100 * result.baseline_mem_util.mean:.1f}% / "
          f"{100 * result.algorithm_mem_util.mean:.1f}%")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    fn = getattr(figures, _FIGURES[args.name])
    kwargs = _QUICK_OVERRIDES.get(args.name, {}) if args.quick else {}
    result = fn(**kwargs)
    print(result.format())
    if args.out:
        from repro.experiments.export import save_csv, save_json

        saver = save_json if args.out.endswith(".json") else save_csv
        rows = saver(result, args.out)
        print(f"\nexported {rows} rows to {args.out}")
    return 0


def _cmd_robust(args: argparse.Namespace) -> int:
    from repro.experiments.figures import robust_frontier

    result = robust_frontier(
        n_vms=args.vms, mean_interarrival=args.interarrival,
        mean_duration=args.duration, uncertainty=args.uncertainty,
        gammas=tuple(args.gammas), include_box=not args.no_box,
        algo=args.algorithm, draws=args.draws, seed=args.seed)
    print(result.format())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.file:
        from repro.obs.export import load_chrome_trace, \
            summarize_chrome_trace

        events = load_chrome_trace(args.file)
        print(summarize_chrome_trace(events))
        return 0
    if not args.out:
        print("error: --out is required when generating a trace",
              file=sys.stderr)
        return 2
    from repro.workload.trace import Trace

    trace = Trace.from_vms(
        _scenario(args).generate_vms(args.seed),
        n_vms=args.vms, mean_interarrival=args.interarrival,
        mean_duration=args.duration, seed=args.seed)
    if args.out.endswith(".json"):
        trace.save_json(args.out)
    else:
        trace.save_csv(args.out)
    print(f"wrote {len(trace)} VMs to {args.out}")
    return 0


def _load_or_generate(args: argparse.Namespace):
    if getattr(args, "trace", None):
        from repro.workload.trace import Trace

        loader = (Trace.load_json if args.trace.endswith(".json")
                  else Trace.load_csv)
        return list(loader(args.trace))
    return _scenario(args).generate_vms(args.seed)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import concurrency_profile, conflict_graph, \
        energy_lower_bound
    from repro.model.cluster import Cluster

    vms = _load_or_generate(args)
    if not vms:
        print("empty workload")
        return 0
    profile = concurrency_profile(vms)
    graph = conflict_graph(vms)
    n_servers = args.servers or max(1, len(vms) // 2)
    cluster = Cluster.paper_all_types(n_servers)
    bound = energy_lower_bound(vms, cluster)
    horizon = max(vm.end for vm in vms)
    print(f"workload: {len(vms)} VMs over [1, {horizon}]")
    print(f"conflicts: {graph.number_of_edges()} overlapping pairs")
    print(f"max concurrent VMs: {profile.max_concurrent} "
          f"(at t={profile.peak_time})")
    print(f"peak demand: {profile.peak_cpu:.1f} cu "
          f"(t={profile.peak_cpu_time}), "
          f"{profile.peak_memory:.1f} GB (t={profile.peak_memory_time})")
    print(f"fleet: {n_servers} servers, "
          f"{cluster.total_cpu_capacity:.0f} cu / "
          f"{cluster.total_memory_capacity:.0f} GB")
    print(f"energy lower bound: {bound.total:.0f} W·min "
          f"(run {bound.run:.0f} + idle {bound.idle:.0f})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import sensitivity_sweep

    base = _scenario(args, seeds=tuple(args.seeds))
    result = sensitivity_sweep(base, args.field, args.values,
                               algorithm=args.algorithm)
    print(f"sweeping {args.field} "
          f"({args.algorithm} vs ffps, {len(args.seeds)} seeds):\n")
    print(result.format())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.allocators import make_allocator
    from repro.energy.cost import allocation_cost
    from repro.ilp import RecedingHorizonSolver, solve_ilp
    from repro.model.cluster import Cluster

    config = _scenario(args, server_ratio=args.servers / args.vms)
    vms = config.generate_vms(args.seed)
    cluster = Cluster.paper_all_types(args.servers)
    if args.window:
        solver = RecedingHorizonSolver(window_length=args.window,
                                       time_limit_per_window=args.time_limit)
        result = solver.allocate(vms, cluster)
        exact_cost = result.total_energy
        label = f"receding horizon (window {args.window}, " \
                f"{result.windows} windows)"
    else:
        result = solve_ilp(vms, cluster, time_limit=args.time_limit)
        exact_cost = result.objective
        label = f"exact ILP ({result.status})"
    heuristic = allocation_cost(
        make_allocator("min-energy").allocate(vms, cluster)).total
    print(f"{label}: {exact_cost:.1f} W·min")
    print(f"heuristic:  {heuristic:.1f} W·min "
          f"(+{100 * (heuristic - exact_cost) / exact_cost:.2f}%)")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.allocators import make_allocator
    from repro.analysis import diagnose, energy_lower_bound
    from repro.metrics.latency import latency_stats
    from repro.model.cluster import Cluster
    from repro.workload.characterize import characterize

    vms = _load_or_generate(args)
    if len(vms) < 2:
        print("workload too small to audit")
        return 0
    n_servers = args.servers or max(1, len(vms) // 2)
    cluster = Cluster.paper_all_types(n_servers)
    print("workload characterisation:")
    print("  " + characterize(vms).format().replace("\n", "\n  "))
    plan = make_allocator(args.algorithm, seed=args.seed).allocate(
        vms, cluster)
    print(f"\nplan ({args.algorithm} on {n_servers} servers):")
    print("  " + diagnose(plan).format().replace("\n", "\n  "))
    bound = energy_lower_bound(vms, cluster)
    from repro.energy.cost import allocation_cost

    cost = allocation_cost(plan).total
    print(f"\nenergy lower bound: {bound.total:.0f} "
          f"(plan is +{100 * bound.gap_of(cost):.0f}% above)")
    waits = latency_stats(plan)
    print(f"wake-up waits: {100 * waits.affected_fraction:.0f}% of VMs "
          f"wait, mean {waits.mean:.2f} time units")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.allocators import make_allocator
    from repro.model.cluster import Cluster
    from repro.obs.explain import ExplainRecorder, format_decision_table
    from repro.simulation.admission import AdmissionController

    vms = _load_or_generate(args)
    if not vms:
        print("empty workload")
        return 0
    n_servers = args.servers or max(1, len(vms) // 2)
    cluster = Cluster.paper_all_types(n_servers)
    recorder = ExplainRecorder()
    AdmissionController(make_allocator(args.algorithm, seed=args.seed),
                        args.max_delay).run(vms, cluster, recorder=recorder)
    explanations = list(recorder)
    if args.vm_id is not None:
        explanations = recorder.for_vm(args.vm_id)
        if not explanations:
            print(f"error: vm{args.vm_id} is not in the workload",
                  file=sys.stderr)
            return 1
    print(f"{args.algorithm} on {n_servers} servers, "
          f"{len(vms)} VMs offered "
          f"(max delay {args.max_delay}):\n")
    print(format_decision_table(explanations))
    # Full per-candidate breakdowns: every explanation when one VM was
    # asked for, otherwise every rejection (the interesting failures).
    detailed = explanations if args.vm_id is not None \
        else [e for e in explanations if e.decision == "rejected"]
    for explanation in detailed:
        print()
        print(explanation.format())
    return 0


def _parse_algo_params(pairs: Sequence[str]) -> dict[str, object]:
    """``KEY=VALUE`` strings -> allocator kwargs, with literal coercion.

    Values try int, then float, then true/false, then stay strings;
    name/type validation proper happens in ``make_allocator``.
    """
    params: dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"error: --algo-param expects KEY=VALUE, got {pair!r}")
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                lowered = raw.lower()
                if lowered in ("true", "false"):
                    value = lowered == "true"
                elif lowered in ("none", "null"):
                    value = None
                else:
                    value = raw
        params[key] = value
    return params


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.allocators import make_allocator
    from repro.model.cluster import Cluster
    from repro.service.daemon import AllocationDaemon, serve_stdio
    from repro.service.state import ClusterStateStore

    # In stdio mode stdout carries the protocol, so banners go to stderr.
    log = sys.stderr if args.stdio else sys.stdout
    logger = None
    if args.log_json:
        from repro.obs.logging import JsonLogger, set_logger

        # JSON logs share stderr with banners; each record is one line.
        logger = JsonLogger(sys.stderr, level=args.log_level)
        set_logger(logger)

    gateway = None

    def _start_gateway(target: AllocationDaemon) -> None:
        # For --restore this runs via on_built, before journal replay,
        # so /healthz answers 503 "restoring" and mutating requests
        # 503 "unavailable" while the tail is applied.
        nonlocal gateway
        if args.http_port is not None:
            # the HTTP stack loads only for a daemon that serves it
            from repro.service.gateway import start_gateway

            gateway = start_gateway(target, args.host, args.http_port)
            print(f"gateway on http://{gateway.server_address[0]}:"
                  f"{gateway.server_address[1]}/", file=log, flush=True)

    if args.restore:
        if not args.data_dir:
            print("error: --restore needs --data-dir", file=sys.stderr)
            return 2
        daemon = AllocationDaemon.restore(args.data_dir,
                                          on_built=_start_gateway)
    else:
        from repro.obs import SLOConfig

        # The store books with the engine the allocator resolves —
        # ``--algo-param engine=...`` or gamma-ff's own Γ — so the
        # daemon finds the two agreeing.
        algo_params = _parse_algo_params(args.algo_param)
        if "engine" in algo_params:  # a bad spec is a usage error
            from repro.placement import EngineConfig
            try:
                EngineConfig.parse(str(algo_params["engine"]))
            except ReproError as exc:
                print(f"error: --algo-param engine: {exc}", file=sys.stderr)
                return 2
        store = ClusterStateStore(
            Cluster.paper_all_types(args.servers),
            engine=make_allocator(args.algorithm, seed=args.seed,
                                  **algo_params).engine_config.spec)
        daemon = AllocationDaemon(
            store, algorithm=args.algorithm, seed=args.seed,
            algo_params=algo_params,
            max_delay=args.max_delay, data_dir=args.data_dir,
            snapshot_every=args.snapshot_every,
            max_inflight=args.max_inflight,
            consolidate_every=args.consolidate_epoch,
            frag_threshold=args.frag_threshold,
            migration_cost_per_gb=args.migration_cost,
            migration_k=args.migration_k,
            slo=SLOConfig(latency_objective=args.slo_latency_ms / 1e3,
                          latency_target=args.slo_latency_target,
                          availability_target=args.slo_availability),
            telemetry_capacity=args.telemetry_capacity,
            flight_capacity=args.flight_capacity)
        _start_gateway(daemon)
    tracer = None
    if args.trace_out:
        from repro.obs.tracer import Tracer, set_tracer

        tracer = Tracer()
        set_tracer(tracer)
        print(f"tracing to {args.trace_out} (written on shutdown)",
              file=log)
    print(f"cluster: {len(daemon.store.cluster)} servers, "
          f"algorithm {daemon.config['algorithm']}, "
          f"clock {daemon.store.clock}, "
          f"{daemon.store.placement_count()} VMs placed", file=log)
    try:
        if args.stdio:
            serve_stdio(daemon, sys.stdin, sys.stdout)
        else:
            from repro.service.tcp import serve_socket

            server = serve_socket(daemon, args.host, args.port)
            print(f"serving on {server.address[0]}:"
                  f"{server.address[1]} (JSON lines + v3 frames)",
                  file=log, flush=True)
            try:
                server.join()
            except KeyboardInterrupt:
                daemon.handle({"op": "shutdown"})
            finally:
                server.stop()
    finally:
        if gateway is not None:
            gateway.shutdown()
        if tracer is not None:
            from repro.obs.export import write_chrome_trace
            from repro.obs.tracer import set_tracer

            set_tracer(None)
            written = write_chrome_trace(tracer.events, args.trace_out)
            print(f"wrote {written} trace events to {args.trace_out}",
                  file=log)
        if logger is not None:
            from repro.obs.logging import set_logger

            set_logger(None)
    return 0


def _connect(args: argparse.Namespace, **options: object):
    """A client of the daemon ``--host`` / ``--port`` / ``--retries``
    name (use as a context manager)."""
    from repro.service import AllocationClient, ClientConfig

    return AllocationClient(args.host, args.port,
                            config=ClientConfig(retries=args.retries),
                            **options)


def _refused(response: dict) -> bool:
    """Whether the daemon refused the request (the error is printed)."""
    if response.get("ok"):
        return False
    print(f"error: {response.get('error')}", file=sys.stderr)
    return True


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import replay_trace

    vms = _load_or_generate(args)
    if not vms:
        print("empty workload")
        return 0
    with _connect(args, framing=args.framing) as client:
        summary = replay_trace(client, vms, batch=args.batch)
        stats = client.stats()
        exposition = client.metrics()
        if args.shutdown:
            client.shutdown()
    print(f"offered {summary.offered} VMs: {summary.placed} placed, "
          f"{summary.rejected} rejected "
          f"({100 * summary.rejection_rate:.1f}%), "
          f"{summary.delayed} delayed")
    print(f"mean placement latency per VM: {summary.mean_latency_ms:.3f} ms")
    print(f"energy delta (this stream): "
          f"{summary.energy_delta_total:.1f} W·min")
    print(f"daemon totals: {stats['placed']} placed, clock "
          f"{stats['clock']}, energy {stats['energy_total']:.1f} W·min, "
          f"{stats['servers_active']} servers active")
    print()
    print("final daemon metrics:")
    print(_metrics_summary(exposition))
    return 0


def _metrics_summary(exposition: str) -> str:
    """A terse digest of the daemon's Prometheus exposition."""
    from repro.service.metrics import parse_exposition

    families = parse_exposition(exposition)

    def sample(name: str, default: float = 0.0, **labels: str) -> float:
        for sample_labels, value in families.get(name, []):
            if all(sample_labels.get(k) == v for k, v in labels.items()):
                return value
        return default

    lines = [
        f"  fleet power:       {sample('repro_fleet_power_watts'):.1f} W "
        f"({sample('repro_servers_active'):.0f} active servers, "
        f"{sample('repro_running_vms'):.0f} running VMs)",
        f"  energy total:      "
        f"{sample('repro_energy_accumulated_watt_ticks'):.1f} W·min",
    ]
    # Quantile gauges of the latency summary, labeled by quantile.
    quantiles = {labels.get("quantile"): value for labels, value in
                 families.get("repro_placement_latency_seconds", [])
                 if labels.get("quantile")}
    rendered = ", ".join(
        f"p{float(q) * 100:g} {1000 * value:.3f} ms"
        for q, value in sorted(quantiles.items()))
    lines.append(f"  placement latency: {rendered or 'n/a'}")
    lines.append(
        f"  latency samples:   "
        f"{sample('repro_placement_duration_seconds_count'):.0f} "
        f"(histogram)")
    lines.append(
        f"  placed/rejected:   "
        f"{sample('repro_requests_total', decision='placed'):.0f} / "
        f"{sample('repro_requests_total', decision='rejected'):.0f}")
    decisions = families.get("repro_decisions_total", [])
    if decisions:
        lines.append("  decisions by algorithm:")
        for labels, value in sorted(decisions,
                                    key=lambda s: sorted(s[0].items())):
            algorithm = labels.get("algorithm", "?")
            decision = labels.get("decision", "?")
            lines.append(f"    {algorithm}/{decision}: {value:.0f}")
    return "\n".join(lines)


def _cmd_inject_fault(args: argparse.Namespace) -> int:
    with _connect(args) as client:
        if args.recover:
            response = client.recover_server(args.server_id)
        else:
            response = client.fail_server(args.server_id, args.at)
    if _refused(response):
        return 1
    if args.recover:
        print(f"server {args.server_id} recovered at tick "
              f"{response['clock']}; still failed: "
              f"{response.get('servers_failed', 0)}")
        return 0
    print(f"server {args.server_id} failed at tick {response['time']}: "
          f"{response['killed']} VMs cut, {response['replaced']} "
          f"re-placed, {len(response.get('lost', []))} lost")
    print(f"fleet energy delta: {response['energy_delta']:.1f} W·min")
    for item in response.get("replacements", []):
        target = item.get("server_id")
        where = f"-> server {target}" if target is not None else "lost"
        print(f"  vm{item['vm_id']} remainder "
              f"vm{item.get('remainder_id', item['vm_id'])} {where} "
              f"(delta {item.get('energy_delta', 0.0):.1f})")
    return 0


def _cmd_consolidate(args: argparse.Namespace) -> int:
    with _connect(args) as client:
        response = client.consolidate(args.at)
    if _refused(response):
        return 1
    print(f"consolidated at tick {response['time']}: "
          f"{response['migrations']} migrations, "
          f"{response['servers_freed']} servers freed")
    print(f"net energy saved: {response['energy_saved']:.1f} W·min "
          f"(migration cost {response['migration_energy']:.1f} already "
          f"deducted)")
    for item in response.get("moves", []):
        print(f"  vm{item['vm_id']} remainder vm{item['remainder_id']} "
              f"server {item['source_id']} -> {item['target_id']} "
              f"(saving {item['saving']:.1f}, cost {item['cost']:.1f})")
    return 0


def _format_slo(report: dict) -> str:
    """Render an SLO tracker report (as served by the telemetry op)."""
    config = report.get("config", {})
    totals = report.get("totals", {})
    healthy = report.get("healthy", True)
    lines = [
        f"slo: {'healthy' if healthy else 'BURNING'} "
        f"(latency <= {1e3 * config.get('latency_objective', 0):.0f} ms "
        f"for {100 * config.get('latency_target', 0):.4g}% of requests, "
        f"availability {100 * config.get('availability_target', 0):.4g}%)",
        f"  totals: {totals.get('requests', 0)} requests, "
        f"{totals.get('slow', 0)} slow, {totals.get('errors', 0)} errors",
    ]
    for window in report.get("windows", []):
        seconds = window.get("window_seconds", 0)
        lines.append(
            f"  {seconds:>6.10g}s window: "
            f"{window.get('requests', 0):>6} requests, "
            f"latency burn {window.get('latency_burn_rate', 0.0):.3f}, "
            f"availability burn "
            f"{window.get('availability_burn_rate', 0.0):.3f}")
    return "\n".join(lines)


def _format_top(response: dict) -> str:
    """Render one refresh of the ``repro top`` dashboard."""
    samples = response.get("samples", [])
    lines = [f"fleet telemetry at tick {response.get('clock', '?')} "
             f"({len(samples)} samples shown, "
             f"ring capacity {response.get('capacity', 0)}):"]
    if not response.get("enabled", True):
        lines.append("  (telemetry sampling is disabled on this daemon)")
    header = (f"  {'tick':>6} {'active':>6} {'asleep':>6} {'failed':>6} "
              f"{'vms':>5} {'power W':>9} {'energy':>10} {'frag':>6} "
              f"{'infl':>4} {'pend':>4}")
    if samples:
        lines.append(header)
    for s in samples:
        lines.append(
            f"  {s.get('tick', 0):>6} {s.get('servers_active', 0):>6} "
            f"{s.get('servers_asleep', 0):>6} "
            f"{s.get('servers_failed', 0):>6} "
            f"{s.get('running_vms', 0):>5} "
            f"{s.get('fleet_power', 0.0):>9.1f} "
            f"{s.get('energy_accumulated', 0.0):>10.1f} "
            f"{s.get('fragmentation', 0.0):>6.3f} "
            f"{s.get('inflight', 0):>4} {s.get('pending', 0):>4}")
    lines.append(_format_slo(response.get("slo", {})))
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    refreshes = 0
    with _connect(args) as client:
        try:
            while True:
                response = client.telemetry(last=args.last)
                if _refused(response):
                    return 1
                print(_format_top(response), flush=True)
                refreshes += 1
                if args.iterations and refreshes >= args.iterations:
                    return 0
                _time.sleep(args.interval)
                print()
        except KeyboardInterrupt:
            return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    with _connect(args) as client:
        response = client.telemetry(last=1)
    if _refused(response):
        return 1
    report = response.get("slo", {})
    print(_format_slo(report))
    return 0 if report.get("healthy", False) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    size = write_report(args.out, args.sections, quick=args.quick)
    print(f"wrote {size} bytes to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`) — not an error;
        # point the fd at devnull so the interpreter's exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConnectionError as exc:
        print(f"error: cannot reach the daemon: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
