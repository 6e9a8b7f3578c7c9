"""Command-line interface: regenerate the paper's tables and figures.

Installed as ``repro-eval`` (or run as ``python -m repro.cli``):

.. code-block:: console

   repro-eval table1
   repro-eval fig10 --loads 0.25 0.5 0.75 --terminals 1 16
   repro-eval fig11 --fractions 0 0.5 0.9
   repro-eval fig12
   repro-eval fig13
   repro-eval vbr --mbs 1 8 16
   repro-eval failover --terminals 1 16
   repro-eval chaos --link ring0->ring1 --policy migrate-or-drop
   repro-eval obs --prom           # instrumented plant-mix run, metrics dump
   repro-eval churn --loads 0.5 2 4 --policy k-alternate --seed 7
   repro-eval profile --events 800 --json   # where does admission time go?
   repro-eval --csv fig10          # machine-readable output
   repro-eval --jobs 4 fig11       # fan scenarios across 4 worker processes
   repro-eval --jobs 0 fig13       # ... or every available core
   repro-eval --version

Randomized subcommands (``churn``, ``chaos``) take ``--seed`` (default
0) and are bit-identically reproducible for a given seed; everything
else is closed-form analysis and draws no randomness at all.

Each subcommand prints the same rows the corresponding paper artifact
reports (see EXPERIMENTS.md for the paper-vs-measured record).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import __version__
from .analysis.report import render_table, to_csv
from .rtnet import (
    TABLE_1,
    asymmetric_capacity_curve,
    failover_capacity_curve,
    priority_capacity_curve,
    required_bandwidth_mbps,
    soft_hard_capacity_curve,
    symmetric_delay_curve,
)
from .rtnet.evaluation import vbr_capacity_curve
from .workload.policies import POLICY_NAMES

__all__ = ["main", "build_parser"]

DEFAULT_LOADS = [round(0.05 * step, 2) for step in range(1, 20)]
DEFAULT_FRACTIONS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]


def _jobs_argument(text: str) -> int:
    """argparse type for ``--jobs``: non-negative int, 0 = all cores."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"jobs must be an integer: {text!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = all cores), got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the evaluation artifacts of 'Connection "
                    "Admission Control for Hard Real-Time Communication "
                    "in ATM Networks' (ICDCS 1997).",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of an aligned table")
    parser.add_argument("--jobs", type=_jobs_argument, default=1,
                        metavar="N",
                        help="worker processes for independent scenarios "
                             "(default 1 = serial; 0 = os.cpu_count(); "
                             "results are bit-identical either way)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="cyclic transmission classes")

    fig10 = sub.add_parser("fig10", help="delay bound vs symmetric load")
    fig10.add_argument("--loads", type=float, nargs="+",
                       default=DEFAULT_LOADS)
    fig10.add_argument("--terminals", type=int, nargs="+",
                       default=[1, 4, 8, 16])
    fig10.add_argument("--ring-nodes", type=int, default=16)

    for name, helptext in [
        ("fig11", "max load vs asymmetry"),
        ("fig12", "1 vs 2 priority levels"),
        ("fig13", "hard vs soft CAC"),
    ]:
        fig = sub.add_parser(name, help=helptext)
        fig.add_argument("--fractions", type=float, nargs="+",
                         default=DEFAULT_FRACTIONS)
        fig.add_argument("--terminals", type=int, nargs="+",
                         default=[16] if name != "fig11" else [1, 8, 16])
        fig.add_argument("--ring-nodes", type=int, default=16)
        fig.add_argument("--tolerance", type=float, default=1 / 128)

    vbr = sub.add_parser("vbr", help="VBR feasibility vs per-node MBS")
    vbr.add_argument("--mbs", type=int, nargs="+",
                     default=[1, 2, 4, 8, 16, 24])
    vbr.add_argument("--ring-nodes", type=int, default=16)

    failover = sub.add_parser(
        "failover", help="capacity before/after a ring wrap")
    failover.add_argument("--terminals", type=int, nargs="+",
                          default=[1, 4, 8, 16])
    failover.add_argument("--ring-nodes", type=int, default=16)

    chaos = sub.add_parser(
        "chaos", help="fail a ring link mid-service and migrate around it")
    chaos.add_argument("--ring-nodes", type=int, default=8)
    chaos.add_argument("--sets-per-node", type=int, default=1,
                       help="Table 1 class sets per ring node "
                            "(3 terminals each)")
    chaos.add_argument("--link", default=None,
                       help="link to fail (default: first primary "
                            "ring link)")
    chaos.add_argument("--policy", choices=["migrate-or-drop",
                                            "migrate-or-keep"],
                       default="migrate-or-drop")
    chaos.add_argument("--obs", action="store_true",
                       help="run instrumented and dump the "
                            "survivability counters")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for the CAC's retry-jitter RNG "
                            "(default 0; equal seeds reproduce the "
                            "study bit for bit)")

    churn = sub.add_parser(
        "churn", help="seeded dynamic traffic: blocking vs offered load")
    churn.add_argument("--loads", type=float, nargs="+",
                       default=[0.5, 1.0, 2.0, 3.0, 4.0],
                       metavar="L",
                       help="offered-load points (normalized bandwidth "
                            "demand) of the blocking curve")
    churn.add_argument("--topology", choices=["star", "dual-ring"],
                       default="dual-ring")
    churn.add_argument("--nodes", type=int, default=6,
                       help="terminals (star) or ring nodes (dual-ring)")
    churn.add_argument("--events", type=int, default=2000,
                       help="hard churn-event budget per run")
    churn.add_argument("--policy", choices=list(POLICY_NAMES),
                       default="first-path",
                       help="route-selection policy for every setup")
    churn.add_argument("--k", type=int, default=2,
                       help="candidate routes for the alternate-path "
                            "policies")
    churn.add_argument("--rate", type=float, default=0.15,
                       help="per-connection CBR cell rate (normalized)")
    churn.add_argument("--bound", type=float, default=48.0,
                       help="advertised per-link delay bound (cell times)")
    churn.add_argument("--holding", type=float, default=400.0,
                       help="mean exponential holding time (cell times)")
    churn.add_argument("--replications", type=int, default=1,
                       help="independent seeded replications per load "
                            "point (seed, seed+1, ...)")
    churn.add_argument("--seed", type=int, default=0,
                       help="base seed for arrivals/holding times "
                            "(default 0; equal seeds reproduce the "
                            "curve bit for bit)")
    churn.add_argument("--setup-latency", type=float, default=0.0,
                       help="per-hop per-direction signaling transit "
                            "time (cell times); > 0 runs arrivals as "
                            "concurrent in-flight setups on the "
                            "event-driven admission plane (default 0: "
                            "instantaneous setups)")
    churn.add_argument("--reservation-ttl", type=float, default=None,
                       help="phase-1 reservation hold time before the "
                            "switch discards it (cell times; default: "
                            "no expiry)")
    churn.add_argument("--json", action="store_true",
                       help="emit the curve as a JSON document instead "
                            "of a table (the CI artifact format)")

    profile = sub.add_parser(
        "profile", help="cProfile a seeded churn run; where does admission "
                        "time go?")
    profile.add_argument("--events", type=int, default=800,
                         help="hard churn-event budget of the profiled run")
    profile.add_argument("--seed", type=int, default=11,
                         help="churn seed (equal seeds profile the exact "
                              "same run)")
    profile.add_argument("--load", type=float, default=4.0,
                         help="offered load (normalized bandwidth demand)")
    profile.add_argument("--topology", choices=["star", "dual-ring"],
                         default="dual-ring")
    profile.add_argument("--nodes", type=int, default=6,
                         help="terminals (star) or ring nodes (dual-ring)")
    profile.add_argument("--setup-latency", type=float, default=2.0,
                         help="per-hop signaling transit time; > 0 profiles "
                              "the event-driven admission plane")
    profile.add_argument("--reservation-ttl", type=float, default=40.0,
                         help="phase-1 reservation hold time (cell times)")
    profile.add_argument("--fast-path", choices=["on", "off"], default="on",
                         help="screened (on) or exact (off) admission path")
    profile.add_argument("--top", type=int, default=15,
                         help="rows of the cumulative-time table to keep")
    profile.add_argument("--json", action="store_true",
                         help="emit the profile as a JSON document (the CI "
                              "artifact format)")

    obs_cmd = sub.add_parser(
        "obs", help="run the Table 1 plant mix instrumented; dump metrics")
    obs_cmd.add_argument("--ring-nodes", type=int, default=4)
    obs_format = obs_cmd.add_mutually_exclusive_group()
    obs_format.add_argument("--json", action="store_true",
                            help="emit the metrics as JSON lines")
    obs_format.add_argument("--prom", action="store_true",
                            help="emit Prometheus text exposition format")
    obs_cmd.add_argument("--spans", action="store_true",
                         help="also print the setup span trees")
    obs_cmd.add_argument("--batched", action="store_true",
                         help="establish the mix through the batched "
                              "setup_many pipeline (shared group checks)")

    return parser


def _emit(args, headers: List[str], rows: List[list],
          title: str) -> None:
    if args.csv:
        print(to_csv(headers, rows))
    else:
        print(render_table(headers, rows, title=title))


def _run_table1(args) -> None:
    rows = [
        [cls.name, cls.period_ms, cls.delay_ms, cls.memory_kb,
         round(required_bandwidth_mbps(cls), 1)]
        for cls in TABLE_1.values()
    ]
    _emit(args, ["class", "period_ms", "delay_ms", "memory_kb",
                 "bandwidth_mbps"], rows,
          "Table 1: types of cyclic transmission")


def _run_fig10(args) -> None:
    curves = {
        count: symmetric_delay_curve(args.loads, terminals_per_node=count,
                                     ring_nodes=args.ring_nodes,
                                     jobs=args.jobs)
        for count in args.terminals
    }
    rows = []
    for index, load in enumerate(args.loads):
        row = [load]
        for count in args.terminals:
            point = curves[count][index]
            row.append(round(point.delay_bound, 1)
                       if point.admissible else "rejected")
        rows.append(row)
    _emit(args, ["load"] + [f"N={count}" for count in args.terminals],
          rows, "Figure 10: e2e delay bound (cell times) vs load")


def _run_fig11(args) -> None:
    curves = {
        count: asymmetric_capacity_curve(
            args.fractions, terminals_per_node=count,
            ring_nodes=args.ring_nodes, tolerance=args.tolerance,
            jobs=args.jobs)
        for count in args.terminals
    }
    rows = [
        [fraction] + [round(curves[count][index].max_load, 3)
                      for count in args.terminals]
        for index, fraction in enumerate(args.fractions)
    ]
    _emit(args, ["p"] + [f"N={count}" for count in args.terminals],
          rows, "Figure 11: max supported load vs asymmetry")


def _run_fig12(args) -> None:
    rows_out = []
    for count in args.terminals:
        rows = priority_capacity_curve(
            args.fractions, terminals_per_node=count,
            ring_nodes=args.ring_nodes, tolerance=args.tolerance,
            jobs=args.jobs)
        for fraction, single, dual in rows:
            rows_out.append([count, fraction, round(single, 3),
                             round(dual, 3)])
    _emit(args, ["N", "p", "1 priority", "2 priorities"], rows_out,
          "Figure 12: 1 vs 2 priority levels")


def _run_fig13(args) -> None:
    rows_out = []
    for count in args.terminals:
        rows = soft_hard_capacity_curve(
            args.fractions, terminals_per_node=count,
            ring_nodes=args.ring_nodes, tolerance=args.tolerance,
            jobs=args.jobs)
        for fraction, hard, soft in rows:
            rows_out.append([count, fraction, round(hard, 3),
                             round(soft, 3)])
    _emit(args, ["N", "p", "hard CAC", "soft CAC"], rows_out,
          "Figure 13: hard vs soft CAC")


def _run_vbr(args) -> None:
    rows = [
        [mbs, round(load, 3)]
        for mbs, load in vbr_capacity_curve(args.mbs,
                                            ring_nodes=args.ring_nodes,
                                            jobs=args.jobs)
    ]
    _emit(args, ["mbs_per_node", "max_load"], rows,
          "VBR feasibility: per-node burst allowance vs supportable load")


def _run_failover(args) -> None:
    rows = [
        [count, round(healthy, 3), round(wrapped, 3)]
        for count, healthy, wrapped in failover_capacity_curve(
            args.terminals, ring_nodes=args.ring_nodes, jobs=args.jobs)
    ]
    _emit(args, ["terminals", "healthy", "after_wrap"], rows,
          "Failover: capacity before/after a single ring failure")


def _run_chaos(args) -> None:
    from .rtnet.failover import failover_migration_study

    def study():
        return failover_migration_study(
            ring_nodes=args.ring_nodes, sets_per_node=args.sets_per_node,
            link=args.link, policy=args.policy, seed=args.seed,
        )

    if args.obs:
        from . import obs
        from .robustness.retry import ManualClock

        obs.enable(clock_source=ManualClock())
        try:
            result = study()
        finally:
            obs.disable()
    else:
        result = study()

    latency = (round(result.detection_latency, 1)
               if result.detection_latency is not None else "undetected")
    rows = [
        ["terminals", result.terminals],
        ["established", result.established],
        ["refused", result.refused],
        ["failed link", result.link],
        ["policy", result.policy],
        ["probes to detect", result.probes_to_detect],
        ["detection latency", latency],
        ["migrated", len(result.migrated)],
        ["dropped", len(result.dropped)],
        ["kept", len(result.kept)],
        ["open hops", ", ".join(result.open_hops) or "none"],
        ["breaker reclosed", result.breaker_reclosed],
        ["booking safe", result.booking_safe],
    ]
    _emit(args, ["metric", "value"], rows,
          f"Chaos: live migration around {result.link} "
          f"({args.ring_nodes} ring nodes)")
    for key in sorted(result.metrics):
        print(f"{key} {result.metrics[key]:g}")


def _run_obs(args) -> None:
    from . import obs
    from .obs import export
    from .robustness.retry import ManualClock
    from .rtnet.evaluation import establish_workload
    from .rtnet.workloads import plant_mix_workload

    registry, tracer = obs.enable(clock_source=ManualClock())
    try:
        network, established = establish_workload(
            plant_mix_workload(args.ring_nodes),
            ring_nodes=args.ring_nodes, terminals_per_node=3,
            batched=args.batched,
        )
        setups = list(tracer.roots)
        network.teardown_all()
        if args.json:
            print(export.metrics_to_jsonl(registry))
        elif args.prom:
            print(export.to_prometheus(registry), end="")
        else:
            pipeline = "batched" if args.batched else "sequential"
            print(f"plant mix on {args.ring_nodes} ring nodes "
                  f"({pipeline}): {len(established)} connections "
                  f"established and torn down")
            print(export.metrics_table(registry))
        if args.spans:
            for root in setups:
                print(export.format_span_tree(root))
    finally:
        obs.disable()


def _run_churn(args) -> None:
    import json

    from .workload.churn import ChurnScenario, blocking_curve

    scenario = ChurnScenario(
        topology=args.topology, nodes=args.nodes, bound=args.bound,
        rate=args.rate, mean_holding=args.holding, events=args.events,
        seed=args.seed, policy=args.policy, k=args.k,
        setup_latency=args.setup_latency,
        reservation_ttl=args.reservation_ttl,
    )
    points = blocking_curve(args.loads, scenario,
                            replications=args.replications,
                            jobs=args.jobs)
    if args.json:
        print(json.dumps({
            "topology": args.topology,
            "nodes": args.nodes,
            "policy": args.policy,
            "k": args.k,
            "events": args.events,
            "seed": args.seed,
            "replications": args.replications,
            "setup_latency": args.setup_latency,
            "reservation_ttl": args.reservation_ttl,
            "points": [
                {
                    "offered_load": point.offered_load,
                    "arrivals": point.arrivals,
                    "blocked": point.blocked,
                    "blocking": point.blocking,
                    "ci_half_width": point.ci_half_width,
                    "carried_erlangs": point.carried_erlangs,
                    "digests": list(point.digests),
                }
                for point in points
            ],
        }, indent=2))
        return
    rows = [point.as_row() for point in points]
    _emit(args, ["offered_load", "arrivals", "blocked", "blocking",
                 "ci_95", "carried_erlangs"], rows,
          f"Churn: blocking vs offered load "
          f"({args.policy}, {args.topology}, seed {args.seed})")


def _run_profile(args) -> None:
    import cProfile
    import json
    import pstats
    import time

    from .workload.churn import ChurnScenario, run_scenario

    scenario = ChurnScenario(
        topology=args.topology, nodes=args.nodes, bound=48.0, rate=0.15,
        offered_load=args.load, events=args.events, seed=args.seed, k=2,
        setup_latency=args.setup_latency,
        reservation_ttl=args.reservation_ttl,
        fast_path=args.fast_path == "on",
    )
    run_scenario(scenario)          # warm-up run stays outside the profile
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    run_scenario(scenario)
    profiler.disable()
    elapsed = time.perf_counter() - start
    events_per_sec = args.events / elapsed if elapsed > 0 else float("inf")

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    top = []
    for key in stats.fcn_list:                  # already cumulative-sorted
        filename, line, function = key
        if filename.startswith("~") or "cProfile" in filename:
            continue                            # profiler bookkeeping frames
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[key]
        top.append({
            "function": function,
            "file": filename,
            "line": line,
            "ncalls": ncalls,
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        })
        if len(top) >= args.top:
            break

    if args.json:
        print(json.dumps({
            "topology": args.topology,
            "nodes": args.nodes,
            "events": args.events,
            "seed": args.seed,
            "offered_load": args.load,
            "setup_latency": args.setup_latency,
            "reservation_ttl": args.reservation_ttl,
            "fast_path": args.fast_path,
            "elapsed_s": round(elapsed, 6),
            "events_per_sec": round(events_per_sec, 1),
            "top": top,
        }, indent=2))
        return
    rows = [
        [entry["function"],
         f"{entry['file'].rsplit('/', 1)[-1]}:{entry['line']}",
         entry["ncalls"], round(entry["tottime_s"], 4),
         round(entry["cumtime_s"], 4)]
        for entry in top
    ]
    _emit(args, ["function", "where", "ncalls", "tottime_s", "cumtime_s"],
          rows,
          f"Profile: {args.events} churn events in {elapsed:.2f}s "
          f"({events_per_sec:.0f} events/s, fast path {args.fast_path})")


_RUNNERS = {
    "table1": _run_table1,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "vbr": _run_vbr,
    "failover": _run_failover,
    "chaos": _run_chaos,
    "obs": _run_obs,
    "churn": _run_churn,
    "profile": _run_profile,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _RUNNERS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
