r"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload churn-sync --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see README.md).  Workloads: churn-sync, churn-plane,
rtnet-sweep, plantmix-batch.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it give the same figures under their per-workload
names, the run details (machine, versions, commit, unit count and
unit-to-unit spread) and any failed output check.  The end-to-end
timings are host seconds scaled to a reference host speed, which the
run samples all through its timed work (``speed.py``); the host
figures are printed next to them.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run exits with code 2 and prints no result.  A
failed output check still prints the result, with ``"correct":
false``, and exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3

_clock = time.perf_counter


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it; False when this checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro
    return Path(repro.__file__).resolve().is_relative_to(SRC)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: List[float]) -> float:
    """Distance between first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0


# ----------------------------------------------------------------------
# Run details
# ----------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    """HEAD of the checkout's git metadata, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def details(args: argparse.Namespace, units: int,
            unit_spread: float) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from repro.core import kernels_enabled
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernels_enabled": kernels_enabled(),
        "commit": commit(),
        "env": {key: os.environ.get(key)
                for key in ("CAC_FAST_PATH", "REPRO_TIMER_WHEEL")},
        "units": units,
        "unit_spread": round(unit_spread, 4),
    }


# ----------------------------------------------------------------------
# Set-up and the timed loop
# ----------------------------------------------------------------------

def import_seconds(modules) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``,
    at the reference speed (the interpreter samples its own speed)."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "from speed import Speed\n"
        "speed = Speed()\n"
        "speed.start()\n"
        "first = speed.mark()\n"
        "start = time.perf_counter() - speed.spent\n"
        f"for name in {tuple(modules)!r}:\n"
        "    importlib.import_module(name)\n"
        "elapsed = time.perf_counter() - speed.spent - start\n"
        "speed.stop()\n"
        "print(elapsed * speed.factor(first, speed.mark()))\n"
    )
    samples = []
    for _ in range(SETUP_ROUNDS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def round_seconds(workload) -> float:
    """Median seconds of ``SETUP_ROUNDS`` set-up rounds, at the
    reference speed."""
    rounds = []
    for _ in range(SETUP_ROUNDS):
        begun = workload.begin()
        workload.setup_round()
        rounds.append(workload.scale(workload.end(begun)))
    return statistics.median(rounds)


def settle() -> None:
    """Start the next unit from the same collector state, so the full
    collections a unit triggers do not depend on the units before it."""
    gc.collect()


def loop(seconds: float, step: Callable[[int], float]) -> List[float]:
    """Call ``step(index)`` until ``seconds`` are spent; ``step``
    returns its own wall time.  A step that would probably end past
    the budget is not started, but at least one step always runs."""
    start = _clock()
    walls: List[float] = []
    while True:
        settle()
        walls.append(step(len(walls)))
        if _clock() - start + statistics.median(walls) > seconds:
            return walls


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def run_untraced(workload, args) -> Dict[str, object]:
    from speed import Speed
    from workloads import IMPORTS
    # The import rounds sample their own speed, so this process does not
    # probe while they run.
    imports_s = import_seconds(IMPORTS)
    workload.speed = Speed()
    workload.speed.start()
    try:
        return measure_untraced(workload, args, imports_s)
    finally:
        workload.speed.stop()


def measure_untraced(workload, args, imports_s: float) -> Dict[str, object]:
    setup_s = imports_s + round_seconds(workload)
    units = []

    def step(index: int) -> float:
        start = _clock()
        units.append(workload.unit(index))
        return _clock() - start

    loop(args.seconds, step)
    workload.final_checks()
    rates = [unit.ops / unit.op_seconds for unit in units]
    latencies = [s for unit in units for s in unit.latencies]
    requests = sum(unit.requests for unit in units)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_us": (percentile(latencies, 0.50) * 1e6, "us"),
        "op_p90_us": (percentile(latencies, 0.90) * 1e6, "us"),
        "admit_ratio": (sum(u.admitted for u in units) / requests, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB"),
    }
    rate, op, sampled = workload.report_names
    probes = workload.speed.samples
    report = {
        rate: metrics["ops_per_s"][0],
        f"host_{rate}": statistics.median(
            unit.ops / unit.host_seconds for unit in units),
        "probes": len(probes),
        "probe_ms_median": statistics.median(probes) * 1e3,
        f"{op}_p50_us": metrics["op_p50_us"][0],
        f"{op}_p90_us": metrics["op_p90_us"][0],
        # Printed only: p99 has ten samples beyond it on churn alone.
        f"{op}_p99_us": percentile(latencies, 0.99) * 1e6,
        "latency_samples": f"{len(latencies)} {sampled}",
        "blocking": 1 - metrics["admit_ratio"][0],
        **workload.notes(),
    }
    return {"metrics": metrics, "report": report,
            "ops": sum(unit.ops for unit in units),
            "units": len(units), "spread": spread(rates)}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------

BITSTREAM_OPS = ("patch", "add", "sub", "filter", "delay", "aggregate")


def screen_counts(registry) -> Dict[str, float]:
    counts = {"accept": 0.0, "reject": 0.0, "exact": 0.0}
    for sample in registry.samples():
        if sample["name"] == "cac_screen_total":
            outcome = sample["labels"].get("outcome")
            if outcome in counts:
                counts[outcome] += sample["value"]
    return counts


def run_traced(workload, args) -> Dict[str, object]:
    from layertrace import OTHER, LayerTracer
    from repro.obs import metrics as obs_metrics

    workload.setup_round()
    tracer = LayerTracer()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    units = []
    screens = {"accept": 0.0, "reject": 0.0, "exact": 0.0}
    expired = 0.0

    def step(index: int) -> float:
        nonlocal expired
        start = _clock()
        workload.unit(index, sample_latency=False)
        plain_walls.append(_clock() - start)
        settle()
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            with tracer.installed():
                begin = _clock()
                with tracer.root():
                    units.append(workload.unit(index, sample_latency=False))
                traced_walls.append(_clock() - begin)
        finally:
            obs_metrics.set_registry(previous)
        for outcome, count in screen_counts(registry).items():
            screens[outcome] += count
        expired += registry.total("cac_reservation_expiries_total")
        return _clock() - start

    loop(args.seconds, step)
    workload.final_checks()
    count = len(units)
    metrics: Dict[str, tuple] = {}

    def layer_metrics(name: str, breakpoints: bool = False) -> None:
        layer = tracer.layer(name)
        metrics[f"{name}.calls"] = (layer.calls / count, "count")
        metrics[f"{name}.self_s"] = (layer.self_s / count, "s")
        if breakpoints:
            metrics[f"{name}.breakpoints_p50"] = (
                layer.size_quantile(0.50), "breakpoints")
            metrics[f"{name}.breakpoints_p90"] = (
                layer.size_quantile(0.90), "breakpoints")

    for op in BITSTREAM_OPS:
        layer_metrics(f"bitstream.{op}", breakpoints=True)
    layer_metrics("delay_bound", breakpoints=True)
    layer_metrics("port_state.apply")
    layer_metrics("switch_cac.check")
    layer_metrics("switch_cac.check_batch")
    for outcome, total in screens.items():
        metrics[f"switch_cac.screen.{outcome}"] = (total / count, "count")
    screened = sum(screens.values())
    metrics["switch_cac.screen.hit_ratio"] = (
        (screens["accept"] + screens["reject"]) / screened
        if screened else 0.0, "ratio")
    for op in ("setup", "teardown", "setup_many"):
        layer_metrics(f"admission.{op}")
    requests = sum(unit.requests for unit in units)
    metrics["admission.attempts_per_arrival"] = (
        sum(unit.attempts for unit in units) / requests
        if requests else 0.0, "ratio")
    layer_metrics("plane.submit")
    plane = tracer.layer("plane.submit")
    metrics["plane.in_flight_max"] = (
        float(max(plane.sizes, default=0)), "count")
    metrics["plane.expired"] = (expired / count, "count")
    layer_metrics("signaling.deliver")
    engine = tracer.layer("engine")
    wall = sum(traced_walls) / count
    metrics["engine.events"] = (
        sum(unit.engine_events for unit in units) / count, "count")
    metrics["engine.self_s"] = (engine.self_s / count, "s")
    metrics["engine.self_share"] = (engine.self_s / count / wall, "ratio")
    metrics["engine.pending_max"] = (
        float(max(engine.sizes, default=0)), "count")
    layer_metrics("routing.alternate_paths")
    metrics["churn.report.self_s"] = (
        tracer.layer("churn.report").self_s / count, "s")
    layer_metrics("evaluation.link_bound")
    metrics["other.self_s"] = (tracer.layer(OTHER).self_s / count, "s")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead_ratio"] = (
        sum(traced_walls) / sum(plain_walls), "ratio")
    report = {
        "traced_units": count,
        "untraced_unit_wall_s": statistics.median(plain_walls),
        "traced_unit_wall_s": statistics.median(traced_walls),
        "targets_missing": sorted(tracer.missing),
    }
    return {"metrics": metrics, "report": report,
            "ops": sum(unit.ops for unit in units),
            "units": count, "spread": spread(traced_walls)}


# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not load_program():
        print(f"no program under {SRC}: nothing to benchmark",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    crashed = 0
    try:
        outcome = runner(workload, args)
    except Exception:  # a program bug: report it as a failed run
        traceback.print_exc()
        crashed = 1
        outcome = {"metrics": {}, "report": {}, "ops": 0, "units": 0,
                   "spread": 0.0}
    failed_checks = [name for name, passed in workload.checks if not passed]
    attempted = outcome["ops"] + len(workload.checks) + crashed
    failed = len(failed_checks) + crashed
    report = dict(outcome["report"])
    report["error_rate"] = failed / attempted if attempted else 1.0
    report["checks"] = f"{len(workload.checks) - len(failed_checks)}" \
                       f"/{len(workload.checks)} passed"
    print(f"# {args.workload}: " + json.dumps(report, default=str))
    print("# details: " + json.dumps(
        details(args, outcome["units"], outcome["spread"])))
    for name in sorted(set(failed_checks)):
        print(f"# FAILED check: {name}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
