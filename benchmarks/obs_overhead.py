"""Measure the observability tax on the core-ops hot paths.

Runs the same operations ``test_bench_core_ops.py`` times -- the
loaded-port admission check and the delay-bound evaluation -- once with
the null registry/tracer (the default) and once fully enabled, and
fails (exit 1) when the enabled/disabled ratio of the total exceeds the
budget (default 1.10, i.e. <10% overhead; the ISSUE target is <5%).

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py [--budget 1.10]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import obs
from repro.core import SwitchCAC, aggregate, delay_bound
from repro.core.traffic import VBRParameters

PARAMS = VBRParameters(pcr=0.5, scr=0.002, mbs=5)
STREAMS = [
    PARAMS.worst_case_stream().delayed(13.0 * index)
    for index in range(64)
]
AGGREGATE = aggregate(STREAMS)
FILTERED = AGGREGATE.filtered()


def loaded_switch():
    switch = SwitchCAC("bench")
    switch.configure_link("out", {0: 10_000.0, 1: 10_000.0})
    for index in range(48):
        switch.admit(
            f"vc{index}", f"in{index % 3}", "out", index % 2,
            PARAMS.worst_case_stream().delayed(13.0 * index),
        )
    return switch


def bench_switch_check(rounds: int) -> float:
    """Median seconds per loaded-port admission check."""
    switch = loaded_switch()
    candidate = PARAMS.worst_case_stream().delayed(5.0)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        switch.check("in0", "out", 0, candidate)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


def bench_delay_bound(rounds: int) -> float:
    """Median seconds per delay-bound evaluation."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        delay_bound(AGGREGATE, FILTERED)
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2]


BENCHES = [
    ("switch_check", bench_switch_check, 200),
    ("delay_bound", bench_delay_bound, 400),
]

#: Alternating disabled/enabled measurement pairs; the median ratio is
#: judged, which keeps one-off machine hiccups from failing the gate.
TRIALS = 5


def measure() -> dict:
    return {name: fn(rounds) for name, fn, rounds in BENCHES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=1.10,
                        help="max allowed enabled/disabled ratio "
                             "(default 1.10)")
    args = parser.parse_args(argv)

    # Warm both paths (cache fill, handle binding).
    obs.disable()
    measure()
    obs.enable()
    measure()
    obs.disable()

    pairs = []
    try:
        for _ in range(TRIALS):
            obs.disable()
            disabled = measure()
            obs.enable()
            enabled = measure()
            pairs.append((disabled, enabled))
    finally:
        obs.disable()

    ratios = sorted(sum(e.values()) / sum(d.values()) for d, e in pairs)
    ratio = ratios[len(ratios) // 2]
    disabled, enabled = pairs[0]
    total_disabled = sum(disabled.values())
    total_enabled = sum(enabled.values())

    width = max(len(name) for name, _, _ in BENCHES)
    print(f"{'bench':{width}} | disabled_us | enabled_us | ratio")
    print("-" * (width + 40))
    for name, _, _ in BENCHES:
        each = enabled[name] / disabled[name]
        print(f"{name:{width}} | {disabled[name] * 1e6:11.1f} "
              f"| {enabled[name] * 1e6:10.1f} | {each:.3f}")
    print(f"{'TOTAL':{width}} | {total_disabled * 1e6:11.1f} "
          f"| {total_enabled * 1e6:10.1f} | first trial")
    print("per-trial total ratios:",
          " ".join(f"{r:.3f}" for r in ratios),
          f"-> median {ratio:.3f}")

    if ratio > args.budget:
        print(f"FAIL: observability overhead ratio {ratio:.3f} exceeds "
              f"budget {args.budget:.2f}", file=sys.stderr)
        return 1
    print(f"OK: overhead ratio {ratio:.3f} within budget "
          f"{args.budget:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
