"""Admission fast path: screen resolution, identity, and plane speedup.

Three records go into ``BENCH_core_ops.json`` under ``"fast_path"``:

* **screen** -- how the headroom screen resolved the churn mix
  (accepted / rejected without touching Algorithm 4.1, vs exact
  fallthroughs) and the resulting hit rate (acceptance floor: 70%);
* **identity** -- the screened and exact runs' ledger digests (must be
  byte-identical: the fast path may only move the wall clock) plus the
  count of exact ``delay_bound`` evaluations each run performed;
* **plane_churn** -- events/sec of the plane-mode churn scenario with
  the fast path on, against the exact-path baseline recorded before
  this optimization landed (acceptance: >= 1.5x).
"""

import time
from dataclasses import replace

import pytest

from repro.workload import ChurnScenario, run_scenario

#: Filled by the benches, dumped into the artifact by the conftest hook.
RESULTS = {}

SCENARIO = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, events=800, seed=11, k=2,
)

PLANE_SCENARIO = replace(SCENARIO, setup_latency=2.0, reservation_ttl=40.0)

#: ``admission_plane.plane_churn.events_per_sec`` as recorded by the
#: release before the fast path landed, on the reference host -- the
#: denominator of the speedup acceptance target.
BASELINE_PLANE_EVENTS_PER_SEC = 744.1


def _counter_totals(name, label):
    """Sum a counter family by one label across the live registry."""
    from repro import obs

    registry = obs.get_registry()
    totals = {}
    if not registry.enabled:
        return totals
    for family, _kind, instruments in registry.families():
        if family != name:
            continue
        for instrument in instruments:
            key = dict(instrument.labels).get(label, "?")
            totals[key] = totals.get(key, 0) + instrument.value
    return totals


def _delta(after, before):
    return {key: after[key] - before.get(key, 0) for key in after
            if after[key] - before.get(key, 0)}


def test_bench_fast_path_screen_rate(once):
    before = _counter_totals("cac_screen_total", "outcome")
    report = once(lambda: run_scenario(replace(SCENARIO, fast_path=True)))
    outcomes = _delta(_counter_totals("cac_screen_total", "outcome"), before)
    if not outcomes:
        pytest.skip("observability disabled; no screen counters to read")
    resolved = outcomes.get("accept", 0) + outcomes.get("reject", 0)
    total = resolved + outcomes.get("exact", 0)
    hit_rate = resolved / total
    RESULTS["screen"] = {
        "events": SCENARIO.events,
        "seed": SCENARIO.seed,
        "outcomes": outcomes,
        "hit_rate": round(hit_rate, 4),
        "arrivals": report.arrivals,
    }
    assert hit_rate >= 0.70, (
        f"screen resolved only {hit_rate:.1%} of checks ({outcomes}); "
        f"the acceptance floor is 70%"
    )


def test_bench_fast_path_identity_and_exact_call_reduction(once):
    def run_both():
        runs = {}
        for label, fast in (("exact", False), ("screened", True)):
            before = _counter_totals("bound_evaluations_total", "op")
            report = run_scenario(replace(SCENARIO, fast_path=fast))
            evaluations = _delta(
                _counter_totals("bound_evaluations_total", "op"), before)
            runs[label] = (report, evaluations.get("delay_bound", 0))
        return runs

    runs = once(run_both)
    exact_report, exact_calls = runs["exact"]
    screened_report, screened_calls = runs["screened"]
    RESULTS["identity"] = {
        "events": SCENARIO.events,
        "seed": SCENARIO.seed,
        "ledger_digest_exact": exact_report.ledger_digest,
        "ledger_digest_screened": screened_report.ledger_digest,
        "delay_bound_calls_exact": exact_calls,
        "delay_bound_calls_screened": screened_calls,
        "exact_call_reduction": (
            round(1 - screened_calls / exact_calls, 4) if exact_calls else None
        ),
    }
    assert screened_report.ledger_digest == exact_report.ledger_digest, (
        "the screened run must commit the exact same ledger state"
    )
    assert screened_report.blocking == exact_report.blocking
    if exact_calls:
        assert screened_calls < exact_calls, (
            "the screen resolved nothing; every check still ran "
            "Algorithm 4.1"
        )


def test_bench_fast_path_plane_churn_speedup(once):
    def best_of_three():
        best = None
        for _ in range(3):
            start = time.perf_counter()
            result = run_scenario(replace(PLANE_SCENARIO, fast_path=True))
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, result)
        return best

    elapsed, report = once(best_of_three)
    events_per_sec = PLANE_SCENARIO.events / elapsed
    speedup = events_per_sec / BASELINE_PLANE_EVENTS_PER_SEC
    RESULTS["plane_churn"] = {
        "events": PLANE_SCENARIO.events,
        "setup_latency": PLANE_SCENARIO.setup_latency,
        "reservation_ttl": PLANE_SCENARIO.reservation_ttl,
        "wall_s": round(elapsed, 4),
        "events_per_sec": round(events_per_sec, 1),
        "baseline_events_per_sec": BASELINE_PLANE_EVENTS_PER_SEC,
        "speedup_vs_baseline": round(speedup, 2),
        "arrivals": report.arrivals,
    }
    # The acceptance target is 1.5x on the reference container; allow
    # the usual 20% machine headroom the CI regression gate uses.
    assert speedup >= 1.2, (
        f"plane churn ran at {events_per_sec:.1f} events/s -- only "
        f"{speedup:.2f}x the {BASELINE_PLANE_EVENTS_PER_SEC} baseline"
    )
