"""Shared benchmark configuration.

Every bench regenerates one paper artifact (table or figure) and prints
the rows/series the paper reports, so a ``pytest benchmarks/
--benchmark-only`` run doubles as the reproduction log.  Expensive
sweeps run exactly once via ``benchmark.pedantic``.

A session-finish hook additionally dumps ``benchmarks/BENCH_core_ops.json``
whenever the core-ops micro-benchmarks ran: op -> median ns plus the
stream sizes exercised and the pure-Python seed baselines, so future
PRs can track the perf trajectory without re-running the seed.

Observability is switched on for the bench session (set ``REPRO_OBS=0``
to opt out) and its snapshot -- cache hit rates, bound evaluation
counts -- is embedded in the artifact under ``"obs"``, so every
recorded number carries the execution-path evidence behind it.
"""

import datetime
import json
import os
import pathlib
import sys

import pytest

#: Median ns of the pure-Python seed (commit 64402ba) on the reference
#: container, recorded before the (since removed) NumPy kernel layer
#: landed; kept here so every regenerated artifact carries its own
#: before/after story.
SEED_BASELINE_NS = {
    "test_bench_aggregate": 1_381_570,
    "test_bench_multiplex_pair": 62_633,
    "test_bench_filter": 22_485,
    "test_bench_delay": 7_465,
    "test_bench_delay_bound": 524_084,
}

_ARTIFACT = pathlib.Path(__file__).parent / "BENCH_core_ops.json"

#: Bench modules that publish a module-level ``RESULTS`` dict, and the
#: artifact section each one owns.  Sections whose module did not run
#: this session are left untouched in the artifact (a partial run must
#: never drop the other families' numbers).
_RESULT_SECTIONS = {
    "test_bench_parallel": "parallel",
    "test_bench_churn": "churn",
    "test_bench_setup_latency": "admission_plane",
    "test_bench_fast_path": "fast_path",
}


def pytest_sessionstart(session):
    if os.environ.get("REPRO_OBS", "1") != "0":
        from repro import obs
        obs.enable()


def _obs_summary():
    """Cache hit rates and bound evaluation counts from the bench run."""
    from repro import obs
    registry = obs.get_registry()
    if not registry.enabled:
        return None
    hits = {}
    misses = {}
    for name, _kind, instruments in registry.families():
        if name == "cac_cache_hits_total":
            for instrument in instruments:
                cache = dict(instrument.labels).get("cache", "?")
                hits[cache] = hits.get(cache, 0) + instrument.value
        elif name == "cac_cache_misses_total":
            for instrument in instruments:
                cache = dict(instrument.labels).get("cache", "?")
                misses[cache] = misses.get(cache, 0) + instrument.value
    caches = {}
    for cache in sorted(set(hits) | set(misses)):
        hit = hits.get(cache, 0)
        miss = misses.get(cache, 0)
        caches[cache] = {
            "hits": hit, "misses": miss,
            "hit_rate": round(hit / (hit + miss), 4) if hit + miss else None,
        }
    evaluations = {}
    for name, _kind, instruments in registry.families():
        if name == "bound_evaluations_total":
            for instrument in instruments:
                op = dict(instrument.labels).get("op", "?")
                evaluations[op] = instrument.value
    return {
        "caches": caches,
        "bound_evaluation_counts": dict(sorted(evaluations.items())),
        "checks_total": registry.total("cac_checks_total"),
    }


def pytest_sessionfinish(session, exitstatus):
    benchsession = getattr(session.config, "_benchmarksession", None)
    if benchsession is None:
        return
    ops = {}
    for bench in getattr(benchsession, "benchmarks", []):
        stats = getattr(bench, "stats", None)
        median = getattr(stats, "median", None)
        if median is None:  # older layouts nest the Stats object
            median = getattr(getattr(stats, "stats", None), "median", None)
        if median is None:
            continue
        name = bench.name
        entry = {"median_ns": round(median * 1e9)}
        seed = SEED_BASELINE_NS.get(name)
        if seed is not None:
            entry["seed_baseline_ns"] = seed
            entry["speedup_vs_seed"] = round(seed / entry["median_ns"], 2)
        ops[name] = entry
    core_ran = any(name in SEED_BASELINE_NS for name in ops)
    sections = {}
    for module_name, section in _RESULT_SECTIONS.items():
        module = sys.modules.get(module_name)
        results = dict(getattr(module, "RESULTS", {}) or {}) if module else {}
        if results:
            sections[section] = results
    if not core_ran and not sections:
        return  # no bench family ran; keep the last artifact
    # Partial runs (only core-ops, or only one RESULTS family) merge
    # into the existing artifact instead of clobbering the other
    # sections; each updated section is stamped so the artifact records
    # when every number was last measured.
    artifact = {}
    if _ARTIFACT.exists():
        try:
            artifact = json.loads(_ARTIFACT.read_text())
        except ValueError:
            artifact = {}
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    recorded = artifact.setdefault("recorded_at", {})
    if core_ran:
        recorded["ops"] = stamp
        module = sys.modules.get("test_bench_core_ops")
        sizes = getattr(module, "STREAM_SIZES", None) if module else None
        artifact["unit"] = "ns"
        artifact["stream_sizes"] = sizes or {}
        artifact["ops"] = dict(sorted(ops.items()))
        # bench-batch: setup_many vs the sequential loop over the same
        # plant-mix scenario (acceptance target: speedup >= 3).
        sequential = ops.get("test_bench_setup_sequential",
                             {}).get("median_ns")
        batched = ops.get("test_bench_setup_many", {}).get("median_ns")
        if sequential and batched:
            workload = getattr(module, "BATCH_WORKLOAD", {}) if module else {}
            artifact["batch_setup"] = {
                **workload,
                "sequential_median_ns": sequential,
                "batched_median_ns": batched,
                "speedup": round(sequential / batched, 2),
                "requests_per_sec_batched": round(
                    workload.get("requests", 0) / (batched * 1e-9), 1),
            }
        obs_summary = _obs_summary()
        if obs_summary is not None:
            artifact["obs"] = obs_summary
    for section, results in sections.items():
        artifact[section] = dict(sorted(results.items()))
        recorded[section] = stamp
    _ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")


def run_once(benchmark, fn):
    """Benchmark a sweep exactly once and return its result."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""
    def runner(fn):
        return run_once(benchmark, fn)
    return runner
