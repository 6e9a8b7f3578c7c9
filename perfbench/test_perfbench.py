"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's unit so one run takes a few seconds."""
    monkeypatch.setattr(workloads, "CHURN",
                        replace(workloads.CHURN, events=150))
    monkeypatch.setattr(workloads, "TERMINALS", (1, 4))
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)


def run_once(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    return result


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(tiny, capsys, name):
    plain = run_once(capsys, name, 0)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = plain["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]

    traced = run_once(capsys, name, 1)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert traced["metrics"][spec["name"]]["unit"] == spec["unit"]


@pytest.mark.parametrize("name", ["churn-sync", "churn-plane"])
def test_self_times_add_up_to_traced_wall(tiny, capsys, name):
    metrics = {key: value["value"]
               for key, value in run_once(capsys, name, 1)["metrics"].items()}
    wall = metrics["trace.wall_s"]
    self_total = sum(value for key, value in metrics.items()
                     if key.endswith(".self_s"))
    overhead = max(0.0, wall - wall / metrics["trace.overhead_ratio"])
    assert all(value >= 0 for key, value in metrics.items()
               if key.endswith(".self_s"))
    assert abs(self_total - wall) <= overhead + 0.01 * wall
    # Walk and signaling work is attributed to its layer, not the engine.
    assert metrics["admission.setup.calls"] > 0
    assert metrics["signaling.deliver.self_s"] > 0


def test_tracer_restores_every_target():
    from repro.core import bitstream, delay_bound as package_bound
    from repro.core import switch_cac
    tracer = layertrace.LayerTracer()
    originals = (bitstream.BitStream.patched, bitstream.aggregate,
                 switch_cac.delay_bound, package_bound)
    with tracer.installed():
        assert switch_cac.delay_bound is not originals[2]
        assert switch_cac.aggregate is not originals[1]
    assert (bitstream.BitStream.patched, bitstream.aggregate,
            switch_cac.delay_bound, package_bound) == originals
    assert not tracer.missing


def test_speed_factor_and_timer_restore():
    import signal
    import speed
    sampler = speed.Speed()
    window = speed.WINDOW
    sampler.samples = ([speed.REFERENCE_S] * window
                       + [speed.REFERENCE_S * 2] * window)
    # Half the probes ran at reference speed, half at half speed.
    assert sampler.factor(0, 2 * window) == pytest.approx(0.75)
    # Short spans take the window of probes nearest them.
    assert sampler.factor(3, 4) == pytest.approx(1.0)
    assert sampler.factor(2 * window, 2 * window) == pytest.approx(0.5)
    sampler.samples = []
    before = signal.getsignal(signal.SIGALRM)
    sampler.start()
    deadline = speed._clock() + 0.1
    while speed._clock() < deadline:
        pass
    sampler.stop()
    assert len(sampler.samples) > 2 and sampler.spent > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_steps_proxy_forwards_send_throw_and_return():
    log = []

    def steps():
        try:
            got = yield 1
            log.append(got)
            yield 2
        except KeyError:
            log.append("caught")
        return "done"

    proxy = layertrace.steps_proxy(
        steps(), lambda: log.append("begin"), lambda: log.append("end"),
        lambda: log.append("finished"))
    assert next(proxy) == 1
    assert proxy.send("x") == 2
    with pytest.raises(StopIteration) as stop:
        proxy.throw(KeyError())
    assert stop.value.value == "done"
    assert log == ["begin", "end", "begin", "x", "end", "begin", "caught",
                   "end", "finished"]


def test_churn_build_matches_program_recipe():
    from repro.workload import run_scenario
    scenario = replace(workloads.CHURN, events=200, seed=5)
    engine = workloads.build_churn(scenario)
    engine.run(max_events=scenario.events)
    report = engine.report(warmup=engine.now * scenario.warmup_fraction)
    assert report.ledger_digest == run_scenario(scenario).ledger_digest


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "churn-sync",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
