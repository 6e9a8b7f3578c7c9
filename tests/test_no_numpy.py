"""The library runs on the standard library alone.

Stream arithmetic is pure Python, so nothing under ``repro`` may pull in
NumPy, directly or through another package.  The check runs a short
seeded churn scenario and one Fig. 10 point in a fresh interpreter, so
modules that pytest, hypothesis or other tests imported into this
process cannot hide a regression.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
from repro.rtnet import symmetric_delay_curve
from repro.workload import ChurnScenario, run_scenario

report = run_scenario(ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=2.0, events=300, seed=7))
assert report.arrivals > 0, report
(point,) = symmetric_delay_curve([0.75], terminals_per_node=1)
assert point.admissible and point.delay_bound <= 370, point
print(sorted(name for name in sys.modules
             if name == "numpy" or name.startswith("numpy.")))
"""


def test_churn_and_fig10_run_without_importing_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", result.stdout
