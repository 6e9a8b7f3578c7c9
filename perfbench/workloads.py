"""The four benchmark workloads, each a closed loop on one thread.

A workload object offers three things to the runner in ``run.py``:

* ``setup_round()`` -- build topology and CAC objects and run the
  warm-up, which doubles as a reference output check.  The runner
  repeats it and reports the median as part of ``setup_s``.
* ``unit(index)`` -- one timed unit of work on inputs drawn from the
  run's seed.  It returns a :class:`Unit` with the operations done,
  the seconds they took and the per-operation latency samples, scaled
  to the reference host speed when the runner set ``speed`` (see
  ``speed.py``).
* ``final_checks()`` -- output checks too slow to repeat per unit.

Every check appends to ``self.checks`` as ``(name, passed)``; the
runner counts failures into ``failed`` and ``error_rate``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import NetworkCAC
from repro.exceptions import AdmissionError
from repro.network.connection import ConnectionRequest
from repro.rtnet import (
    HIGH_SPEED_DELAY_CELLS,
    RingAnalysis,
    broadcast_route,
    build_rtnet,
    terminal_name,
)
from repro.rtnet.workloads import (
    asymmetric_workload,
    plant_mix_workload,
    symmetric_workload,
)
from repro.workload import ChurnScenario
from repro.workload.churn import ChurnEngine
from repro.workload.policies import make_policy

from layertrace import steps_proxy
from speed import Speed

_clock = time.perf_counter

#: Reference output digests of the warm-up scenarios (see README.md).
EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text())

#: A timed span: (first probe, probe after the last, seconds).
Span = Tuple[int, int, float]

#: The module set a fresh process imports before it can run a workload.
IMPORTS = ("repro.core", "repro.rtnet", "repro.workload")


@dataclass
class Unit:
    """One timed unit: ``ops`` operations in ``op_seconds`` seconds at
    the reference speed (``host_seconds`` as measured)."""

    ops: int
    op_seconds: float
    host_seconds: float
    #: Operations whose request was granted (admitted / admissible).
    admitted: int
    #: Operations that asked for a grant (arrivals, points, requests).
    requests: int
    #: Seconds per admission operation, at the reference speed.
    latencies: List[float] = field(default_factory=list)
    #: Routes tried per arrival, summed (churn only).
    attempts: int = 0
    #: Simulation events the engine dispatched (churn only).
    engine_events: int = 0


class Workload:
    name = ""
    #: Report-line names: (rate, latency prefix, what one sample times).
    report_names: Tuple[str, str, str] = ("", "", "")

    def __init__(self, seed: int):
        self.seed = seed
        self.checks: List[Tuple[str, bool]] = []
        #: Set by the runner to scale timings to the reference speed.
        self.speed: Optional[Speed] = None

    def rng(self, index: int) -> random.Random:
        """The input generator of unit ``index``: a function of the run
        seed and the index only, so a unit can be replayed."""
        return random.Random(self.seed * 1_000_003 + index)

    def begin(self) -> Tuple[int, float]:
        """Start a timed span (see :meth:`end`)."""
        if self.speed is None:
            return 0, _clock()
        return self.speed.mark(), _clock() - self.speed.spent

    def end(self, begun: Tuple[int, float]) -> Span:
        """End a timed span: the probes taken during it, and its host
        seconds less the time spent probing the host's speed."""
        if self.speed is None:
            return 0, 0, _clock() - begun[1]
        return (begun[0], self.speed.mark(),
                _clock() - self.speed.spent - begun[1])

    def scale(self, span: Span) -> float:
        """The seconds of ``span`` at the reference speed.  Call it once
        the unit is over, so a short span can take probes after it."""
        first, last, seconds = span
        if self.speed is None:
            return seconds
        return seconds * self.speed.factor(first, last)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))

    def final_checks(self) -> None:
        pass

    def notes(self) -> Dict[str, object]:
        """Workload-specific figures for the human-readable report."""
        return {}


# ----------------------------------------------------------------------
# Churn: dual ring, 6 nodes, CBR 0.15, offered load 4.0, bound 48
# ----------------------------------------------------------------------

#: One unit is ``events`` churn events from an empty network.
CHURN = ChurnScenario(
    topology="dual-ring", nodes=6, bound=48.0, rate=0.15,
    offered_load=4.0, events=2000, k=2,
)
PLANE = {"setup_latency": 2.0, "reservation_ttl": 40.0}


def build_churn(scenario: ChurnScenario) -> ChurnEngine:
    """The objects ``repro.workload.run_scenario`` builds, kept in hand."""
    network = scenario.build_network()
    cac = NetworkCAC(network, rng=random.Random(scenario.seed),
                     hop_latency=scenario.setup_latency)
    return ChurnEngine(
        cac, [scenario.traffic_class()],
        pairs=scenario.build_pairs(network), seed=scenario.seed,
        policy=make_policy(scenario.policy, scenario.k),
        setup_latency=scenario.setup_latency,
        reservation_ttl=scenario.reservation_ttl,
    )


def _time_setup_calls(cac: NetworkCAC, samples: List[List[Span]],
                      workload: Workload) -> None:
    """Record the span of each ``cac.setup`` call, refusals included."""
    setup = cac.setup

    def timed(*args, **kwargs):
        begun = workload.begin()
        try:
            return setup(*args, **kwargs)
        finally:
            samples.append([workload.end(begun)])

    cac.setup = timed


def _time_setup_walks(cac: NetworkCAC, samples: List[List[Span]],
                      workload: Workload) -> None:
    """Record the spans of each setup walk: the resumptions of each
    ``cac.setup_steps`` generator, from first step to last."""
    setup_steps = cac.setup_steps

    def timed(*args, **kwargs):
        spans: List[Span] = []
        begun = [(0, 0.0)]

        def begin() -> None:
            begun[0] = workload.begin()

        def end() -> None:
            spans.append(workload.end(begun[0]))

        return steps_proxy(setup_steps(*args, **kwargs), begin, end,
                           lambda: samples.append(spans))

    cac.setup_steps = timed


class Churn(Workload):
    """Seeded Poisson churn through live ``NetworkCAC`` walks."""

    def __init__(self, seed: int, plane: bool):
        super().__init__(seed)
        self.plane = plane
        self.name = "churn-plane" if plane else "churn-sync"
        self.report_names = (
            ("events_per_s", "walk", "setup walks") if plane else
            ("events_per_s", "setup", "NetworkCAC.setup calls"))
        self.scenario = replace(CHURN, **PLANE) if plane else CHURN

    def _scenario(self, seed: int, events: int) -> ChurnScenario:
        return replace(self.scenario, seed=seed, events=events)

    def setup_round(self) -> None:
        expected = EXPECTED[self.name]
        engine = build_churn(self._scenario(expected["seed"],
                                            expected["events"]))
        engine.run(max_events=expected["events"])
        report = engine.report(warmup=engine.now * CHURN.warmup_fraction)
        self.check("reference ledger digest",
                   report.ledger_digest == expected["ledger_digest"])
        self.check("reference journal digest",
                   report.journal_digest == expected["journal_digest"])
        self._check_consistent(engine)

    def _check_consistent(self, engine: ChurnEngine) -> None:
        self.check("switch caches consistent", all(
            switch.verify_consistency()
            for switch in engine.cac.switches().values()))

    def unit(self, index: int, sample_latency: bool = True) -> Unit:
        seed = self.rng(index).randrange(2 ** 31)
        engine = build_churn(self._scenario(seed, self.scenario.events))
        samples: List[List[Span]] = []
        if sample_latency:
            if self.plane:
                _time_setup_walks(engine.cac, samples, self)
            else:
                _time_setup_calls(engine.cac, samples, self)
        host = _clock()
        begun = self.begin()
        fired = engine.run(max_events=self.scenario.events)
        span = self.end(begun)
        host = _clock() - host
        # Every program run ends with its report (``churn.report`` in the
        # trace), outside the timed region.
        engine.report(warmup=engine.now * CHURN.warmup_fraction)
        arrivals = [r for r in engine.ledger if r.kind == "arrival"]
        admitted = sum(1 for r in arrivals if r.outcome == "admitted")
        self.check("all events fired", fired == self.scenario.events)
        self._check_consistent(engine)
        return Unit(ops=fired, op_seconds=self.scale(span),
                    host_seconds=host, admitted=admitted,
                    requests=len(arrivals),
                    latencies=[sum(map(self.scale, spans))
                               for spans in samples],
                    attempts=sum(r.attempts for r in arrivals),
                    engine_events=engine.engine.events_processed)


# ----------------------------------------------------------------------
# RTnet sweep: RingAnalysis points from the Fig. 10-12 parameter space
# ----------------------------------------------------------------------

RING = 16
NODE_BOUND = 32
TERMINALS = (1, 4, 8, 16)
#: ``(kind, load, hot fraction)`` rows; each pass evaluates every row
#: for every terminal count, with seeded jitter on load and fraction.
SWEEP_ROWS = (
    ("symmetric", 0.25, 0.0), ("symmetric", 0.6, 0.0),
    ("asymmetric", 0.25, 0.3), ("asymmetric", 0.6, 0.7),
    ("two-priority", 0.25, 0.3), ("two-priority", 0.6, 0.7),
)
JITTER = 0.01


def evaluate_point(kind: str, terminals: int, load: float,
                   hot_fraction: float) -> Tuple[bool, float]:
    """One serial ``RingAnalysis`` evaluation: (admissible, e2e bound).

    ``symmetric`` is a Fig. 10 point (admissible when every link bound
    fits the 32-cell node bound); ``asymmetric`` a Fig. 11 feasibility
    test against the 1 ms deadline; ``two-priority`` the Fig. 12
    variant with the hot terminal demoted to a second priority.
    """
    if kind == "symmetric":
        analysis = RingAnalysis(
            symmetric_workload(load, RING, terminals), RING, NODE_BOUND)
        admissible = analysis.worst_link_bound(0) <= NODE_BOUND
        return admissible, float(analysis.worst_e2e_bound(0))
    if kind == "asymmetric":
        analysis = RingAnalysis(
            asymmetric_workload(load, hot_fraction, RING, terminals),
            RING, NODE_BOUND)
        return analysis.feasible(
            e2e_requirements={0: HIGH_SPEED_DELAY_CELLS}), 0.0
    analysis = RingAnalysis(
        asymmetric_workload(load, hot_fraction, RING, terminals,
                            hot_priority=1, other_priority=0),
        RING, {0: NODE_BOUND, 1: NODE_BOUND * max(4, terminals)})
    return analysis.feasible(e2e_requirements={
        0: HIGH_SPEED_DELAY_CELLS, 1: HIGH_SPEED_DELAY_CELLS * 30}), 0.0


class Sweep(Workload):
    """Each point counts one operation per broadcast it analyses, so
    the per-operation times of points of different sizes compare."""

    name = "rtnet-sweep"
    report_names = ("broadcasts_per_s", "broadcast",
                    "points, each timed per broadcast analysed")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.point_rates: List[float] = []

    def setup_round(self) -> None:
        # The warm-up: one small point of each kind, then the Fig. 10
        # headline points, which are also the output check.
        for kind, load, fraction in SWEEP_ROWS:
            evaluate_point(kind, 1, load, fraction)
        ok, bound = evaluate_point("symmetric", 1, 0.75, 0.0)
        self.check("N=1 B=0.75 admissible within 370",
                   ok and bound <= 370)
        ok, bound = evaluate_point("symmetric", 16, 0.35, 0.0)
        self.check("N=16 B=0.35 within 10% of 370",
                   ok and abs(bound - 370) / 370 < 0.1)

    def points(self, index: int) -> List[Tuple[str, int, float, float]]:
        rng = self.rng(index)
        points = [
            (kind, terminals,
             load + rng.uniform(-JITTER, JITTER),
             min(1.0, max(0.0, fraction + rng.uniform(-JITTER, JITTER))))
            for kind, load, fraction in SWEEP_ROWS
            for terminals in TERMINALS
        ]
        rng.shuffle(points)
        return points

    def unit(self, index: int, sample_latency: bool = True) -> Unit:
        samples: List[float] = []
        admitted = 0
        connections = 0
        host = 0.0
        spans: List[Tuple[Span, int]] = []
        for point in self.points(index):
            start = _clock()
            begun = self.begin()
            ok, _bound = evaluate_point(*point)
            # One point analyses a broadcast per terminal: RING * N.
            spans.append((self.end(begun), RING * point[1]))
            host += _clock() - start
            admitted += ok
        elapsed = 0.0
        for span, broadcasts in spans:
            spent = self.scale(span)
            connections += broadcasts
            elapsed += spent
            samples.append(spent / broadcasts)
        self.point_rates.append(len(spans) / elapsed)
        return Unit(ops=connections, op_seconds=elapsed, host_seconds=host,
                    admitted=admitted, requests=len(spans),
                    latencies=samples)

    def notes(self) -> Dict[str, object]:
        return {"sweep_points_per_s": statistics.median(self.point_rates)}


# ----------------------------------------------------------------------
# Plant mix: Table 1 on a 16-node RTnet ring, 48 broadcasts, batched
# ----------------------------------------------------------------------

PLANT_SETS = 1


def plant_requests(network) -> List[ConnectionRequest]:
    workload = plant_mix_workload(RING, PLANT_SETS)
    return [
        ConnectionRequest(
            name=f"bcast-{terminal_name(node, slot)}", traffic=params,
            route=broadcast_route(network, node, slot), priority=priority)
        for (node, slot), (params, priority) in sorted(workload.items())
    ]


class PlantMix(Workload):
    name = "plantmix-batch"
    report_names = ("batch_requests_per_s", "setup_many", "setup_many calls")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.network = None
        self.requests: List[ConnectionRequest] = []
        self.teardown_s: List[float] = []
        self.bound_diff = 0.0

    def setup_round(self) -> None:
        self.network = build_rtnet(RING, 3 * PLANT_SETS,
                                   bounds={0: NODE_BOUND})
        self.requests = plant_requests(self.network)
        cac = NetworkCAC(self.network)
        outcome = cac.setup_many(self.requests)
        self.check("warm-up admits all 48",
                   len(outcome.established) == len(self.requests) == 48)
        cac.teardown_all()

    def unit(self, index: int, sample_latency: bool = True) -> Unit:
        order = list(self.requests)
        self.rng(index).shuffle(order)
        self.last_order = order
        # A fresh controller per unit: the journal of a reused one would
        # grow with every unit, and memory with it.
        cac = NetworkCAC(self.network)
        host = _clock()
        begun = self.begin()
        outcome = cac.setup_many(order)
        span = self.end(begun)
        host = _clock() - host
        admitted = len(outcome.established)
        self.check("all 48 admitted", admitted == len(order) == 48)
        start = _clock()
        cac.teardown_all()
        self.teardown_s.append(_clock() - start)
        self.check("empty after teardown_all", not cac.established)
        elapsed = self.scale(span)
        return Unit(ops=len(order), op_seconds=elapsed,
                    host_seconds=host, admitted=admitted,
                    requests=len(order), latencies=[elapsed])

    def final_checks(self) -> None:
        """Batched and sequential admission agree (outside the timing)."""
        order = self.last_order
        batched = NetworkCAC(self.network)
        outcome = batched.setup_many(order)
        sequential = NetworkCAC(self.network)
        for request in order:
            try:
                sequential.setup(request)
            except AdmissionError:
                pass
        self.check("setup_many admits the sequential set",
                   set(outcome.admitted_names)
                   == set(sequential.established))
        self.check("setup_many commits the sequential legs", all(
            switch.snapshot_state()
            == sequential.switch(name).snapshot_state()
            for name, switch in batched.switches().items()))
        # Legs and journals match exactly, but the derived port bounds
        # differ in the last digits (about 7e-15 relative on the plant
        # mix), so they are compared to a relative 1e-9; the difference
        # is printed as ``bound_max_rel_diff``.
        batch_ports = batched.port_report()
        seq_ports = sequential.port_report()
        self.bound_diff = max(
            abs(batch_ports[key]["computed_bound"]
                - seq_ports[key]["computed_bound"])
            / max(abs(seq_ports[key]["computed_bound"]), 1e-12)
            for key in seq_ports)
        self.check("setup_many port bounds match sequential",
                   batch_ports.keys() == seq_ports.keys()
                   and self.bound_diff <= 1e-9)

    def notes(self) -> Dict[str, object]:
        return {"teardown_all_s_median": statistics.median(self.teardown_s),
                "bound_max_rel_diff": self.bound_diff}


def make(name: str, seed: int) -> Workload:
    if name == "churn-sync":
        return Churn(seed, plane=False)
    if name == "churn-plane":
        return Churn(seed, plane=True)
    if name == "rtnet-sweep":
        return Sweep(seed)
    if name == "plantmix-batch":
        return PlantMix(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("churn-sync", "churn-plane", "rtnet-sweep", "plantmix-batch")
