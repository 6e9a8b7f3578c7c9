"""Seeded connection churn: the dynamic-traffic engine.

The paper evaluates the CAC on *fixed* connection sets; a production
network serves ongoing traffic in which connections arrive, hold and
depart continuously while the CAC admits or refuses in steady state --
the offered-load vs. blocking regime of classic ATM traffic-management
studies.  :class:`ChurnEngine` drives exactly that workload, fully
deterministically:

* arrivals are Poisson per :class:`TrafficClass` and holding times are
  exponential, every draw coming from one explicit
  ``random.Random(seed)`` -- no wall clock anywhere;
* events run on the deterministic
  :class:`~repro.sim.engine.Engine` heap, so two runs with the same
  seed produce bit-identical ledgers, and runs fanned across worker
  processes (:func:`blocking_curve` with ``jobs=N``) reassemble
  bit-identically to the serial loop;
* every admission attempt goes through the real
  :meth:`~repro.core.admission.NetworkCAC.setup` /
  :meth:`~repro.core.admission.NetworkCAC.teardown` two-phase walks,
  with the route chosen by a pluggable
  :class:`~repro.workload.policies.AdmissionPolicy`;
* a :class:`LinkFailure` plan can arm mid-run failures -- the fault
  injector kills the link, live migration moves the victims, and
  subsequent churn exercises breakers and detour admission on the
  degraded topology;
* the run obeys a **hard event budget** (arrivals + departures fired)
  and the analytics trim a **warm-up** prefix before measuring.

The module-level :class:`ChurnScenario` / :func:`run_scenario` pair is
the picklable recipe the replication fan-out and the CLI share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.admission import NetworkCAC
from ..core.plane import AdmissionPlane, SetupOutcome
from ..core.traffic import VBRParameters, cbr
from ..exceptions import AdmissionError, TrafficModelError
from ..network.connection import ConnectionRequest
from ..network.topology import Network, star_network
from ..obs import events as _oe
from ..obs import metrics as _om
from ..parallel import ParallelExecutor, parallel_map
from ..robustness.faults import FaultInjector, FaultPlan
from ..rtnet.topology import build_rtnet, terminal_name
from ..sim.engine import Engine, EventHandle
from .policies import AdmissionPolicy, FirstPathPolicy, make_policy
from .stats import ChurnReport, batch_means, journal_digest_of, summarize

__all__ = [
    "TrafficClass",
    "ChurnRecord",
    "LinkFailure",
    "ChurnEngine",
    "ChurnScenario",
    "run_scenario",
    "blocking_curve",
    "BlockingPoint",
    "opposite_pairs",
    "star_pairs",
]


@dataclass(frozen=True)
class TrafficClass:
    """One class of churning connections.

    ``arrival_rate`` is the Poisson intensity in arrivals per cell
    time (0 disables the class -- no events are ever scheduled for it);
    ``mean_holding`` the exponential mean holding time.  The nominal
    offered load of the class is ``arrival_rate * mean_holding``
    erlangs, i.e. ``arrival_rate * mean_holding * traffic.scr``
    normalized bandwidth.
    """

    name: str
    traffic: VBRParameters
    arrival_rate: float
    mean_holding: float
    priority: int = 0
    delay_bound: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise TrafficModelError(
                f"arrival rate must be >= 0, got {self.arrival_rate}"
            )
        if self.mean_holding <= 0:
            raise TrafficModelError(
                f"mean holding time must be positive, got {self.mean_holding}"
            )

    @property
    def offered_erlangs(self) -> float:
        """Nominal offered load, ``arrival_rate * mean_holding``."""
        return self.arrival_rate * self.mean_holding


@dataclass(frozen=True)
class ChurnRecord:
    """One ledger row -- plain data, picklable, digest-stable.

    ``kind`` is ``"arrival"``, ``"departure"`` or ``"link-fail"`` /
    ``"link-restore"``; ``outcome`` refines it (``admitted``/``blocked``,
    ``departed``/``dropped``/``absent``, or a migration summary).
    ``attempts`` counts the candidate routes a setup walked (0 for an
    unroutable pair); ``route`` is the admitted route's link names
    (empty otherwise).
    """

    index: int
    time: float
    kind: str
    name: str
    cls: str
    outcome: str
    attempts: int = 0
    route: Tuple[str, ...] = ()


@dataclass(frozen=True)
class LinkFailure:
    """One armed mid-run link failure.

    At simulated time ``time`` the fault injector downs ``link`` (when
    the CAC has an injector), live migration runs under ``policy``, and
    -- when ``restore_after`` is set -- the link is repaired that many
    cell times later, so later churn can route over it again.
    """

    time: float
    link: str
    policy: str = "migrate-or-drop"
    restore_after: Optional[float] = None


class ChurnEngine:
    """Seeded Poisson churn through a live :class:`NetworkCAC`.

    Parameters
    ----------
    cac:
        The admission controller under load.  Arm it with a
        :class:`~repro.robustness.faults.FaultInjector` when the run
        includes :class:`LinkFailure` events, so signalling over dead
        links actually times out and trips breakers.
    classes:
        The traffic mix.  Classes with ``arrival_rate == 0`` are inert.
    pairs:
        The ``(src, dst)`` terminal pairs arrivals pick from, uniformly.
    seed:
        Seeds the single ``random.Random`` behind every draw; two
        engines with equal seeds and classes see identical arrival
        sequences regardless of policy.
    policy:
        Route selection strategy (default
        :class:`~repro.workload.policies.FirstPathPolicy`).  Policies
        draw no randomness, so changing only the policy never perturbs
        the arrival process -- the basis of every policy comparison.
    warmup:
        Default warm-up trim (simulated time) for :meth:`report`.
    failures:
        The armed :class:`LinkFailure` plan.
    setup_latency / reservation_ttl:
        The nonzero-setup-time model.  When either is set the engine
        switches to the event-driven admission plane
        (:class:`~repro.core.plane.AdmissionPlane`): every arrival
        *launches* its setup walk and the connection only starts its
        holding time once the walk commits, ``setup_latency`` per hop
        per message direction later -- so concurrent in-flight setups
        contend for ports, phase-1 reservations are held under the TTL,
        and blocking genuinely differs from the instantaneous model.
        Both unset (the default) keeps the legacy synchronous path,
        bit-identical to previous releases.  In plane mode
        :meth:`run` settles still-in-flight walks after the event
        budget is spent, and crankback route candidates are
        materialized at the arrival instant.

    Examples
    --------
    >>> from repro.network.topology import star_network
    >>> from repro.core.admission import NetworkCAC
    >>> from repro.core.traffic import cbr
    >>> net = star_network(4, bounds={0: 32})
    >>> cac = NetworkCAC(net)
    >>> engine = ChurnEngine(
    ...     cac, [TrafficClass("cbr", cbr(0.1), 0.01, 200.0)],
    ...     pairs=star_pairs(net), seed=7)
    >>> engine.run(max_events=50)
    50
    >>> len(engine.ledger)
    50
    """

    def __init__(self, cac: NetworkCAC,
                 classes: Sequence[TrafficClass],
                 pairs: Sequence[Tuple[str, str]],
                 seed: int = 0,
                 policy: Optional[AdmissionPolicy] = None,
                 warmup: float = 0.0,
                 failures: Sequence[LinkFailure] = (),
                 setup_latency: float = 0.0,
                 reservation_ttl: Optional[float] = None):
        if not classes:
            raise TrafficModelError("churn needs at least one traffic class")
        if not pairs:
            raise TrafficModelError("churn needs at least one (src, dst) pair")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise TrafficModelError(f"duplicate class names in {names}")
        if warmup < 0:
            raise TrafficModelError(f"warmup must be >= 0, got {warmup}")
        self.cac = cac
        self.network: Network = cac.network
        self.classes: Tuple[TrafficClass, ...] = tuple(classes)
        self.pairs: Tuple[Tuple[str, str], ...] = tuple(
            (str(src), str(dst)) for src, dst in pairs)
        self.seed = seed
        self.policy = policy or FirstPathPolicy()
        self.warmup = warmup
        self.failures: Tuple[LinkFailure, ...] = tuple(failures)
        if setup_latency < 0:
            raise TrafficModelError(
                f"setup_latency must be >= 0, got {setup_latency}"
            )
        self.engine = Engine()
        self.setup_latency = setup_latency
        self.reservation_ttl = reservation_ttl
        self._plane: Optional[AdmissionPlane] = None
        if setup_latency > 0 or reservation_ttl is not None:
            cac.hop_latency = setup_latency
            self._plane = AdmissionPlane(cac, self.engine,
                                         reservation_ttl=reservation_ttl)
        self.ledger: List[ChurnRecord] = []
        self._rng = random.Random(seed)
        self._sequence = 0
        self._events_fired = 0
        self._budget = 0
        #: name -> (class name, departure handle) of live connections.
        self._active: Dict[str, Tuple[str, EventHandle]] = {}
        for cls in self.classes:
            if cls.arrival_rate > 0:
                self.engine.schedule(
                    self._rng.expovariate(cls.arrival_rate),
                    partial(self._arrival, cls),
                )
        for failure in self.failures:
            self.engine.schedule(failure.time, partial(self._fail, failure))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_fired(self) -> int:
        """Churn events (arrivals + departures) fired so far."""
        return self._events_fired

    @property
    def active(self) -> Mapping[str, str]:
        """Live connection name -> class name."""
        return {name: cls for name, (cls, _h) in self._active.items()}

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, max_events: int, until: float = math.inf) -> int:
        """Process churn until the hard event budget or horizon.

        ``max_events`` is a *hard* budget on arrivals + departures fired
        by this call: the event crossing the budget is the last one
        processed, later events (even at the same instant) no-op, and
        the heap is left intact so a subsequent :meth:`run` continues
        the same trajectory.  Returns the events this call fired.
        """
        if max_events < 0:
            raise TrafficModelError(
                f"max_events must be >= 0, got {max_events}"
            )
        started = self._events_fired
        self._budget = started + max_events
        while self._events_fired < self._budget:
            upcoming = self.engine.peek_next_time()
            if upcoming is None or upcoming > until:
                break
            self.engine.run(until=upcoming)
        if self._plane is not None:
            # Let every walk already in flight run to completion:
            # budget-exceeded churn events that fire meanwhile no-op.
            self._settle()
        return self._events_fired - started

    def _settle(self) -> None:
        """Run the engine until no admission walk is in flight."""
        while self._plane is not None and self._plane.in_flight:
            upcoming = self.engine.peek_next_time()
            if upcoming is None:
                break
            self.engine.run(until=upcoming)

    def drain(self) -> None:
        """Tear down every still-active connection (end-of-run cleanup)."""
        if self._plane is not None:
            for name, (_cls, handle) in sorted(self._active.items()):
                handle.cancel()
                self._plane.submit_teardown(name)
            self._active.clear()
            self._settle()
            return
        for name, (_cls, handle) in sorted(self._active.items()):
            handle.cancel()
            try:
                self.cac.teardown(name)
            except AdmissionError:
                pass
        self._active.clear()

    def report(self, warmup: Optional[float] = None,
               batches: int = 10) -> ChurnReport:
        """Blocking/load analytics over the run so far (see ``stats``)."""
        return summarize(
            self.ledger,
            {cls.name: cls for cls in self.classes},
            horizon=self.engine.now,
            warmup=self.warmup if warmup is None else warmup,
            seed=self.seed,
            policy=self.policy.name,
            journal_digest=journal_digest_of(self.cac),
            batches=batches,
        )

    # ------------------------------------------------------------------
    # Event callbacks
    # ------------------------------------------------------------------

    def _record(self, kind: str, name: str, cls: str, outcome: str,
                attempts: int = 0, route: Tuple[str, ...] = ()) -> None:
        self.ledger.append(ChurnRecord(
            index=len(self.ledger), time=self.engine.now, kind=kind,
            name=name, cls=cls, outcome=outcome, attempts=attempts,
            route=route,
        ))
        bus = _oe.get_bus()
        if bus.has_subscribers:
            bus.emit("churn", kind, time=self.engine.now, name=name,
                     cls=cls, outcome=outcome)

    def _arrival(self, cls: TrafficClass) -> None:
        if self._events_fired >= self._budget:
            return
        self._events_fired += 1
        # Every draw happens up front, in fixed order, so the arrival
        # process -- pairs, holding times, the whole future schedule --
        # is identical whatever the policy decides below.
        src, dst = self.pairs[self._rng.randrange(len(self.pairs))]
        holding = self._rng.expovariate(1.0 / cls.mean_holding)
        self.engine.schedule_in(
            self._rng.expovariate(cls.arrival_rate),
            partial(self._arrival, cls),
        )
        name = f"c{self._sequence:06d}"
        self._sequence += 1
        if self._plane is not None:
            registry = _om.get_registry()
            if registry.enabled:
                registry.counter("churn_arrivals_total", cls=cls.name).inc()
            routes = list(self.policy.routes(self.cac, self.network,
                                             src, dst))
            self._launch_attempt(name, cls, routes, 0, holding)
            return
        attempts = 0
        admitted: Tuple[str, ...] = ()
        for route in self.policy.routes(self.cac, self.network, src, dst):
            attempts += 1
            request = ConnectionRequest(
                name, cls.traffic, route, priority=cls.priority,
                delay_bound=cls.delay_bound,
            )
            try:
                self.cac.setup(request)
            except AdmissionError:
                continue
            admitted = route.link_names
            break
        registry = _om.get_registry()
        if admitted:
            handle = self.engine.schedule_in(
                holding, partial(self._departure, name, cls.name))
            self._active[name] = (cls.name, handle)
            self._record("arrival", name, cls.name, "admitted",
                         attempts, admitted)
        else:
            self._record("arrival", name, cls.name, "blocked", attempts)
        if registry.enabled:
            registry.counter("churn_arrivals_total", cls=cls.name).inc()
            outcome = "admitted" if admitted else "blocked"
            registry.counter("churn_outcomes_total", cls=cls.name,
                             outcome=outcome).inc()
            if attempts > 1:
                registry.counter("churn_retries_total",
                                 cls=cls.name).inc(attempts - 1)
            registry.gauge("churn_active_connections").set_max(
                len(self._active))

    def _launch_attempt(self, name: str, cls: TrafficClass,
                        routes: Sequence, index: int,
                        holding: float) -> None:
        """Launch candidate route ``index`` of one arrival as a walk.

        Crankback, asynchronously: an :class:`AdmissionError` outcome
        launches the next candidate; success starts the holding time at
        the *commit* instant (setup latency delays the connection, and
        therefore every downstream departure).
        """
        if index >= len(routes):
            self._record("arrival", name, cls.name, "blocked", len(routes))
            self._count_outcome(cls.name, "blocked", len(routes))
            return
        route = routes[index]
        request = ConnectionRequest(
            name, cls.traffic, route, priority=cls.priority,
            delay_bound=cls.delay_bound,
        )

        def done(outcome: SetupOutcome) -> None:
            if outcome.admitted:
                handle = self.engine.schedule_in(
                    holding, partial(self._departure, name, cls.name))
                self._active[name] = (cls.name, handle)
                self._record("arrival", name, cls.name, "admitted",
                             index + 1, route.link_names)
                self._count_outcome(cls.name, "admitted", index + 1)
            elif isinstance(outcome.error, AdmissionError):
                self._launch_attempt(name, cls, routes, index + 1, holding)
            else:
                raise outcome.error  # a bug, not an admission verdict

        self._plane.submit(request, on_done=done)

    def _count_outcome(self, cls_name: str, outcome: str,
                       attempts: int) -> None:
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("churn_outcomes_total", cls=cls_name,
                             outcome=outcome).inc()
            if attempts > 1:
                registry.counter("churn_retries_total",
                                 cls=cls_name).inc(attempts - 1)
            registry.gauge("churn_active_connections").set_max(
                len(self._active))

    def _departure(self, name: str, cls_name: str) -> None:
        if self._events_fired >= self._budget:
            return
        self._events_fired += 1
        entry = self._active.pop(name, None)
        if entry is None:
            self._finish_departure(name, cls_name, "absent")
            return
        if self._plane is not None:
            def done(process) -> None:
                if process.error is not None and \
                        not isinstance(process.error, AdmissionError):
                    raise process.error
                self._finish_departure(
                    name, cls_name,
                    "absent" if process.error is not None else "departed")

            self._plane.submit_teardown(name, on_done=done)
            return
        try:
            self.cac.teardown(name)
        except AdmissionError:
            outcome = "absent"
        else:
            outcome = "departed"
        self._finish_departure(name, cls_name, outcome)

    def _finish_departure(self, name: str, cls_name: str,
                          outcome: str) -> None:
        self._record("departure", name, cls_name, outcome)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("churn_departures_total", cls=cls_name,
                             outcome=outcome).inc()

    def _fail(self, failure: LinkFailure) -> None:
        injector = self.cac.fault_injector
        if injector is not None:
            injector.fail_link(failure.link)
        if self._plane is not None:
            def done(process) -> None:
                if process.error is not None:
                    raise process.error
                self._account_failure(failure, process.result)

            self._plane.submit_link_failure(
                failure.link, policy=failure.policy, on_done=done)
            return
        report = self.cac.handle_link_failure(
            failure.link, policy=failure.policy)
        self._account_failure(failure, report)

    def _account_failure(self, failure: LinkFailure, report) -> None:
        # Victims the policy dropped are gone now: cancel their pending
        # departures and account the early end in the ledger so carried
        # load and utilization timelines stay exact.
        for name in report.dropped:
            entry = self._active.pop(name, None)
            if entry is not None:
                entry[1].cancel()
            self._record("departure", name,
                         entry[0] if entry else "?", "dropped")
        self._record(
            "link-fail", failure.link, "", failure.policy,
            attempts=len(report.migrated),
            route=tuple(sorted(report.dropped) + sorted(report.kept)),
        )
        if failure.restore_after is not None:
            self.engine.schedule_in(
                failure.restore_after, partial(self._restore, failure.link))

    def _restore(self, link: str) -> None:
        injector = self.cac.fault_injector
        if injector is not None:
            injector.restore_link(link)
        self._record("link-restore", link, "", "restored")


# ----------------------------------------------------------------------
# Picklable scenarios and the replication fan-out
# ----------------------------------------------------------------------


def star_pairs(network: Network) -> List[Tuple[str, str]]:
    """All ordered terminal pairs of a network, in sorted name order."""
    terminals = sorted(node.name for node in network.terminals())
    return [(a, b) for a in terminals for b in terminals if a != b]


def opposite_pairs(ring_nodes: int,
                   terminals_per_node: int = 1) -> List[Tuple[str, str]]:
    """RTnet point-to-point pairs: each terminal to its opposite peer.

    The pairing of the survivability study: terminal ``i.s`` talks to
    ``(i + ring_nodes // 2) % ring_nodes . s``, so traffic crosses ring
    links in both route directions on a dual ring.
    """
    half = ring_nodes // 2
    return [
        (terminal_name(node, slot),
         terminal_name((node + half) % ring_nodes, slot))
        for node in range(ring_nodes)
        for slot in range(terminals_per_node)
    ]


@dataclass(frozen=True)
class ChurnScenario:
    """A picklable churn recipe: topology + traffic + run parameters.

    ``offered_load`` is the target mean *bandwidth* demand (normalized
    to the link rate) the arrival process offers:
    ``arrival_rate = offered_load / (rate * mean_holding)``, i.e.
    ``offered_load / rate`` erlangs.  ``topology`` is ``"star"``
    (``nodes`` terminals on one hub) or ``"dual-ring"`` (an RTnet dual
    ring of ``nodes`` ring nodes, opposite-peer pairs) -- the two
    shapes the blocking analytics and the policy-comparison acceptance
    use.  ``warmup_fraction`` trims that leading fraction of the run
    from the analytics.
    """

    topology: str = "star"
    nodes: int = 8
    terminals_per_node: int = 1
    bound: float = 32.0
    rate: float = 0.05
    mbs: int = 1
    offered_load: float = 0.5
    mean_holding: float = 400.0
    events: int = 2000
    seed: int = 1
    policy: str = "first-path"
    k: int = 2
    warmup_fraction: float = 0.1
    failures: Tuple[LinkFailure, ...] = ()
    #: Per-hop per-direction signaling transit time; > 0 switches the
    #: run onto the event-driven admission plane (in-flight setups).
    setup_latency: float = 0.0
    #: Phase-1 reservation hold time before switch-side expiry; only
    #: meaningful with the admission plane active.
    reservation_ttl: Optional[float] = None
    #: Admission fast path: True screens, False runs the exact path.
    #: Decisions (and ledger digests) are identical either way; only
    #: the wall clock moves.
    fast_path: bool = True

    def arrival_rate(self) -> float:
        """The Poisson intensity hitting the offered-load target."""
        return self.offered_load / (self.rate * self.mean_holding)

    def build_network(self) -> Network:
        if self.topology == "star":
            return star_network(self.nodes, bounds={0: self.bound})
        if self.topology == "dual-ring":
            return build_rtnet(
                self.nodes, self.terminals_per_node,
                bounds={0: self.bound}, dual_ring=True,
            )
        raise TrafficModelError(
            f"unknown churn topology {self.topology!r}; expected 'star' "
            f"or 'dual-ring'"
        )

    def build_pairs(self, network: Network) -> List[Tuple[str, str]]:
        if self.topology == "dual-ring":
            return opposite_pairs(self.nodes, self.terminals_per_node)
        return star_pairs(network)

    def traffic_class(self) -> TrafficClass:
        traffic = cbr(self.rate) if self.mbs <= 1 else VBRParameters(
            pcr=min(1.0, self.rate * 4), scr=self.rate, mbs=self.mbs)
        return TrafficClass(
            "cbr" if self.mbs <= 1 else "vbr", traffic,
            arrival_rate=self.arrival_rate(),
            mean_holding=self.mean_holding,
        )


def run_scenario(scenario: ChurnScenario) -> ChurnReport:
    """Execute one :class:`ChurnScenario` end to end (picklable worker).

    Builds the topology, arms a fault injector when the scenario plans
    failures, churns through the hard event budget, and returns the
    warm-up-trimmed :class:`~repro.workload.stats.ChurnReport` --
    plain data, so replications fan across processes bit-identically.
    """
    network = scenario.build_network()
    injector = FaultInjector(FaultPlan([])) if scenario.failures else None
    cac = NetworkCAC(network, fault_injector=injector,
                     rng=random.Random(scenario.seed),
                     hop_latency=scenario.setup_latency,
                     fast_path=scenario.fast_path)
    engine = ChurnEngine(
        cac,
        [scenario.traffic_class()],
        pairs=scenario.build_pairs(network),
        seed=scenario.seed,
        policy=make_policy(scenario.policy, scenario.k),
        failures=scenario.failures,
        setup_latency=scenario.setup_latency,
        reservation_ttl=scenario.reservation_ttl,
    )
    engine.run(max_events=scenario.events)
    return engine.report(warmup=engine.now * scenario.warmup_fraction)


@dataclass(frozen=True)
class BlockingPoint:
    """One point of a blocking-vs-offered-load curve."""

    offered_load: float
    arrivals: int
    blocked: int
    blocking: float
    ci_half_width: float
    carried_erlangs: float
    #: Per-replication ledger digests, in seed order -- the fingerprint
    #: the jobs=1 vs jobs=4 equivalence job compares.
    digests: Tuple[str, ...] = ()

    def as_row(self) -> List[object]:
        return [self.offered_load, self.arrivals, self.blocked,
                round(self.blocking, 4), round(self.ci_half_width, 4),
                round(self.carried_erlangs, 2)]


def blocking_curve(loads: Sequence[float],
                   scenario: ChurnScenario,
                   replications: int = 1,
                   jobs: int = 1,
                   executor: Optional[ParallelExecutor] = None,
                   ) -> List[BlockingPoint]:
    """Blocking probability vs offered load, with replication fan-out.

    Every ``(load, replication)`` cell is one fully seeded
    :func:`run_scenario` (replication ``i`` uses ``seed + i``) -- an
    independent unit of work, so fanning the grid across worker
    processes with ``jobs=N`` returns results bit-identical to the
    serial loop, per-replication ledger digests included.  Confidence
    intervals are batch means: across replications when there are
    several, within-run time batches otherwise.
    """
    if replications < 1:
        raise TrafficModelError(
            f"need at least one replication, got {replications}"
        )
    grid = [
        replace(scenario, offered_load=load, seed=scenario.seed + rep)
        for load in loads
        for rep in range(replications)
    ]
    reports = parallel_map(run_scenario, grid, jobs=jobs, executor=executor)
    points: List[BlockingPoint] = []
    for index, load in enumerate(loads):
        cell = reports[index * replications:(index + 1) * replications]
        arrivals = sum(r.arrivals for r in cell)
        blocked = sum(r.blocked for r in cell)
        blocking = blocked / arrivals if arrivals else 0.0
        if replications > 1:
            _mean, half = batch_means([r.blocking for r in cell])
        else:
            half = cell[0].blocking_ci
        points.append(BlockingPoint(
            offered_load=load,
            arrivals=arrivals,
            blocked=blocked,
            blocking=blocking,
            ci_half_width=half,
            carried_erlangs=sum(r.carried_erlangs for r in cell)
            / len(cell),
            digests=tuple(r.ledger_digest for r in cell),
        ))
    return points
