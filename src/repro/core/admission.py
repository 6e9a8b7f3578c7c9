"""Network-level connection admission control.

:class:`NetworkCAC` glues the per-switch checks of
:class:`~repro.core.switch_cac.SwitchCAC` into the route-level setup
procedure of Section 4: walk the preselected route, reconstruct the
connection's worst-case arrival stream at every hop from its source
envelope and the CDV accumulated over the *fixed advertised bounds* of
the upstream hops, run the per-switch check, and commit only if every
hop accepts and the route's advertised bounds add up to no more than the
requested end-to-end bound ``D``.

Because every hop's arrival stream is derived from the source contract
plus fixed upstream bounds -- never from the distorted output of the
previous hop -- the per-hop checks are mutually independent and the
procedure needs no iteration, which is one of the paper's selling points
over the rate-function scheme of Raha et al.

The same object serves as the "central connection management server" the
paper plans for RTnet's switched connections: it owns every switch's CAC
state and can also answer hypothetical (non-mutating) queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..exceptions import (
    AdmissionError,
    LinkDown,
    MigrationError,
    QosUnsatisfiable,
    RoutingError,
    SignalingTimeout,
    SwitchRejection,
    SwitchUnavailable,
)
from ..network.connection import (
    ConnectionRequest,
    EstablishedConnection,
    HopCommitment,
)
from ..network.routing import Route, shortest_path
from ..network.signaling import (
    AbortMessage,
    BatchSetupMessage,
    CommitMessage,
    ConnectedMessage,
    ProbeMessage,
    RejectMessage,
    ReleaseMessage,
    SetupMessage,
    SignalingChannel,
    SignalingTrace,
    drain_steps,
)
from ..network.topology import Network
from ..obs import metrics as _om
from ..obs import spans as _ospans
from ..obs.clock import Clock
from ..robustness.breaker import BreakerBoard, CircuitBreaker
from ..robustness.faults import FaultInjector
from ..robustness.health import HealthMonitor
from ..robustness.migration import (
    DROPPED,
    KEPT,
    MIGRATED,
    POLICIES,
    MigrationJournal,
    MigrationReport,
)
from ..robustness.retry import ManualClock, RetryPolicy
from .accumulation import CdvPolicy, make_policy
from .bitstream import BitStream, Number
from .switch_cac import BatchCheckResult, Leg, SwitchCAC

__all__ = ["NetworkCAC", "BatchSetupResult"]


def _failure_outcome(failure: AdmissionError,
                     source: str) -> Tuple[str, str]:
    """A failed setup walk's outcome label and the node that refused it.

    An open breaker (:class:`LinkDown`) fast-failed the walk without
    spending a timeout.  Any other :class:`AdmissionError` is only
    reachable in the event-driven mode: a commit found its reservation
    discarded by the TTL hold timer (or raced a concurrent walk's
    conflicting state); it is reported at the route's source.
    """
    if isinstance(failure, SwitchRejection):
        return "rejected", failure.switch
    if isinstance(failure, SignalingTimeout):
        return "timeout", failure.at_node
    if isinstance(failure, LinkDown):
        return "link-down", failure.at_node
    return "expired", source


@dataclass(frozen=True)
class BatchSetupResult:
    """Outcome of one :meth:`NetworkCAC.setup_many` call.

    ``established`` lists the admitted connections in request order;
    ``failures`` maps each refused request's name to the
    :class:`~repro.exceptions.AdmissionError` a sequential
    :meth:`NetworkCAC.setup` of that request would have raised.
    ``batched`` reports whether the shared-group fast path applied
    (``False`` means the pipeline processed the requests one by one --
    because faults were injected, or because a group check failed and
    exact per-request verdicts were needed).
    """

    established: Tuple[EstablishedConnection, ...]
    failures: Mapping[str, AdmissionError]
    batched: bool

    @property
    def admitted_names(self) -> Tuple[str, ...]:
        """Names of the admitted connections, in request order."""
        return tuple(c.name for c in self.established)


class NetworkCAC:
    """Admission control for a whole network.

    Parameters
    ----------
    network:
        The topology; every switch output port that should carry
        real-time traffic must have advertised ``bounds`` on its link.
    cdv_policy:
        ``"hard"`` (worst-case summation -- the default, required for
        hard real-time guarantees), ``"soft"`` (square-root of the sum
        of squares, Section 4.3 discussion 1), or any custom
        :class:`~repro.core.accumulation.CdvPolicy`.
    filter_per_input:
        Forwarded to every switch; ``False`` reproduces the coarser
        no-link-filtering analysis for the ablation bench.
    fault_injector:
        Optional :class:`~repro.robustness.faults.FaultInjector` the
        signaling channel consults on every message delivery; ``None``
        (the default) makes the protocol lossless, which degenerates to
        the paper's original walk.
    retry_policy / hop_timeout:
        Resend budget and per-hop response timeout of the signaling
        channel (see ``docs/robustness.md``).
    clock / rng:
        Simulated time source and backoff-jitter randomness, injected
        so fault schedules replay deterministically.  The clock is
        shared across all walks of this instance; the event-driven
        admission plane rebinds it to an
        :class:`~repro.obs.clock.EngineClock` via :meth:`bind_clock`.
    hop_latency:
        Nominal per-direction signaling transit time per hop, forwarded
        to every channel; zero keeps the paper's instantaneous-exchange
        model.
    fast_path:
        Forwarded to every switch: whether admission checks consult the
        incremental headroom-ledger screen before falling through to
        the exact delay-bound evaluation (decision-identical either
        way; see ``docs/performance.md``).  ``False`` is the exact
        reference path.
    breaker_threshold / breaker_reset_timeout:
        Circuit-breaker tuning: consecutive delivery failures that trip
        a hop's breaker open, and how long (simulated time) the breaker
        fast-fails before letting a half-open probe through (see
        ``docs/robustness.md``).
    suspicion_threshold:
        Consecutive timeouts before the :attr:`health` monitor declares
        a link or switch down.

    Every instance owns a survivability layer: :attr:`health` (the
    failure detector fed by delivery outcomes), :attr:`breakers` (one
    circuit breaker per signaling hop, with the epoch-reconciliation
    close hook installed) and :attr:`migration_journal` (the network
    level record of every live migration).

    Examples
    --------
    >>> from repro.network.topology import star_network
    >>> from repro.network.routing import shortest_path
    >>> from repro.network.connection import ConnectionRequest
    >>> from repro.core.traffic import cbr
    >>> net = star_network(2, bounds={0: 32})
    >>> cac = NetworkCAC(net)
    >>> request = ConnectionRequest(
    ...     "vc0", cbr(0.3), shortest_path(net, "t0", "t1"))
    >>> established = cac.setup(request)
    >>> established.e2e_bound
    32
    """

    def __init__(self, network: Network,
                 cdv_policy: Union[str, CdvPolicy] = "hard",
                 filter_per_input: bool = True,
                 fault_injector: Optional[FaultInjector] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 hop_timeout: float = 8.0,
                 clock: Optional[ManualClock] = None,
                 rng: Optional[random.Random] = None,
                 breaker_threshold: int = 3,
                 breaker_reset_timeout: float = 64.0,
                 suspicion_threshold: int = 3,
                 hop_latency: float = 0.0,
                 fast_path: bool = True):
        self.network = network
        self.cdv_policy = make_policy(cdv_policy)
        self.filter_per_input = filter_per_input
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.hop_timeout = hop_timeout
        self.hop_latency = hop_latency
        self.clock = clock or ManualClock()
        self.rng = rng or random.Random(0)
        self._switches: Dict[str, SwitchCAC] = {}
        self._established: Dict[str, EstablishedConnection] = {}
        #: leg ids of walks currently in flight, so a breaker closing
        #: mid-walk cannot reconcile away a half-committed booking
        self._in_flight: Set[str] = set()
        self.health = HealthMonitor(
            clock=self.clock, suspicion_threshold=suspicion_threshold,
        )
        self.breakers = BreakerBoard(
            clock=self.clock, failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset_timeout,
            on_close=self._reconcile_breaker,
        )
        self.migration_journal = MigrationJournal()
        if fault_injector is not None:
            # Ground-truth failure instants, for the detection-latency
            # histogram only (the detector itself sees just silence).
            fault_injector.add_link_listener(self.health.link_listener())
        for switch in network.switches():
            cac = SwitchCAC(
                switch.name, filter_per_input=filter_per_input,
                fast_path=fast_path,
            )
            for link in network.out_links(switch.name):
                if link.bounds:
                    cac.configure_link(link.name, link.bounds)
            self._switches[switch.name] = cac

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def switch(self, name: str) -> SwitchCAC:
        """The per-switch CAC state of one switching node."""
        try:
            return self._switches[name]
        except KeyError:
            raise AdmissionError(f"no switch named {name!r}") from None

    def switches(self) -> Mapping[str, SwitchCAC]:
        """Every per-switch CAC, keyed by switch name (a snapshot)."""
        return dict(self._switches)

    @property
    def established(self) -> Mapping[str, EstablishedConnection]:
        """All currently established connections, keyed by name."""
        return dict(self._established)

    def _channel(self, trace: Optional[SignalingTrace],
                 retry_policy: Optional[RetryPolicy] = None,
                 ) -> SignalingChannel:
        """The signaling transport for one walk, sharing this CAC's clock."""
        return SignalingChannel(
            injector=self.fault_injector,
            retry_policy=retry_policy or self.retry_policy,
            clock=self.clock,
            rng=self.rng,
            hop_timeout=self.hop_timeout,
            trace=trace,
            crash_switch=lambda name: self._switches[name].crash(),
            breakers=self.breakers,
            health=self.health,
            hop_latency=self.hop_latency,
        )

    def bind_clock(self, clock: Clock) -> None:
        """Move this CAC (and its survivability layer) onto ``clock``.

        The admission plane calls this with an
        :class:`~repro.obs.clock.EngineClock` so walks, breakers and the
        health monitor all read the one simulation timeline.  Channels
        are created per walk, so they pick the new clock up
        automatically.
        """
        self.clock = clock
        self.health.bind_clock(clock)
        self.breakers.bind_clock(clock)

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def _advertised_bounds(self, route: Route, priority: int) -> List[Number]:
        """The fixed bound of every hop on the route, in order."""
        return [
            self.switch(hop.switch).advertised_bound(hop.out_link, priority)
            for hop in route.hops()
        ]

    def arrival_stream(self, request: ConnectionRequest,
                       hop_index: int) -> BitStream:
        """Step 1: the worst-case arrival stream at the given hop.

        The source envelope of Algorithm 2.1, clumped by the CDV the
        policy accumulates over the advertised bounds of the upstream
        hops (Algorithm 3.1).  Hop 0 sees the undistorted envelope.
        """
        bounds = self._advertised_bounds(request.route, request.priority)
        cdv = self.cdv_policy.accumulate(bounds[:hop_index])
        return request.traffic.worst_case_stream().delayed(cdv)

    def setup(self, request: ConnectionRequest,
              trace: Optional[SignalingTrace] = None) -> EstablishedConnection:
        """Establish a connection along its route, or raise.

        A two-phase walk (see ``docs/robustness.md``): the SETUP message
        first *reserves* resources hop by hop with the properly clumped
        arrival stream, then a COMMIT wave travelling back from the
        destination confirms every reservation.  Each message is
        delivered over the :class:`SignalingChannel` with a per-hop
        timeout and bounded, jittered retries.  The first refusal
        (:class:`SwitchRejection`) or exhausted retry budget
        (:class:`SignalingTimeout`) unwinds every reservation made so
        far -- idempotently, so duplicated or re-sent ABORTs are
        harmless -- and re-raises; the network is then in exactly its
        pre-setup state.  A route whose advertised bounds sum beyond the
        requested ``D`` raises :class:`QosUnsatisfiable` without
        reserving anything.  On success the connection is committed at
        every hop and recorded.
        """
        return drain_steps(self.setup_steps(request, trace), self.clock)

    def setup_steps(self, request: ConnectionRequest,
                    trace: Optional[SignalingTrace] = None,
                    on_reserved: Optional[Callable[[str, str], None]] = None):
        """:meth:`setup` as a resumable step generator.

        Yields every elapse of simulated time; the admission plane runs
        this via :meth:`Engine.process <repro.sim.engine.Engine.process>`
        so N setups can be in flight concurrently, while :meth:`setup`
        drains it synchronously against the CAC clock.
        ``on_reserved(switch, leg_id)`` observes each successful phase-1
        reservation (the plane arms its TTL hold timers there).
        """
        if request.name in self._established:
            raise AdmissionError(
                f"connection {request.name!r} is already established"
            )
        return (yield from self._establish_steps(request, trace,
                                                 on_reserved=on_reserved))

    def _establish_steps(self, request: ConnectionRequest,
                         trace: Optional[SignalingTrace],
                         switch_id: Optional[str] = None,
                         generation: int = 0,
                         on_reserved: Optional[
                             Callable[[str, str], None]] = None):
        """The two-phase walk behind :meth:`setup` and :meth:`migrate`.

        ``switch_id`` is the id the per-switch legs are booked under --
        the plain connection name for an original admission, a
        versioned ``name@g<n>`` id for a migration, so the old and new
        generations coexist at any shared switch during the
        make-before-break window.  On success the established record
        (of the given ``generation``) is registered under the plain
        name, *replacing* any previous generation: that swap is the
        migration's cutover.

        A step generator (see :func:`~repro.network.signaling.drain_steps`):
        every per-hop exchange is a ``yield from`` of the channel's
        :meth:`~repro.network.signaling.SignalingChannel.deliver_steps`.
        ``on_reserved(switch, leg_id)`` fires after each successful
        phase-1 reservation -- the admission plane arms that hop's TTL
        hold timer there.  A reservation the TTL discarded before the
        COMMIT wave reached it raises
        :class:`~repro.exceptions.AdmissionError` at the commit, which
        unwinds the walk with outcome ``expired`` (unreachable in the
        synchronous mode, where no timer can interleave).
        """
        leg_id = switch_id if switch_id is not None else request.name
        registry = _om.get_registry()
        started = self.clock.now()

        def _finish(outcome: str) -> None:
            if registry.enabled:
                registry.counter("network_setups_total",
                                 outcome=outcome).inc()
                registry.histogram(
                    "network_setup_time", buckets=_om.SIGNALING_BUCKETS,
                ).observe(self.clock.now() - started)

        hops = request.route.hops()
        bounds = self._advertised_bounds(request.route, request.priority)
        achievable: Number = 0
        for bound in bounds:
            achievable += bound
        if request.delay_bound is not None and achievable > request.delay_bound:
            if trace is not None:
                trace.record(RejectMessage(
                    leg_id, request.route.source,
                    f"achievable bound {achievable} exceeds requested "
                    f"{request.delay_bound}",
                ))
            _finish("unsatisfiable")
            raise QosUnsatisfiable(request.delay_bound, achievable)

        channel = self._channel(trace)
        committed: List[HopCommitment] = []
        envelope = request.traffic.worst_case_stream()
        touched = 0
        self._in_flight.add(leg_id)
        try:
            with _ospans.span("admission.setup", connection=leg_id,
                              hops=len(hops)) as setup_span:
                try:
                    # Phase 1: the SETUP message walks downstream,
                    # reserving.
                    for index, hop in enumerate(hops):
                        cdv = self.cdv_policy.accumulate(bounds[:index])
                        stream = envelope.delayed(cdv)

                        def process_reserve(hop=hop, cdv=cdv, stream=stream):
                            if trace is not None:
                                trace.record(SetupMessage(
                                    leg_id, hop.switch,
                                    request.traffic.pcr, request.traffic.scr,
                                    request.traffic.mbs, request.delay_bound,
                                    cdv,
                                ))
                            return self.switch(hop.switch).reserve(
                                leg_id, hop.in_link, hop.out_link,
                                request.priority, stream,
                            )

                        touched = index + 1
                        with _ospans.span("admission.hop",
                                          connection=leg_id, hop=index,
                                          switch=hop.switch,
                                          out_link=hop.out_link):
                            result = yield from channel.deliver_steps(
                                "reserve", index, hop.switch, hop.in_link,
                                leg_id, process_reserve,
                            )
                        if on_reserved is not None:
                            on_reserved(hop.switch, leg_id)
                        committed.append(HopCommitment(
                            switch=hop.switch,
                            in_link=hop.in_link,
                            out_link=hop.out_link,
                            cdv_in=cdv,
                            advertised_bound=bounds[index],
                            computed_bound=result.computed_bounds[
                                request.priority],
                        ))
                    # Phase 2: the COMMIT wave travels back upstream.
                    for index, hop in reversed(list(enumerate(hops))):

                        def process_commit(hop=hop):
                            if trace is not None:
                                trace.record(CommitMessage(leg_id,
                                                           hop.switch))
                            self.switch(hop.switch).commit(leg_id)

                        yield from channel.deliver_steps(
                            "commit", index, hop.switch, hop.in_link,
                            leg_id, process_commit,
                        )
                except AdmissionError as failure:
                    outcome, at_node = _failure_outcome(
                        failure, request.route.source)
                    setup_span.tag(outcome=outcome)
                    yield from self._rollback_steps(
                        leg_id, "abort",
                        reversed(list(enumerate(hops[:touched]))),
                        channel, trace)
                    if trace is not None:
                        trace.record(RejectMessage(
                            leg_id, at_node, str(failure),
                        ))
                    _finish(outcome)
                    raise
                setup_span.tag(outcome="accepted")
        finally:
            self._in_flight.discard(leg_id)

        established = EstablishedConnection(
            request, tuple(committed),
            generation=generation, switch_id=switch_id,
        )
        self._established[request.name] = established
        if trace is not None:
            trace.record(ConnectedMessage(
                leg_id, request.route.destination,
                established.e2e_bound,
            ))
        _finish("accepted")
        return established

    def _rollback_steps(self, leg_id: str, phase: str,
                        hops: Iterable[Tuple[int, Any]],
                        channel: SignalingChannel,
                        trace: Optional[SignalingTrace]):
        """Unwind one booking at the given hops (step generator).

        ``phase`` is ``"abort"`` (a failed walk's reservations, hops
        passed in reverse) or ``"release"`` (an established generation,
        hops in route order); ``hops`` yields ``(index, hop)`` pairs in
        delivery order.  :meth:`SwitchCAC.rollback` is idempotent, so
        hops that never actually reserved (the message was lost before
        arriving) or that receive the message twice are no-ops.  A
        crashed switch is skipped: its journal recovery discards
        uncommitted reservations, and :meth:`recover_switch` reconciles
        anything it had committed.  If the message itself cannot be
        delivered -- timeout or an open breaker -- the switch discards
        the booking on its own once its holder falls silent
        (reservation expiry), modelled here as a direct rollback.
        """
        message = AbortMessage if phase == "abort" else ReleaseMessage
        for index, hop in hops:
            cac = self._switches[hop.switch]
            if cac.crashed:
                continue

            def process(hop=hop, cac=cac):
                if trace is not None:
                    trace.record(message(leg_id, hop.switch))
                cac.rollback(leg_id)

            try:
                yield from channel.deliver_steps(
                    phase, index, hop.switch, hop.in_link, leg_id, process,
                )
            except (SignalingTimeout, LinkDown):
                try:
                    cac.rollback(leg_id)
                except SwitchUnavailable:
                    pass

    def would_admit(self, request: ConnectionRequest) -> bool:
        """Non-mutating admission query.

        Hop checks are mutually independent (every hop reconstructs the
        arrival stream from the source contract), so the answer equals
        what :meth:`setup` would decide -- without touching any state.
        """
        try:
            bounds = self._advertised_bounds(request.route, request.priority)
        except AdmissionError:
            return False
        achievable: Number = 0
        for bound in bounds:
            achievable += bound
        if request.delay_bound is not None and achievable > request.delay_bound:
            return False
        envelope = request.traffic.worst_case_stream()
        for index, hop in enumerate(request.route.hops()):
            cdv = self.cdv_policy.accumulate(bounds[:index])
            try:
                result = self.switch(hop.switch).check(
                    hop.in_link, hop.out_link, request.priority,
                    envelope.delayed(cdv),
                )
            except AdmissionError:
                # An unserved priority or a crashed switch on the route
                # means setup could not succeed either.
                return False
            if not result.admitted:
                return False
        return True

    def teardown(self, name: str,
                 trace: Optional[SignalingTrace] = None) -> None:
        """Release an established connection at every hop.

        An unknown (or already-torn-down) connection raises
        :class:`AdmissionError` before any switch is touched.  Per-hop
        RELEASE messages travel over the signaling channel and apply the
        idempotent :meth:`SwitchCAC.rollback`, so duplicated deliveries
        cannot corrupt the aggregates; a crashed hop is skipped (its
        reconciliation happens in :meth:`recover_switch`) and an
        undeliverable RELEASE falls back to reservation expiry, exactly
        like a failed setup's unwind.
        """
        drain_steps(self.teardown_steps(name, trace), self.clock)

    def teardown_steps(self, name: str,
                       trace: Optional[SignalingTrace] = None):
        """:meth:`teardown` as a step generator (for the engine mode)."""
        try:
            established = self._established.pop(name)
        except KeyError:
            raise AdmissionError(f"no established connection {name!r}") from None
        yield from self._release_steps(established, trace)
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("network_teardowns_total").inc()

    def _release_steps(self, established: EstablishedConnection,
                       trace: Optional[SignalingTrace]):
        """Release one generation's booking at every hop, best-effort.

        Works off the connection's :attr:`leg_name` so it releases
        exactly the generation it is handed -- :meth:`teardown` passes
        the current one, :meth:`migrate` the superseded one.
        """
        return self._rollback_steps(
            established.leg_name, "release", enumerate(established.hops),
            self._channel(trace), trace)

    def recover_switch(self, name: str) -> SwitchCAC:
        """Bring a crashed switch back and reconcile it with the network.

        The switch first replays its journal
        (:meth:`SwitchCAC.recover`), which restores its committed state
        bit-identically and discards in-flight reservations.  The
        central server then reconciles: a leg the switch committed for
        a connection the network unwound (e.g. the COMMIT reached this
        hop but a later fault aborted the walk) is released, so the
        recovered switch carries exactly the network's committed
        connections.
        """
        cac = self.switch(name)
        cac.recover()
        self._reconcile_switch(cac)
        return cac

    def _reconcile_switch(self, cac: SwitchCAC) -> None:
        """Release every leg the network no longer accounts for.

        The active set is keyed by :attr:`EstablishedConnection.leg_name`
        (migrations book under versioned ids), plus the legs of any walk
        currently in flight -- a breaker closing mid-commit-wave must
        not reconcile away a booking that is about to register.
        """
        active = {c.leg_name for c in self._established.values()}
        active.update(self._in_flight)
        for connection_id in list(cac.legs):
            if connection_id not in active:
                cac.rollback(connection_id)

    # ------------------------------------------------------------------
    # Survivability: probing, breaker reconciliation, live migration
    # ------------------------------------------------------------------

    def _reconcile_breaker(self, breaker: CircuitBreaker) -> None:
        """The breaker-close hook: reconcile the switch *before* trust.

        Runs on every half-open -> closed transition, before the
        breaker actually closes.  A switch that crashed behind the open
        breaker is brought back through :meth:`recover_switch` (journal
        replay plus reconciliation); one that restarted on its own --
        detectable because its crash epoch moved past the breaker's
        last known epoch -- gets the same orphan-leg reconciliation, so
        bookings the network unwound or migrated away while the hop was
        dark are released before any new traffic books through it.
        """
        cac = self._switches.get(breaker.node)
        if cac is None:
            return  # terminal hop: no CAC state to reconcile
        if cac.crashed:
            self.recover_switch(breaker.node)
        else:
            self._reconcile_switch(cac)
        breaker.known_epoch = cac.epoch

    def probe(self, hops: Optional[Iterable[Tuple[str, str]]] = None,
              trace: Optional[SignalingTrace] = None) -> Dict[str, bool]:
        """Actively probe signaling hops; returns ``{target: alive}``.

        ``hops`` is an iterable of ``(switch, in_link)`` pairs;
        ``None`` probes every link entering a switch.  Each probe is a
        single non-retried delivery of a PING the switch answers with
        its crash epoch (:meth:`SwitchCAC.ping`), so a probe through an
        open breaker fast-fails, a probe after ``reset_timeout`` *is*
        the breaker's half-open trial (closing it on success, after
        reconciliation), and a lost probe counts as failure evidence
        for both the breaker and the health monitor.  Targets are keyed
        ``link@switch`` like the breaker metrics.
        """
        if hops is None:
            hops = [(link.dst, link.name) for link in self.network.links()
                    if link.dst in self._switches]
        channel = self._channel(trace, retry_policy=RetryPolicy(
            max_attempts=1,
        ))
        results: Dict[str, bool] = {}
        for node, link in hops:
            cac = self.switch(node)
            epoch: Optional[int] = None

            def process_ping(cac=cac):
                return cac.ping()

            try:
                epoch = channel.deliver(
                    "probe", 0, node, link, f"probe:{link}@{node}",
                    process_ping,
                )
            except (SignalingTimeout, LinkDown):
                ok = False
            else:
                ok = True
                self.breakers.breaker(node, link).known_epoch = epoch
            if trace is not None:
                trace.record(ProbeMessage(node, link, ok, epoch))
            results[f"{link}@{node}"] = ok
        return results

    def _count_migration(self, outcome: str) -> None:
        registry = _om.get_registry()
        if registry.enabled:
            registry.counter("cac_migrations_total", outcome=outcome).inc()

    def migrate(self, name: str, avoid: AbstractSet[str],
                trace: Optional[SignalingTrace] = None,
                ) -> EstablishedConnection:
        """Move one established connection off the avoided elements.

        Make-before-break: the detour (shortest path ``avoid``-ing the
        given links/switches) is fully reserved and committed under a
        fresh generation id *while the old route stays booked*; only
        then does the cutover swap the established record and release
        the old generation's legs.  Any failure -- no detour exists, or
        the detour's walk is refused or times out -- raises
        :class:`~repro.exceptions.MigrationError` with the old route
        untouched (the failed walk unwinds its own reservations), so
        the migration is atomic.  Every step is journaled in
        :attr:`migration_journal`.
        """
        return drain_steps(self.migrate_steps(name, avoid, trace),
                           self.clock)

    def migrate_steps(self, name: str, avoid: AbstractSet[str],
                      trace: Optional[SignalingTrace] = None):
        """:meth:`migrate` as a step generator (for the engine mode)."""
        established = self._established.get(name)
        if established is None:
            raise AdmissionError(f"no established connection {name!r}")
        route = established.request.route
        generation = established.generation + 1
        with _ospans.span("admission.migrate", connection=name,
                          generation=generation) as migrate_span:
            try:
                detour = shortest_path(
                    self.network, route.source, route.destination,
                    avoid=frozenset(avoid),
                )
            except RoutingError as exc:
                migrate_span.tag(outcome="no-route")
                self._count_migration("failed")
                self.migration_journal.append(
                    "failed", name, generation, detail=str(exc))
                raise MigrationError(name, str(exc)) from exc
            switch_id = f"{name}@g{generation}"
            self.migration_journal.append(
                "start", name, generation,
                detail=" ".join(detour.link_names))
            new_request = replace(established.request, route=detour)
            try:
                connection = yield from self._establish_steps(
                    new_request, trace,
                    switch_id=switch_id, generation=generation,
                )
            except AdmissionError as exc:
                migrate_span.tag(outcome="refused")
                self._count_migration("failed")
                self.migration_journal.append(
                    "failed", name, generation, detail=str(exc))
                raise MigrationError(name, str(exc)) from exc
            # _establish_steps registered the new generation under the
            # plain name: that swap was the cutover.
            self.migration_journal.append("cutover", name, generation)
            yield from self._release_steps(established, trace)
            self.migration_journal.append("released", name, generation)
            self._count_migration(MIGRATED)
            self.migration_journal.append("done", name, generation)
            migrate_span.tag(outcome="migrated")
        return connection

    def handle_link_failure(self, link: str,
                            policy: str = "migrate-or-drop",
                            trace: Optional[SignalingTrace] = None,
                            ) -> MigrationReport:
        """Migrate every connection routed over a failed link.

        ``policy`` decides the fate of victims no detour can carry:
        ``"migrate-or-drop"`` tears them down (capacity released, the
        guarantee honestly revoked), ``"migrate-or-keep"`` leaves them
        booked on the dead route awaiting repair.  Victims are handled
        in name order for determinism.
        """
        return drain_steps(
            self.handle_link_failure_steps(link, policy, trace), self.clock)

    def handle_link_failure_steps(self, link: str,
                                  policy: str = "migrate-or-drop",
                                  trace: Optional[SignalingTrace] = None):
        """:meth:`handle_link_failure` as a step generator."""
        self.network.link(link)
        victims = [
            connection
            for _name, connection in sorted(self._established.items())
            if any(hop.in_link == link or hop.out_link == link
                   for hop in connection.hops)
        ]
        return (yield from self._handle_failure_steps(
            link, "link", frozenset((link,)), victims, policy, trace))

    def handle_switch_failure(self, switch: str,
                              policy: str = "migrate-or-drop",
                              trace: Optional[SignalingTrace] = None,
                              ) -> MigrationReport:
        """Migrate every connection routed through a failed switch."""
        return drain_steps(
            self.handle_switch_failure_steps(switch, policy, trace),
            self.clock)

    def handle_switch_failure_steps(self, switch: str,
                                    policy: str = "migrate-or-drop",
                                    trace: Optional[SignalingTrace] = None):
        """:meth:`handle_switch_failure` as a step generator."""
        self.switch(switch)
        victims = [
            connection
            for _name, connection in sorted(self._established.items())
            if any(hop.switch == switch for hop in connection.hops)
        ]
        return (yield from self._handle_failure_steps(
            switch, "switch", frozenset((switch,)), victims, policy, trace))

    def _handle_failure_steps(self, trigger: str, kind: str,
                              avoid: AbstractSet[str],
                              victims: Sequence[EstablishedConnection],
                              policy: str,
                              trace: Optional[SignalingTrace],
                              ):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown migration policy {policy!r}; expected one of "
                f"{POLICIES}"
            )
        migrated: List[str] = []
        dropped: List[str] = []
        kept: List[str] = []
        failures: Dict[str, str] = {}
        with _ospans.span("admission.handle_failure", trigger=trigger,
                          kind=kind, policy=policy,
                          victims=len(victims)) as failure_span:
            for victim in victims:
                try:
                    yield from self.migrate_steps(victim.name, avoid,
                                                  trace=trace)
                except MigrationError as exc:
                    failures[victim.name] = str(exc.reason)
                    if policy == "migrate-or-drop":
                        yield from self.teardown_steps(victim.name,
                                                       trace=trace)
                        self._count_migration(DROPPED)
                        self.migration_journal.append(
                            "dropped", victim.name,
                            victim.generation + 1, detail=trigger)
                        dropped.append(victim.name)
                    else:
                        self._count_migration(KEPT)
                        self.migration_journal.append(
                            "kept", victim.name,
                            victim.generation + 1, detail=trigger)
                        kept.append(victim.name)
                else:
                    migrated.append(victim.name)
            failure_span.tag(migrated=len(migrated), dropped=len(dropped),
                             kept=len(kept))
        return MigrationReport(
            trigger=trigger, kind=kind, policy=policy,
            migrated=tuple(migrated), dropped=tuple(dropped),
            kept=tuple(kept), failures=failures,
            detection_latency=self.health.detection_latency(trigger),
        )

    def setup_all(self, requests: Iterable[ConnectionRequest]) -> List[EstablishedConnection]:
        """Establish several connections; unwind all of them on failure.

        All-or-nothing semantics: the workload generators use this so a
        partially admitted connection set never leaks into a sweep.
        """
        done: List[EstablishedConnection] = []
        try:
            for request in requests:
                done.append(self.setup(request))
        except AdmissionError:
            for established in reversed(done):
                self.teardown(established.name)
            raise
        return done

    def teardown_all(self) -> None:
        """Release every established connection."""
        for name in list(self._established):
            self.teardown(name)

    # ------------------------------------------------------------------
    # Batched admission
    # ------------------------------------------------------------------

    def setup_many(self, requests: Iterable[ConnectionRequest],
                   trace: Optional[SignalingTrace] = None,
                   ) -> BatchSetupResult:
        """Establish a batch of connections with shared admission checks.

        Admits **exactly the same set** as applying :meth:`setup` to the
        requests one by one in order (catching per-request
        :class:`AdmissionError`), with identical committed legs,
        ``Sia`` aggregates and journals on every switch.  Derived float
        caches, and the port bounds computed from them, may differ from
        the sequential walk's in the last few ulps (about 1e-14
        relative): the batched apply rebuilds them from scratch where
        the sequential walk patches them one delta at a time.  The
        difference is cost: when the channel is lossless (no fault
        injector), the candidate legs are grouped by switch and each
        switch runs one :meth:`~repro.core.switch_cac.SwitchCAC.check_batch`
        group check, sharing the aggregate substitution and
        higher-priority interference sums across every request that
        crosses the port.  By monotonicity of the delay bound a passing
        group check proves every sequential prefix admissible, so the
        apply phase -- request-major reserve -> commit, preserving the
        per-switch journal order of the sequential walk -- skips the
        per-leg checks entirely.

        Exactness is never traded away: a failing group check (some
        request would be refused, but the group verdict cannot say
        which) and any configured fault injector both fall back to the
        sequential one-by-one pipeline.
        """
        requests = list(requests)
        if self.fault_injector is not None:
            # Fault semantics (drops, crashes, retries, clock advances)
            # are defined per message; only the sequential walk
            # reproduces them exactly.
            return self._setup_sequential(requests, trace)

        # Pre-flight: weed out the requests a sequential setup would
        # refuse before reserving anything.  Pure -- no traces, no
        # metrics -- so a later fallback cannot double-record.
        plans: List[Tuple[ConnectionRequest, List[Number], List[Number],
                          List[BitStream]]] = []
        preflight: Dict[str, AdmissionError] = {}
        seen = set(self._established)
        for request in requests:
            if request.name in seen:
                preflight[request.name] = AdmissionError(
                    f"connection {request.name!r} is already established"
                )
                continue
            try:
                bounds = self._advertised_bounds(request.route,
                                                 request.priority)
            except AdmissionError as exc:
                preflight[request.name] = exc
                continue
            achievable: Number = 0
            for bound in bounds:
                achievable += bound
            if request.delay_bound is not None and \
                    achievable > request.delay_bound:
                preflight[request.name] = QosUnsatisfiable(
                    request.delay_bound, achievable)
                continue
            seen.add(request.name)
            envelope = request.traffic.worst_case_stream()
            cdvs = [self.cdv_policy.accumulate(bounds[:index])
                    for index in range(len(bounds))]
            plans.append((request, bounds, cdvs,
                          [envelope.delayed(cdv) for cdv in cdvs]))

        # Group the candidate legs by switch (first-touch order) and run
        # one shared check per switch.  Pure: nothing reserved yet.
        legs_by_switch: Dict[str, List[Leg]] = {}
        for request, _bounds, _cdvs, streams in plans:
            for index, hop in enumerate(request.route.hops()):
                legs_by_switch.setdefault(hop.switch, []).append(Leg(
                    request.name, hop.in_link, hop.out_link,
                    request.priority, streams[index],
                ))
        group: Dict[str, BatchCheckResult] = {}
        all_admitted = True
        with _ospans.span("admission.setup_many", requests=len(requests),
                          candidates=len(plans)) as batch_span:
            for switch_name, legs in legs_by_switch.items():
                try:
                    verdict = self.switch(switch_name).check_batch(legs)
                except AdmissionError:
                    # e.g. a crashed switch on some route: per-request
                    # verdicts need the sequential walk.
                    all_admitted = False
                    break
                group[switch_name] = verdict
                if trace is not None:
                    trace.record(BatchSetupMessage(
                        switch_name,
                        tuple(leg.connection_id for leg in legs),
                        verdict.admitted,
                    ))
                if not verdict.admitted:
                    all_admitted = False
            if not all_admitted:
                batch_span.tag(outcome="fallback")
                return self._setup_sequential(requests, trace)
            batch_span.tag(outcome="batched")

            # Commit path.  Emit the traces/metrics the sequential walk
            # would have produced for the pre-flight refusals...
            registry = _om.get_registry()
            started = self.clock.now()
            for request in requests:
                failure = preflight.get(request.name)
                if isinstance(failure, QosUnsatisfiable):
                    if trace is not None:
                        trace.record(RejectMessage(
                            request.name, request.route.source,
                            f"achievable bound {failure.achievable} exceeds "
                            f"requested {failure.requested}",
                        ))
                    self._record_setup(registry, "unsatisfiable", started)

            # ...then apply the admitted candidates request-major
            # (reserve every hop downstream, commit back upstream), so
            # each switch's journal is op-for-op what the sequential
            # walk writes and crash recovery stays bit-identical.
            established: List[EstablishedConnection] = []
            for request, bounds, cdvs, streams in plans:
                hops = request.route.hops()
                committed: List[HopCommitment] = []
                for index, hop in enumerate(hops):
                    if trace is not None:
                        trace.record(SetupMessage(
                            request.name, hop.switch,
                            request.traffic.pcr, request.traffic.scr,
                            request.traffic.mbs, request.delay_bound,
                            cdvs[index],
                        ))
                    result = self.switch(hop.switch).reserve_checked(
                        Leg(request.name, hop.in_link, hop.out_link,
                            request.priority, streams[index]),
                        group[hop.switch].results[request.name],
                    )
                    committed.append(HopCommitment(
                        switch=hop.switch,
                        in_link=hop.in_link,
                        out_link=hop.out_link,
                        cdv_in=cdvs[index],
                        advertised_bound=bounds[index],
                        computed_bound=result.computed_bounds.get(
                            request.priority, 0),
                    ))
                for index, hop in reversed(list(enumerate(hops))):
                    if trace is not None:
                        trace.record(CommitMessage(request.name, hop.switch))
                    self.switch(hop.switch).commit(request.name)
                connection = EstablishedConnection(request, tuple(committed))
                self._established[request.name] = connection
                established.append(connection)
                if trace is not None:
                    trace.record(ConnectedMessage(
                        request.name, request.route.destination,
                        connection.e2e_bound,
                    ))
                self._record_setup(registry, "accepted", started)
        return BatchSetupResult(tuple(established), preflight, batched=True)

    def _record_setup(self, registry, outcome: str, started: float) -> None:
        """One ``network_setups_total`` tick plus the setup-time sample."""
        if registry.enabled:
            registry.counter("network_setups_total", outcome=outcome).inc()
            registry.histogram(
                "network_setup_time", buckets=_om.SIGNALING_BUCKETS,
            ).observe(self.clock.now() - started)

    def _setup_sequential(self, requests: Sequence[ConnectionRequest],
                          trace: Optional[SignalingTrace],
                          ) -> BatchSetupResult:
        """The exact reference pipeline: one :meth:`setup` per request."""
        established: List[EstablishedConnection] = []
        failures: Dict[str, AdmissionError] = {}
        for request in requests:
            try:
                established.append(self.setup(request, trace))
            except AdmissionError as exc:
                failures[request.name] = exc
        return BatchSetupResult(tuple(established), failures, batched=False)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def computed_e2e_bound(self, route: Route, priority: int) -> Number:
        """Worst-case end-to-end bound along a route *as currently loaded*.

        The sum over the route's hops of each port's computed bound for
        the priority class -- what Figure 10 plots as a function of the
        admitted load.  Advertised bounds cap each term, so this never
        exceeds the fixed end-to-end guarantee.
        """
        total: Number = 0
        for hop in route.hops():
            total += self.switch(hop.switch).computed_bound(
                hop.out_link, priority,
            )
        return total

    def port_report(self) -> Dict[Tuple[str, str, int], Dict[str, Number]]:
        """Per-(switch, link, priority) computed bound, buffer need, load."""
        report: Dict[Tuple[str, str, int], Dict[str, Number]] = {}
        for name, cac in self._switches.items():
            for out_link in cac.out_links():
                for priority in cac.priorities(out_link):
                    report[(name, out_link, priority)] = {
                        "computed_bound": cac.computed_bound(out_link, priority),
                        "buffer_cells": cac.buffer_requirement(out_link, priority),
                        "advertised": cac.advertised_bound(out_link, priority),
                        "utilization": cac.utilization(out_link),
                    }
        return report
