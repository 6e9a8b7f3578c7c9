"""Per-switch connection admission control (Section 4.3).

A switch keeps, for every pair of incoming link ``i`` and outgoing link
``j`` and every priority level ``p``, the aggregated worst-case arrival
stream of the connections routed ``i -> j`` at priority ``p``
(``Sia(i,j,p)`` in the paper).  From those it derives, on demand:

* ``Sif(i,j,p)   = filter(Sia(i,j,p))`` -- the aggregate as smoothed by
  the incoming link (a link of capacity 1 cannot deliver faster than 1);
* ``Sia(i,j)(p)`` -- the aggregate over all priorities *higher* than
  ``p`` for the pair, and its filtered form ``Sif(i,j)(p)``;
* ``Soa(j,p)     = sum_i Sif(i,j,p)`` -- the output-port arrival stream;
* ``Soa(j)(p)    = sum_i Sif(i,j)(p)`` and its filtered form
  ``Sof(j)(p)`` -- the higher-priority interference at the output port.

Admitting a connection with arrival stream ``S`` on ``(i, j, p)``
follows Steps 1-6 of the paper: rebuild the affected aggregates with
``S`` included, recompute the worst-case delay bound of priority ``p``
*and of every lower real-time priority* at output ``j`` (higher
priorities cannot be affected), and accept only if every recomputed
bound stays within the bound the switch advertises for that priority.

Priority convention: **smaller number = higher priority** (priority 0 is
served first), matching the RTnet configuration where the cyclic-traffic
queue is the single highest-priority queue.

The switch advertises a *fixed* bound ``D(j, p)`` per output link and
priority -- in RTnet the size of the priority-``p`` FIFO in cells --
independent of current load (Section 4.1), which is what lets the
distributed setup procedure accumulate CDV without iterating.

Layering (see ``docs/architecture.md``): this class owns the switch's
legs, journal and checks -- Steps 1-6, the two-phase transitions,
recovery, metrics -- plus the advertised bounds and the in-link rate
ledger.  The per-port arithmetic lives one layer down: every
``(out_link, priority)`` port is a pure
:class:`~repro.core.port_state.PortState` holding its aggregates,
incremental-delta caches and memoized
:class:`~repro.core.delay_bound.ServiceCurve`.  Every leg transition,
live or replayed, is one journal entry applied by :meth:`SwitchCAC._apply`.

Transactional setup (see ``docs/robustness.md``): the two-phase network
walk first *reserves* a leg (:meth:`reserve` -- resources held, not yet
confirmed), then *commits* it (:meth:`commit`); :meth:`rollback` is the
idempotent unwind primitive that discards a reservation or releases a
commitment, and shrugs at connections it has never heard of.  Every
transition is appended to an
:class:`~repro.robustness.journal.AdmissionJournal` -- the switch's
stable storage -- so that :meth:`crash` (volatile caches lost) followed
by :meth:`recover` (op-for-op journal replay, in-flight reservations
discarded) restores a state bit-identical to the pre-crash committed
state.

Batched admission (see ``docs/architecture.md``): :meth:`check_batch`
evaluates a whole group of candidate legs in one pass, sharing the
aggregate recomputation and higher-priority interference sums across
the group.  The group check is *conservative*: it computes each port's
bounds with **every** candidate admitted at once, so by monotonicity of
the delay bound in the arrival and interference streams, a passing
group check proves that admitting the candidates one by one -- in any
order, any subset -- would also pass.  :meth:`reserve_checked` then
applies a pre-approved leg without re-running the per-leg check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Dict, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from ..exceptions import AdmissionError, SwitchRejection, SwitchUnavailable
from ..obs import clock as _oclock
from ..obs import metrics as _om
from ..obs import spans as _ospans
from ..robustness.journal import AdmissionJournal, JournalEntry
from .bitstream import BitStream, Number, ZERO_STREAM, aggregate
from .delay_bound import (backlog_bound_with_higher, delay_bound,
                          latency_rate_bound)
from .port_state import PortState

__all__ = ["SwitchCAC", "Leg", "CheckResult", "BatchCheckResult",
           "PriorityBoundViolation"]

#: Derived-aggregate caches whose hit/miss behaviour is observable.
_CACHES = ("sif", "higher", "sif_higher", "higher_sum", "soa", "sof",
           "service")

#: Screen outcomes counted under ``cac_screen_total``.
_SCREEN_OUTCOMES = ("accept", "reject", "exact")

#: Slack the headroom screen demands before trusting the ledger: the
#: sufficient-accept bound must clear the advertised bound by at least
#: this relative margin, and the necessary-reject rate ceiling must be
#: exceeded by at least this absolute margin.  The guard dominates any
#: float drift the +/- ledger patching can accumulate (the same 1e-9
#: scale :meth:`SwitchCAC.verify_consistency` tolerates), so drift can
#: only push a check toward the exact fallthrough -- never flip a
#: decision.
_SCREEN_GUARD = 1e-9


class _SwitchMetrics:
    """Pre-bound metric handles of one switch.

    A labelled registry lookup per cache access would dominate the
    incremental fast path, so the handles are resolved once and cached
    on the switch; ``generation`` records which global registry they
    were bound under, and :meth:`SwitchCAC._rebind` re-binds when
    :data:`repro.obs.metrics._generation` moves (i.e. after every
    ``set_registry``).
    """

    __slots__ = ("generation", "enabled", "checks", "check_rejections",
                 "check_seconds", "admits", "reserves", "commits",
                 "rollbacks", "releases", "expiries", "incremental",
                 "recoveries", "recoveries_verified", "replayed",
                 "batch_checks", "batch_legs", "cache_hits", "cache_misses",
                 "screen")

    def __init__(self, registry, switch: str):
        self.generation = _om._generation
        self.enabled = registry.enabled
        self.checks = registry.counter("cac_checks_total", switch=switch)
        self.check_rejections = registry.counter(
            "cac_check_rejections_total", switch=switch)
        self.check_seconds = registry.histogram(
            "cac_check_seconds", switch=switch)
        self.admits = registry.counter("cac_admits_total", switch=switch)
        self.reserves = registry.counter("cac_reserves_total", switch=switch)
        self.commits = registry.counter("cac_commits_total", switch=switch)
        self.rollbacks = registry.counter("cac_rollbacks_total",
                                          switch=switch)
        self.releases = registry.counter("cac_releases_total", switch=switch)
        self.expiries = registry.counter("cac_reservation_expiries_total",
                                         switch=switch)
        self.incremental = registry.counter(
            "cac_incremental_updates_total", switch=switch)
        self.recoveries = registry.counter("cac_recoveries_total",
                                           switch=switch)
        self.recoveries_verified = registry.counter(
            "cac_recoveries_verified_total", switch=switch)
        self.replayed = registry.gauge("cac_recovery_replayed_entries",
                                       switch=switch)
        self.batch_checks = registry.counter("cac_batch_checks_total",
                                             switch=switch)
        self.batch_legs = registry.counter("cac_batch_legs_total",
                                           switch=switch)
        self.cache_hits = {
            cache: registry.counter("cac_cache_hits_total", switch=switch,
                                    cache=cache)
            for cache in _CACHES
        }
        self.cache_misses = {
            cache: registry.counter("cac_cache_misses_total", switch=switch,
                                    cache=cache)
            for cache in _CACHES
        }
        self.screen = {
            outcome: registry.counter("cac_screen_total", switch=switch,
                                      outcome=outcome)
            for outcome in _SCREEN_OUTCOMES
        }


@dataclass(frozen=True, slots=True)
class Leg:
    """One connection's traversal of one switch.

    Attributes
    ----------
    connection_id:
        Caller-chosen identifier, unique per switch.
    in_link / out_link:
        Names of the links the connection enters and leaves by.
    priority:
        Static priority level (0 = highest).
    stream:
        The connection's worst-case arrival stream *at this switch*
        (i.e. the source envelope of Algorithm 2.1 already passed
        through :meth:`BitStream.delayed` with the CDV accumulated over
        upstream switches).
    """

    connection_id: str
    in_link: str
    out_link: str
    priority: int
    stream: BitStream


@dataclass(frozen=True, slots=True)
class PriorityBoundViolation:
    """One failed delay-bound check inside a :class:`CheckResult`."""

    priority: int
    computed_bound: Number
    advertised_bound: Number


@dataclass(frozen=True, slots=True)
class CheckResult:
    """Outcome of a CAC check at one switch.

    ``computed_bounds`` maps each checked priority at the output link to
    the worst-case delay bound the port would have *with the new
    connection admitted*; ``violations`` lists the priorities whose
    bound would exceed the advertised guarantee.  The connection passes
    iff ``violations`` is empty.
    """

    switch: str
    out_link: str
    computed_bounds: Mapping[int, Number]
    violations: Tuple[PriorityBoundViolation, ...]

    @property
    def admitted(self) -> bool:
        """True when every affected priority keeps its guarantee."""
        return not self.violations


@dataclass(frozen=True, slots=True)
class BatchCheckResult:
    """Outcome of one :meth:`SwitchCAC.check_batch` group check.

    ``computed_bounds`` maps each checked ``(out_link, priority)`` port
    to its bound *with every candidate in the batch admitted at once*;
    ``violations`` maps out links to the bound failures there.  By
    monotonicity, ``admitted`` implies every candidate would also be
    admitted individually, in any order; a failing group check says
    nothing per-candidate -- callers fall back to sequential checks.
    ``results`` holds one conservative :class:`CheckResult` per
    candidate connection id (the group bounds of its output link).
    """

    switch: str
    computed_bounds: Mapping[Tuple[str, int], Number]
    violations: Mapping[str, Tuple[PriorityBoundViolation, ...]]
    results: Mapping[str, CheckResult]

    @property
    def admitted(self) -> bool:
        """True when every port keeps its guarantee with the whole batch."""
        return not any(self.violations.values())


class SwitchCAC:
    """CAC bookkeeping and admission checks for a single switch.

    Parameters
    ----------
    name:
        Identifier used in error messages and results.
    filter_per_input:
        When True (the default, and the paper's scheme) the per-input
        aggregates are filtered by the incoming link before being summed
        at the output port, which models the smoothing a real link
        performs and tightens the bounds.  Setting it False reproduces
        the coarser "no link filtering" analysis for the ablation bench.
    fast_path:
        Whether :meth:`check`/:meth:`check_batch` consult the headroom
        ledger screen before falling through to the exact
        :func:`~repro.core.delay_bound.delay_bound` evaluation.  The
        screen is decision-identical to the exact path (both of its
        bounds are provably conservative; see ``docs/performance.md``).
        ``False`` is the exact reference path the identity harnesses
        compare against.

    Examples
    --------
    >>> from repro.core.traffic import cbr
    >>> switch = SwitchCAC("sw0")
    >>> switch.configure_link("out", {0: 32})
    >>> stream = cbr(0.25).worst_case_stream()
    >>> switch.admit("vc1", "in-a", "out", 0, stream).admitted
    True
    >>> switch.computed_bound("out", 0) <= 32
    True
    """

    def __init__(self, name: str, filter_per_input: bool = True,
                 fast_path: bool = True):
        self.name = name
        self.filter_per_input = filter_per_input
        #: screened admission fast path (False: exact reference path).
        self.fast_path = fast_path
        #: out_link -> priority -> PortState, priorities ascending (the
        #: advertised bounds live on the ports).
        self._ports: Dict[str, Dict[int, PortState]] = {}
        #: committed and reserved-but-uncommitted Legs, insertion order
        #: (typed Any: journal entries carry their legs untyped).
        self._committed: Dict[str, Any] = {}
        self._pending: Dict[str, Any] = {}
        #: each reservation's replayable CheckResult.
        self._results: Dict[str, Any] = {}
        #: admitted long-run rate per incoming link (exact + fast path).
        self._in_link_rate: Dict[str, Number] = {}
        #: stable storage: survives crash(), drives recover().
        self._journal = AdmissionJournal()
        self._crashed = False
        #: bumped on every crash; lets the network tell "same switch"
        #: from "switch that died and came back" (see docs/robustness.md)
        self._epoch = 0
        #: pre-bound metric handles (re-bound when the registry changes)
        self._obs = _SwitchMetrics(_om.get_registry(), name)

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _rebind(self) -> _SwitchMetrics:
        """The switch's metric handles, re-bound after a registry swap.

        The single rebinding point shared by the check, reserve, commit,
        rollback and recovery paths -- call sites never compare
        generations themselves.
        """
        obs = self._obs
        if obs.generation != _om._generation:
            obs = self._obs = _SwitchMetrics(_om.get_registry(), self.name)
        return obs

    def _count_cache(self, hit: bool, cache: str) -> None:
        """Record one derived-aggregate cache hit or rebuild."""
        obs = self._rebind()
        if obs.enabled:
            (obs.cache_hits if hit else obs.cache_misses)[cache].inc()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def configure_link(self, out_link: str,
                       bounds: Mapping[int, Number]) -> None:
        """Declare an output link and its advertised per-priority bounds.

        ``bounds`` maps each real-time priority level served on the link
        to the fixed queueing delay bound (in cell times) the switch
        guarantees -- in RTnet, the FIFO queue size in cells.

        A reconfiguration may change bounds and add priorities, but it
        cannot drop a priority that still carries committed or pending
        legs (journaled ones count too, so a crashed switch can still
        recover): that raises :class:`AdmissionError` and leaves the
        switch untouched.
        """
        if not bounds:
            raise ValueError("an output link needs at least one priority")
        for priority, bound in bounds.items():
            if bound <= 0:
                raise ValueError(
                    f"advertised bound must be positive, got {bound} for "
                    f"priority {priority}"
                )
        existing = self._ports.get(out_link, {})
        dropped = set(existing).difference(bounds)
        if dropped:
            for legs in self._journal.replay():
                for leg in legs.values():
                    if leg.out_link == out_link and leg.priority in dropped:
                        raise AdmissionError(
                            f"cannot drop priority {leg.priority} from "
                            f"link {out_link!r} at switch {self.name!r}: "
                            f"connection {leg.connection_id!r} holds a "
                            f"leg there"
                        )
        ports: Dict[int, PortState] = {}
        added: List[PortState] = []
        for priority in sorted(bounds):
            port = existing.get(priority)
            if port is None:
                port = PortState(
                    out_link, priority, bounds[priority],
                    filter_per_input=self.filter_per_input,
                    higher_ports=self._higher_provider(out_link, priority),
                    on_cache=self._count_cache,
                )
                added.append(port)
            port.advertised_bound = bounds[priority]
            ports[priority] = port
        self._ports[out_link] = ports
        # A priority added under load starts with the headroom ledger of
        # the legs above it; its caches build lazily.
        for port in added:
            for legs in (self._committed, self._pending):
                for leg in legs.values():
                    if leg.out_link == out_link and \
                            leg.priority < port.priority:
                        port.apply_higher(leg.in_link, leg.stream, True,
                                          patch_caches=False)

    def _higher_provider(self, out_link: str, priority: int):
        """The same-link ports above ``priority``, as configured now."""
        def provider() -> List[PortState]:
            return [port for port in self._ports[out_link].values()
                    if port.priority < priority]
        return provider

    def _ports_below(self, out_link: str, priority: int) -> List[PortState]:
        """Same-link ports of strictly lower priority (larger number)."""
        return [port for port in self._ports[out_link].values()
                if port.priority > priority]

    def advertised_bound(self, out_link: str, priority: int) -> Number:
        """The fixed bound ``D(j, p)`` the switch guarantees."""
        return self.port(out_link, priority).advertised_bound

    def out_links(self) -> List[str]:
        """Names of the configured output links, sorted.

        Deterministic (sorted) so batch grouping, serialization and
        Prometheus exposition are reproducible across runs.
        """
        return sorted(self._ports)

    def priorities(self, out_link: str) -> List[int]:
        """Real-time priorities served on ``out_link``, highest first."""
        return list(self._ports[out_link])

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def legs(self) -> Mapping[str, Leg]:
        """The currently admitted (committed) legs, keyed by connection id."""
        return dict(self._committed)

    @property
    def pending(self) -> Mapping[str, Leg]:
        """Reserved-but-uncommitted legs of in-flight two-phase walks."""
        return dict(self._pending)

    @property
    def journal(self) -> AdmissionJournal:
        """The append-only admit/release journal (stable storage)."""
        return self._journal

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and :meth:`recover`."""
        return self._crashed

    @property
    def epoch(self) -> int:
        """Crash epoch: 0 at boot, +1 per :meth:`crash`.

        The epoch survives recovery (it is *not* reset), so a peer that
        cached the epoch before a crash can detect -- via :meth:`ping`
        -- that the switch it is talking to lost its volatile state in
        between, and reconcile before trusting it again.
        """
        return self._epoch

    def ping(self) -> int:
        """Liveness probe: the current epoch, or :class:`SwitchUnavailable`.

        The circuit breaker's half-open probe: cheap (no CAC state is
        touched), refuses while crashed, and returns the epoch stamp so
        the caller can tell whether the switch died and recovered since
        it last looked.
        """
        self._ensure_up()
        return self._epoch

    def _ensure_up(self) -> None:
        """Refuse CAC work while the volatile state is gone."""
        if self._crashed:
            raise SwitchUnavailable(self.name)

    def port(self, out_link: str, priority: int) -> PortState:
        """The :class:`PortState` of one configured port.

        Raises :class:`AdmissionError` for an unconfigured port.
        """
        ports = self._ports.get(out_link)
        if ports is None:
            raise AdmissionError(
                f"switch {self.name!r} has no output link {out_link!r}"
            )
        port = ports.get(priority)
        if port is None:
            raise AdmissionError(
                f"switch {self.name!r} does not serve priority {priority} "
                f"on link {out_link!r}"
            )
        return port

    def sia(self, in_link: str, out_link: str, priority: int) -> BitStream:
        """``Sia(i, j, p)``: the per-pair per-priority aggregate."""
        port = self._ports.get(out_link, {}).get(priority)
        return ZERO_STREAM if port is None else port.sia(in_link)

    def soa(self, out_link: str, priority: int,
            replace: Optional[Tuple[str, BitStream]] = None) -> BitStream:
        """``Soa(j, p)``: output-port arrival stream of priority ``p``.

        ``replace`` optionally substitutes the (already filtered)
        per-input aggregate of one incoming link -- how the admission
        check builds ``S'oa`` without mutating state.  With the cached
        aggregate this is one subtract-and-add delta, O(m), instead of
        a re-aggregation over every incoming link.
        """
        return self.port(out_link, priority).soa(replace=replace)

    def sof_higher(self, out_link: str, priority: int,
                   extra: Optional[Tuple[str, BitStream]] = None) -> BitStream:
        """``Sof(j)(p)``: filtered higher-priority output interference.

        ``extra`` optionally adds a candidate connection's stream to the
        higher-priority aggregate of one incoming link (used when
        checking the impact of a new higher-priority connection on an
        existing lower priority); like ``replace`` above, the candidate
        variant is an O(m) delta against the cached interference sum.
        """
        return self.port(out_link, priority).sof_higher(extra=extra)

    # ------------------------------------------------------------------
    # Incremental state transitions
    # ------------------------------------------------------------------

    def _apply(self, entry: JournalEntry,
               result: Optional[CheckResult] = None,
               patch_caches: bool = True) -> Leg:
        """Apply one journal entry to the switch state; returns its leg.

        The only place legs move and aggregates change.  Live
        transitions journal their entry first and apply it here;
        :meth:`recover` replays the journal through here, so a restart
        re-runs exactly the live arithmetic in the original order.
        ``result`` is a ``reserve``'s replayable :class:`CheckResult`.

        A ``commit`` only moves the leg.  Every other op is one
        admit/release delta: same-priority state -- ``Sia``, ``Sif`` and
        the ``Soa`` sum -- and the higher-priority interference of every
        lower priority are updated by a single ``+``/``-`` of the
        connection's stream (Algorithms 3.2/3.3); only the final output
        filter and the ServiceCurve of affected lower priorities are
        recomputed, and those lazily, on the next check that needs them.
        Lower-priority caches are patched first (their forced rebuilds
        must read pre-change aggregates), then the port's own state
        (:meth:`PortState.apply_same`), then the in-link ledger.

        ``patch_caches=False`` (the batched pipeline's bulk mode)
        invalidates the derived caches instead of patching them --
        right when a batch is about to touch the same port once per
        member, making a single lazy rebuild cheaper than the patches.
        The ground-truth ``Sia`` merge always runs per leg, in order.
        """
        op = entry.op
        connection_id = entry.connection_id
        if op == "commit":
            leg = self._committed[connection_id] = \
                self._pending.pop(connection_id)
            self._results.pop(connection_id, None)
            return leg
        add = op in ("reserve", "admit")
        if op == "reserve":
            leg = self._pending[connection_id] = entry.leg
            if result is not None:
                self._results[connection_id] = result
        elif op == "admit":
            leg = self._committed[connection_id] = entry.leg
        elif op == "abort":
            leg = self._pending.pop(connection_id)
            self._results.pop(connection_id, None)
        else:  # release
            leg = self._committed.pop(connection_id)
        obs = self._rebind()
        if obs.enabled:
            obs.incremental.inc()
        in_link, stream = leg.in_link, leg.stream
        for lower in self._ports_below(leg.out_link, leg.priority):
            lower.apply_higher(in_link, stream, add,
                               patch_caches=patch_caches)
        self._ports[leg.out_link][leg.priority].apply_same(
            in_link, stream, add, patch_caches=patch_caches)
        rate = stream.long_run_rate
        base = self._in_link_rate.get(in_link, 0)
        self._in_link_rate[in_link] = (base + rate) if add else (base - rate)
        return leg

    # ------------------------------------------------------------------
    # Admission (Steps 1-6)
    # ------------------------------------------------------------------

    def check(self, in_link: str, out_link: str, priority: int,
              stream: BitStream) -> CheckResult:
        """Steps 2-6: would admitting this connection keep all bounds?

        Does not mutate state.  The caller provides the connection's
        worst-case arrival stream at this switch (Step 1 -- the source
        envelope delayed by the upstream CDV -- belongs to the caller
        because only the route knows the accumulated CDV).
        """
        obs = self._rebind()
        if not obs.enabled and not _ospans._tracer.enabled:
            return self._check_impl(in_link, out_link, priority, stream)
        with _ospans.span("admission.check", switch=self.name,
                          out_link=out_link, priority=priority):
            start = _oclock.get_clock().now()
            result = self._check_impl(in_link, out_link, priority, stream)
            if obs.enabled:
                obs.checks.inc()
                obs.check_seconds.observe(_oclock.get_clock().now() - start)
                if not result.admitted:
                    obs.check_rejections.inc()
        return result

    def _check_impl(self, in_link: str, out_link: str, priority: int,
                    stream: BitStream) -> CheckResult:
        self._ensure_up()
        port = self.port(out_link, priority)

        computed: Dict[int, Number] = {}
        violations: List[PriorityBoundViolation] = []

        # Feasibility of the incoming link itself.  Filtering caps a
        # per-input aggregate at the link rate, which would otherwise
        # silently mask a physically impossible load (total sustained
        # rate beyond what the incoming link can ever deliver) as a
        # zero-delay stream.  The rate comes from the in-link ledger --
        # the same sums on the exact and screened paths.
        if self._in_link_rate.get(in_link, 0) + stream.long_run_rate > 1:
            violations.append(PriorityBoundViolation(
                priority, math.inf, port.advertised_bound,
            ))
            computed[priority] = math.inf
            return CheckResult(
                switch=self.name,
                out_link=out_link,
                computed_bounds=computed,
                violations=tuple(violations),
            )

        if self.fast_path:
            screened = self._screen(priority, stream, port)
            if screened is not None:
                self._note_screen("accept" if screened.admitted
                                  else "reject")
                return screened
            self._note_screen("exact")

        # Step 2-4: the new connection's own priority.
        new_sia = port.sia(in_link) + stream
        new_sif = port._filter(new_sia)
        new_soa = port.soa(replace=(in_link, new_sif))
        bound = delay_bound(new_soa, service=port.service())
        computed[priority] = bound
        if bound > port.advertised_bound:
            violations.append(PriorityBoundViolation(
                priority, bound, port.advertised_bound,
            ))

        # Steps 5-6: every lower real-time priority on the same port.
        for lower_port in self._ports_below(out_link, priority):
            soa_lower = lower_port.soa()
            if soa_lower.is_zero:
                continue  # no traffic to disturb
            interference = lower_port.sof_higher(extra=(in_link, stream))
            bound = delay_bound(soa_lower, interference)
            computed[lower_port.priority] = bound
            if bound > lower_port.advertised_bound:
                violations.append(PriorityBoundViolation(
                    lower_port.priority, bound, lower_port.advertised_bound,
                ))

        return CheckResult(
            switch=self.name,
            out_link=out_link,
            computed_bounds=computed,
            violations=tuple(violations),
        )

    def _note_screen(self, outcome: str) -> None:
        """Count one headroom-screen outcome (accept/reject/exact)."""
        obs = self._rebind()
        if obs.enabled:
            obs.screen[outcome].inc()

    def _screen(self, priority: int, stream: BitStream,
                port: PortState) -> Optional[CheckResult]:
        """Decide the check from the headroom ledger alone, if possible.

        Two one-sided tests over the per-port ``(sigma, rho)`` envelope
        sums (see ``docs/performance.md`` for the derivation and why
        each is conservative):

        * **necessary reject** -- if the ledger says the candidate's own
          priority would exceed the aggregate-rate ceiling by more than
          the guard, the exact path is guaranteed to compute an infinite
          bound for that priority, which is also the first violation it
          would report;
        * **sufficient accept** -- if the closed-form latency-rate bound
          (burst sums over leftover rate) clears the advertised bound of
          the candidate's port *and* of every non-idle lower port with
          margin, the exact bounds -- which the conservative ones
          dominate -- must pass too.

        Returns ``None`` when neither side is provable (the exact
        fallthrough).  Assumes the in-link feasibility check has
        already passed, which bounds every per-input rate sum by the
        link rate -- the fact that makes the rate ceiling exact.
        """
        rho = stream.long_run_rate
        sigma = stream.burst
        rate_same = port.ledger_rate + rho
        rate_higher = port.ledger_higher_rate

        # Necessary reject: the candidate's priority is unstable.  The
        # interference long-run rate is min(1, sum of higher rates)
        # after the output filter, hence the cap.
        capped_higher = rate_higher if rate_higher < 1 else 1
        if rate_same > _SCREEN_GUARD and \
                rate_same + capped_higher > 1 + _SCREEN_GUARD:
            return CheckResult(
                switch=self.name,
                out_link=port.out_link,
                computed_bounds={priority: math.inf},
                violations=(PriorityBoundViolation(
                    priority, math.inf, port.advertised_bound),),
            )

        # Sufficient accept, candidate port first.
        computed: Dict[int, Number] = {}
        bound = self._screen_port_bound(
            rate_same, port.ledger_burst + sigma,
            rate_higher, port.ledger_higher_burst,
            port.advertised_bound)
        if bound is None:
            return None
        computed[priority] = bound

        # ... then every lower port the exact path would re-check.
        for lower in self._ports_below(port.out_link, priority):
            if lower.is_idle():
                continue  # exact path skips it too (Soa is zero)
            bound = self._screen_port_bound(
                lower.ledger_rate, lower.ledger_burst,
                lower.ledger_higher_rate + rho,
                lower.ledger_higher_burst + sigma,
                lower.advertised_bound)
            if bound is None:
                return None
            computed[lower.priority] = bound

        return CheckResult(
            switch=self.name,
            out_link=port.out_link,
            computed_bounds=computed,
            violations=(),
        )

    @staticmethod
    def _screen_port_bound(rate: Number, burst: Number,
                           higher_rate: Number, higher_burst: Number,
                           advertised: Number) -> Optional[Number]:
        """One port's sufficient-accept test, or ``None`` if inconclusive.

        Requires a stability margin (so the latency-rate bound applies)
        and the conservative bound to clear the advertised bound by the
        guard; returns the conservative bound on success.
        """
        if rate + higher_rate > 1 - _SCREEN_GUARD:
            return None
        bound = latency_rate_bound(burst, higher_burst, higher_rate)
        if bound > advertised - _SCREEN_GUARD * (1 + advertised):
            return None
        return bound

    def check_batch(self, candidates: Sequence[Leg]) -> BatchCheckResult:
        """One shared admission check for a whole group of candidates.

        Computes, per affected ``(out_link, priority)`` port, the delay
        bound with **every** candidate leg admitted at once -- one
        aggregate substitution and one bound evaluation per port
        instead of one per candidate.  Because the delay bound is
        monotone in both the arrival stream and the higher-priority
        interference, a passing group check proves that admitting any
        subset of the candidates, in any order, passes too; callers use
        that to skip the per-leg checks entirely.  A failing group
        check is *not* a per-candidate verdict -- the batch pipeline
        falls back to sequential checks to find the exact admissible
        prefix set.

        Does not mutate state.  Raises :class:`AdmissionError` for a
        candidate on an unconfigured port, exactly like :meth:`check`.
        """
        self._ensure_up()
        obs = self._rebind()
        if obs.enabled:
            obs.batch_checks.inc()
            obs.batch_legs.inc(len(candidates))

        for leg in candidates:
            self.port(leg.out_link, leg.priority)

        # Group the candidate streams: (out_link, priority) -> in_link
        # -> aggregated candidate stream (one k-way merge per group).
        collected: Dict[Tuple[str, int], Dict[str, List[BitStream]]] = {}
        in_link_rates: Dict[str, Number] = {}
        for leg in candidates:
            pair = collected.setdefault((leg.out_link, leg.priority), {})
            pair.setdefault(leg.in_link, []).append(leg.stream)
            in_link_rates[leg.in_link] = (
                in_link_rates.get(leg.in_link, 0)
                + leg.stream.long_run_rate)
        grouped: Dict[Tuple[str, int], Dict[str, BitStream]] = {
            key: {in_link: aggregate(streams)
                  for in_link, streams in per_input.items()}
            for key, per_input in collected.items()
        }

        computed: Dict[Tuple[str, int], Number] = {}
        violations: Dict[str, List[PriorityBoundViolation]] = {}

        # In-link feasibility of the whole batch: if the total admitted
        # + candidate rate fits every incoming link, every subset fits.
        infeasible_links = {
            in_link for in_link, rate in in_link_rates.items()
            if self._in_link_rate.get(in_link, 0) + rate > 1
        }
        if infeasible_links:
            for (out_link, priority), per_input in sorted(grouped.items()):
                if not infeasible_links.intersection(per_input):
                    continue
                computed[(out_link, priority)] = math.inf
                violations.setdefault(out_link, []).append(
                    PriorityBoundViolation(
                        priority, math.inf,
                        self._ports[out_link][priority].advertised_bound,
                    ))
            return self._batch_result(candidates, computed, violations)

        affected_links = sorted({out_link for out_link, _p in grouped})

        if self.fast_path:
            screened = self._screen_batch(affected_links, grouped)
            if screened is not None:
                self._note_screen("accept")
                return self._batch_result(candidates, screened, violations)
            self._note_screen("exact")

        for out_link in affected_links:
            # Candidate streams per priority on this link, for the
            # "higher-priority interference" side of the lower checks.
            extras_above: Dict[str, BitStream] = {}
            for port in self._ports[out_link].values():
                priority = port.priority
                candidates_here = grouped.get((out_link, priority), {})
                if not candidates_here and not extras_above:
                    continue  # port unaffected by the batch
                if candidates_here:
                    arrivals = port.soa_with({
                        in_link: port._filter(port.sia(in_link) + stream)
                        for in_link, stream in candidates_here.items()
                    })
                else:
                    arrivals = port.soa()
                if arrivals.is_zero:
                    pass  # no traffic to disturb
                else:
                    if extras_above:
                        interference = port.sof_higher_with(extras_above)
                        bound = delay_bound(arrivals, interference)
                    else:
                        bound = delay_bound(arrivals, service=port.service())
                    computed[(out_link, priority)] = bound
                    if bound > port.advertised_bound:
                        violations.setdefault(out_link, []).append(
                            PriorityBoundViolation(
                                priority, bound, port.advertised_bound,
                            ))
                # This priority's candidates interfere with everything
                # below it on the same link.
                for in_link, stream in candidates_here.items():
                    base = extras_above.get(in_link)
                    extras_above[in_link] = (stream if base is None
                                             else base + stream)

        return self._batch_result(candidates, computed, violations)

    def _batch_result(self, candidates: Sequence[Leg],
                      computed: Dict[Tuple[str, int], Number],
                      violations: Dict[str, List[PriorityBoundViolation]],
                      ) -> BatchCheckResult:
        """Assemble the per-candidate views of one group check."""
        frozen = {out_link: tuple(found)
                  for out_link, found in violations.items()}
        results: Dict[str, CheckResult] = {}
        for leg in candidates:
            results[leg.connection_id] = CheckResult(
                switch=self.name,
                out_link=leg.out_link,
                computed_bounds={
                    priority: bound
                    for (out_link, priority), bound in computed.items()
                    if out_link == leg.out_link
                },
                violations=frozen.get(leg.out_link, ()),
            )
        return BatchCheckResult(
            switch=self.name,
            computed_bounds=computed,
            violations=frozen,
            results=results,
        )

    def _screen_batch(self, affected_links: Sequence[str],
                      grouped: Mapping[Tuple[str, int],
                                       Mapping[str, BitStream]],
                      ) -> Optional[Dict[Tuple[str, int], Number]]:
        """Sufficient-accept screen for a whole candidate group.

        Mirrors the exact group loop -- ports walked highest priority
        first, each priority's candidate envelopes joining the
        interference of everything below it -- but over the headroom
        ledger's scalar sums.  Returns the conservative per-port bounds
        when *every* affected port passes with margin, ``None`` (exact
        fallthrough) otherwise.  There is no batch reject screen: a
        failing group says nothing per candidate, so the exact loop is
        the only authority on rejections.
        """
        computed: Dict[Tuple[str, int], Number] = {}
        for out_link in affected_links:
            extra_rate: Number = 0
            extra_burst: Number = 0
            for port in self._ports[out_link].values():
                candidates_here = grouped.get((out_link, port.priority))
                if not candidates_here:
                    if (extra_rate == 0 and extra_burst == 0) \
                            or port.is_idle():
                        continue  # unaffected, or no traffic to disturb
                cand_rate: Number = 0
                cand_burst: Number = 0
                if candidates_here:
                    for stream in candidates_here.values():
                        cand_rate += stream.long_run_rate
                        cand_burst += stream.burst
                bound = self._screen_port_bound(
                    port.ledger_rate + cand_rate,
                    port.ledger_burst + cand_burst,
                    port.ledger_higher_rate + extra_rate,
                    port.ledger_higher_burst + extra_burst,
                    port.advertised_bound)
                if bound is None:
                    return None
                computed[(out_link, port.priority)] = bound
                extra_rate += cand_rate
                extra_burst += cand_burst
        return computed

    def admit(self, connection_id: str, in_link: str, out_link: str,
              priority: int, stream: BitStream) -> CheckResult:
        """Check and, if every bound holds, commit the connection.

        Raises :class:`SwitchRejection` (leaving state untouched) when a
        bound would be violated, and :class:`AdmissionError` when the
        connection id is already present.
        """
        self._ensure_up()
        if connection_id in self._committed or \
                connection_id in self._pending:
            raise AdmissionError(
                f"connection {connection_id!r} already admitted at switch "
                f"{self.name!r}"
            )
        result = self.check(in_link, out_link, priority, stream)
        if not result.admitted:
            worst = result.violations[0]
            raise SwitchRejection(
                self.name, out_link, worst.priority,
                worst.computed_bound, worst.advertised_bound,
            )
        leg = Leg(connection_id, in_link, out_link, priority, stream)
        self._apply(self._journal.append("admit", connection_id, leg))
        self._rebind().admits.inc()
        return result

    def release(self, connection_id: str) -> Leg:
        """Tear down a committed connection, restoring the aggregates.

        Strict by design (Alg. 3.3 runs exactly once per admission): an
        unknown or already-released connection raises
        :class:`AdmissionError` *before* any aggregate is touched, so a
        double release can never subtract a stream twice and silently
        corrupt the incremental caches.  Protocol code that must unwind
        without knowing what the switch still holds uses the idempotent
        :meth:`rollback` instead.
        """
        self._ensure_up()
        if connection_id not in self._committed:
            if connection_id in self._pending:
                raise AdmissionError(
                    f"connection {connection_id!r} is only reserved (not "
                    f"committed) at switch {self.name!r}; rollback() is the "
                    f"way to discard a reservation"
                )
            raise AdmissionError(
                f"connection {connection_id!r} is not admitted at switch "
                f"{self.name!r} (unknown or already released); aggregates "
                f"left untouched"
            )
        leg = self._apply(self._journal.append("release", connection_id))
        self._rebind().releases.inc()
        return leg

    # ------------------------------------------------------------------
    # Two-phase setup (reserve -> commit) and crash recovery
    # ------------------------------------------------------------------

    def reserve(self, connection_id: str, in_link: str, out_link: str,
                priority: int, stream: BitStream) -> CheckResult:
        """Phase 1 of the transactional walk: check and hold resources.

        On success the leg is *pending*: it participates in every
        aggregate (so later checks see it) but is not yet a commitment.
        Re-delivery of the same SETUP (identical leg) is idempotent and
        replays the original :class:`CheckResult`; a conflicting
        reservation or an already-committed id raises
        :class:`AdmissionError`.
        """
        self._ensure_up()
        leg = Leg(connection_id, in_link, out_link, priority, stream)
        self._check_reservable(connection_id, leg)
        if connection_id in self._pending:
            return self._results.get(connection_id)
        result = self.check(in_link, out_link, priority, stream)
        if not result.admitted:
            worst = result.violations[0]
            raise SwitchRejection(
                self.name, out_link, worst.priority,
                worst.computed_bound, worst.advertised_bound,
            )
        self._apply(self._journal.append("reserve", connection_id, leg),
                    result)
        self._rebind().reserves.inc()
        return result

    def reserve_checked(self, leg: Leg, result: CheckResult) -> CheckResult:
        """Phase 1 with the admission check already done by a group check.

        The batched pipeline calls this after a passing
        :meth:`check_batch`: the conservative group bound proved the
        leg admissible, so the per-leg check is skipped and the
        (conservative) group :class:`CheckResult` is stored as the
        reservation's replayable result.  Identical journal, aggregate
        and metric transitions to :meth:`reserve`.
        """
        self._ensure_up()
        connection_id = leg.connection_id
        self._check_reservable(connection_id, leg)
        if connection_id in self._pending:
            return self._results.get(connection_id)
        self._apply(self._journal.append("reserve", connection_id, leg),
                    result, patch_caches=False)
        self._rebind().reserves.inc()
        return result

    def _check_reservable(self, connection_id: str, leg: Leg) -> None:
        """Shared reserve-precondition checks (committed/conflicting)."""
        if connection_id in self._committed:
            raise AdmissionError(
                f"connection {connection_id!r} already admitted at switch "
                f"{self.name!r}"
            )
        held = self._pending.get(connection_id)
        if held is not None and held != leg:
            raise AdmissionError(
                f"connection {connection_id!r} already holds a conflicting "
                f"reservation at switch {self.name!r}"
            )

    def commit(self, connection_id: str) -> Leg:
        """Phase 2: confirm a reservation.  Idempotent on re-delivery."""
        self._ensure_up()
        committed = self._committed.get(connection_id)
        if committed is not None:
            return committed
        if connection_id not in self._pending:
            raise AdmissionError(
                f"no reservation for connection {connection_id!r} to commit "
                f"at switch {self.name!r}"
            )
        leg = self._apply(self._journal.append("commit", connection_id))
        self._rebind().commits.inc()
        return leg

    def rollback(self, connection_id: str) -> Optional[Leg]:
        """Idempotently unwind whatever this switch holds for a connection.

        Discards a pending reservation, releases a commitment, and
        returns ``None`` (doing nothing) for an unknown id -- exactly
        the semantics an ABORT/RELEASE message needs, since the sender
        cannot know how far the receiver got before a fault struck.
        """
        self._ensure_up()
        if connection_id in self._pending:
            op = "abort"
        elif connection_id in self._committed:
            op = "release"
        else:
            return None
        leg = self._apply(self._journal.append(op, connection_id))
        self._rebind().rollbacks.inc()
        return leg

    def expire(self, connection_id: str) -> Optional[Leg]:
        """Discard a *pending* reservation whose hold timer ran out.

        The switch-side half of the reservation TTL: a reservation whose
        holder fell silent (the setup walk stalled, or its ABORT never
        arrived) is discarded on the switch's own initiative once the
        TTL elapses.  Only pending state is touched -- a reservation the
        COMMIT wave already confirmed is a commitment and must survive
        -- and an unknown id is a no-op, so a timer racing the walk's
        own ABORT (or its commit) is always safe.  Journaled as an
        ``abort``, exactly like an explicit unwind.
        """
        self._ensure_up()
        if connection_id not in self._pending:
            return None
        leg = self._apply(self._journal.append("abort", connection_id))
        self._rebind().expiries.inc()
        return leg

    def _clear_volatile(self) -> None:
        """Drop legs, reservations, the ledger and every aggregate cache.

        Port configuration (advertised bounds) survives -- it is boot
        configuration, not run-time state.
        """
        self._committed.clear()
        self._pending.clear()
        self._results.clear()
        self._in_link_rate.clear()
        for ports in self._ports.values():
            for port in ports.values():
                port.clear()

    def crash(self) -> None:
        """Simulate a node failure: volatile state lost, journal kept.

        The advertised bounds survive too -- they are boot configuration,
        not run-time state.  Until :meth:`recover` runs, every CAC
        operation raises :class:`~repro.exceptions.SwitchUnavailable`.
        """
        self._crashed = True
        self._epoch += 1
        self._clear_volatile()

    def recover(self) -> None:
        """Rebuild the caches by replaying the journal op-for-op.

        Replaying the exact admit/release sequence (rather than summing
        the surviving legs) reproduces the incremental arithmetic in its
        original order, so the recovered committed state is bit-identical
        to what the switch held before the crash.  Every entry goes
        through :meth:`_apply`, the method live transitions use.
        Reservations that never committed are in-flight transactions the
        crash aborted: they are discarded (and journaled as aborts) at
        the end of the replay.  The result is validated with
        :meth:`verify_consistency`.
        """
        self._crashed = False
        self._clear_volatile()
        entries = self._journal.entries
        for entry in entries:
            self._apply(entry)
        for connection_id in list(self._pending):
            self._apply(self._journal.append("abort", connection_id))
        obs = self._rebind()
        obs.recoveries.inc()
        obs.replayed.set(len(entries))
        if not self.verify_consistency():
            raise AdmissionError(
                f"journal recovery left switch {self.name!r} with "
                f"inconsistent caches"
            )
        obs.recoveries_verified.inc()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def snapshot_state(self) -> Dict[str, List[Leg]]:
        """The state-determining legs (committed and pending), in order.

        Legs fully determine every aggregate, so this is the whole
        story; :meth:`restore_state` rebuilds the rest.  See
        :func:`repro.network.serialization.switch_state_to_dict` for the
        JSON-safe form.
        """
        return {
            "committed": list(self._committed.values()),
            "pending": list(self._pending.values()),
        }

    def restore_state(self, snapshot: Mapping[str, Sequence[Leg]]) -> None:
        """Boot-time restore of a :meth:`snapshot_state` leg snapshot.

        Requires an empty (freshly configured) switch.  Every restored
        leg is journaled -- committed legs as one-shot ``admit``
        entries, pending legs as ``reserve`` -- so a later
        :meth:`crash`/:meth:`recover` cycle still replays to exactly
        this state.  The snapshot may come from outside the program, so
        every leg is checked before anything is written: a leg on an
        unconfigured port or a connection id listed twice raises
        :class:`AdmissionError` and leaves the switch and its journal
        untouched.
        """
        self._ensure_up()
        if self._committed or self._pending:
            raise AdmissionError(
                f"switch {self.name!r} is not empty; restore_state is a "
                f"boot-time operation"
            )
        committed = list(snapshot.get("committed", ()))
        pending = list(snapshot.get("pending", ()))
        seen: Set[str] = set()
        for leg in committed + pending:
            if leg.connection_id in seen:
                raise AdmissionError(
                    f"cannot restore switch {self.name!r}: connection "
                    f"{leg.connection_id!r} appears twice in the snapshot"
                )
            seen.add(leg.connection_id)
            self.port(leg.out_link, leg.priority)
        for leg in committed:
            self._apply(self._journal.append("admit", leg.connection_id, leg))
        for leg in pending:
            self._apply(self._journal.append("reserve", leg.connection_id,
                                             leg))
        if not self.verify_consistency():
            raise AdmissionError(
                f"restore left switch {self.name!r} with inconsistent caches"
            )

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def computed_bound(self, out_link: str, priority: int) -> Number:
        """Worst-case delay bound of the *currently admitted* traffic."""
        port = self.port(out_link, priority)
        soa = port.soa()
        if soa.is_zero:
            return 0
        return delay_bound(soa, service=port.service())

    def buffer_requirement(self, out_link: str, priority: int) -> Number:
        """Worst-case FIFO occupancy (cells) of the admitted traffic.

        What Section 5 uses to size ring-node buffers: if this value
        stays at or below the configured queue length, worst-case
        traffic is never dropped.
        """
        port = self.port(out_link, priority)
        soa = port.soa()
        if soa.is_zero:
            return 0
        return backlog_bound_with_higher(soa, service=port.service())

    def in_link_utilization(self, in_link: str) -> Number:
        """Long-run admitted rate entering via one incoming link.

        Served from the in-link ledger -- a scalar running sum
        patched by the same deltas as the aggregates, and the value the
        admission check's feasibility test reads on both the exact and
        the screened path.
        """
        return self._in_link_rate.get(in_link, 0)

    def utilization(self, out_link: str) -> Number:
        """Long-run admitted rate on an output link (1.0 == saturated)."""
        total: Number = 0
        for port in self._ports[out_link].values():
            total += port.long_run_rate()
        return total

    def recompute_aggregates(self) -> Dict[Tuple[str, str, int], BitStream]:
        """Rebuild every ``Sia`` from the per-leg streams.

        The incremental bookkeeping of :meth:`admit`/:meth:`release`
        must always agree with this ground truth; the test suite checks
        it after long admit/release sequences to catch drift.
        """
        fresh: Dict[Tuple[str, str, int], BitStream] = {}
        for legs in (self._committed, self._pending):
            for leg in legs.values():
                key = (leg.in_link, leg.out_link, leg.priority)
                base = fresh.get(key, ZERO_STREAM)
                fresh[key] = base + leg.stream
        return fresh

    def verify_consistency(self, tolerance: float = 1e-9) -> bool:
        """True when every incremental cache matches a from-scratch rebuild.

        Checks the ``Sia`` ground truth *and* each populated derived
        cache (higher-priority aggregates, output sums) against values
        recomputed from the per-leg streams alone, plus the in-link
        ledger.
        """
        fresh = self.recompute_aggregates()
        ports = [port for per_link in self._ports.values()
                 for port in per_link.values()]
        for (in_link, out_link, priority) in fresh:
            if priority not in self._ports.get(out_link, {}):
                return False  # a leg on a port the switch no longer has
        in_rates: Dict[str, Number] = {}
        for (in_link, _out, _p), stream in fresh.items():
            in_rates[in_link] = in_rates.get(in_link, 0) \
                + stream.long_run_rate
        for in_link, expected in in_rates.items():
            if abs(self._in_link_rate.get(in_link, 0) - expected) \
                    > tolerance:
                return False
        return all(port.verify_against(fresh, tolerance) for port in ports)

    def __repr__(self) -> str:
        status = ", crashed" if self._crashed else ""
        return (
            f"SwitchCAC(name={self.name!r}, "
            f"legs={len(self._committed)}, "
            f"pending={len(self._pending)}, "
            f"links={self.out_links()}{status})"
        )
