"""Randomized fault-schedule property harness.

The robustness contract of the two-phase walk is an *equivalence*: no
matter which faults strike a batch of setups -- drops, delays,
duplicates, switch crashes, link failures -- the network must end up in
exactly the state a fault-free replay of only the successfully
committed connections produces, and every switch's incremental caches
must still verify against a from-scratch rebuild.

:func:`run_schedule` executes one seeded schedule end to end (generate
a random :class:`~repro.robustness.faults.FaultPlan`, attempt every
request, recover crashed switches, compare against the clean replay)
and returns a :class:`ScheduleReport`; the property suite and the CI
stress job run hundreds of them with fixed seeds.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.admission import NetworkCAC
from ..exceptions import AdmissionError
from ..network.connection import ConnectionRequest
from ..network.signaling import SignalingTrace
from ..network.topology import Network
from ..parallel import ParallelExecutor, parallel_map
from .faults import (
    CRASH,
    DELAY,
    DROP,
    DUPLICATE,
    LINK_FAIL,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PHASES,
)
from .migration import POLICIES, no_double_booking
from .retry import RetryPolicy

__all__ = [
    "LinkFailureEvent",
    "ScheduleReport",
    "random_fault_plan",
    "random_link_failures",
    "run_schedule",
    "run_schedules",
    "committed_states_equal",
]

#: Per-switch journal digest: ``(switch, ((op, connection_id), ...))``
#: rows in sorted switch order -- a picklable fingerprint of the exact
#: op-for-op journal each switch wrote during the schedule.
JournalDigest = Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]

#: Drops are the common failure; crashes and link failures are rare but
#: must still be survived, so they stay in the draw.
_KIND_WEIGHTS = (
    (DROP, 4),
    (DELAY, 3),
    (DUPLICATE, 3),
    (CRASH, 1),
    (LINK_FAIL, 1),
)


def random_fault_plan(rng: random.Random, max_hops: int,
                      connections: Optional[Sequence[str]] = None,
                      max_faults: int = 4,
                      phases: Sequence[str] = PHASES,
                      hop_timeout: float = 8.0) -> FaultPlan:
    """Draw a seeded fault schedule.

    Delays straddle the timeout boundary (``0.25x .. 2.5x``) so both the
    merely-slow and the processed-late-then-retransmitted paths get
    exercised; drop bursts of 1-3 probe the retry budget from both
    sides.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    kinds = [kind for kind, weight in _KIND_WEIGHTS for _ in range(weight)]
    faults: List[FaultSpec] = []
    for _ in range(rng.randint(0, max_faults)):
        kind = rng.choice(kinds)
        connection = None
        if connections and rng.random() < 0.7:
            connection = rng.choice(list(connections))
        faults.append(FaultSpec(
            kind=kind,
            phase=rng.choice(list(phases)),
            hop=rng.randrange(max_hops),
            connection=connection,
            delay=rng.uniform(0.25 * hop_timeout, 2.5 * hop_timeout)
            if kind == DELAY else 0.0,
            count=rng.randint(1, 3) if kind == DROP else 1,
        ))
    return FaultPlan(faults)


@dataclass(frozen=True)
class LinkFailureEvent:
    """One mid-workload link failure the schedule injects.

    The link fails after the ``after``-th setup attempt, the network
    reacts with :meth:`NetworkCAC.handle_link_failure` under the drawn
    ``policy``, and -- when ``restore`` is set -- the link is repaired
    right after the migration pass, so later setups may route over it
    again.
    """

    after: int
    link: str
    policy: str
    restore: bool


def random_link_failures(rng: random.Random, network: Network,
                         num_requests: int,
                         count: int) -> Tuple[LinkFailureEvent, ...]:
    """Draw ``count`` seeded mid-workload link-failure events.

    Fails switch-to-switch links when the topology has any (those are
    the ones a detour can route around), otherwise any switch output
    link, so star-shaped topologies still exercise the drop/keep
    policies.
    """
    candidates = sorted(
        link.name for link in network.links()
        if network.node(link.src).is_switch
        and network.node(link.dst).is_switch
    )
    if not candidates:
        candidates = sorted(
            link.name for link in network.links()
            if network.node(link.src).is_switch
        )
    if not candidates:
        return ()
    return tuple(
        LinkFailureEvent(
            after=rng.randint(1, num_requests),
            link=rng.choice(candidates),
            policy=rng.choice(list(POLICIES)),
            restore=rng.random() < 0.5,
        )
        for _ in range(count)
    )


@dataclass
class ScheduleReport:
    """What one seeded schedule did and whether the invariants held."""

    seed: int
    plan: FaultPlan
    attempted: Tuple[str, ...]
    established: Tuple[str, ...]
    errors: Dict[str, str]
    recovered: Tuple[str, ...]
    consistent: bool
    equivalent: bool
    trace: SignalingTrace
    #: Exact per-switch journal op sequences (see :data:`JournalDigest`);
    #: what the parallel-equivalence CI job compares against serial runs.
    journals: JournalDigest = field(default=())
    #: Mid-workload link failures injected (empty without
    #: ``link_failures``), and the per-victim outcomes they produced.
    link_events: Tuple[LinkFailureEvent, ...] = ()
    migrated: Tuple[str, ...] = ()
    dropped: Tuple[str, ...] = ()
    kept: Tuple[str, ...] = ()
    #: Did every switch's committed legs match exactly the established
    #: connections' current-generation legs after the schedule?
    booking_safe: bool = True

    @property
    def ok(self) -> bool:
        """All acceptance properties held for this schedule."""
        return self.consistent and self.equivalent and self.booking_safe

    def __repr__(self) -> str:
        return (
            f"ScheduleReport(seed={self.seed}, faults={len(self.plan)}, "
            f"established={len(self.established)}/{len(self.attempted)}, "
            f"recovered={list(self.recovered)}, "
            f"migrated={len(self.migrated)}, ok={self.ok})"
        )


def committed_states_equal(faulted: NetworkCAC, clean: NetworkCAC,
                           tolerance: float = 1e-9,
                           aliases: Optional[Dict[str, str]] = None) -> bool:
    """Is the post-fault network state the clean replay's state?

    Compares, per switch: the committed leg sets, the absence of
    leftover reservations, and every ``Sia`` aggregate; plus the
    established-connection sets and their end-to-end guarantees.

    ``aliases`` maps faulted-side leg ids to the clean-side ids they
    should be compared under: a migrated connection books its legs
    under a versioned ``name@g<n>`` id, while the clean replay of its
    post-migration route books under the plain name.
    """
    aliases = aliases or {}
    if set(faulted.established) != set(clean.established):
        return False
    for name, connection in faulted.established.items():
        if connection.e2e_bound != clean.established[name].e2e_bound:
            return False
    for name, cac in faulted.switches().items():
        reference = clean.switch(name)
        faulted_ids = {aliases.get(leg, leg) for leg in cac.legs}
        if faulted_ids != set(reference.legs):
            return False
        if cac.pending:
            return False
        keys = set(cac.recompute_aggregates())
        keys.update(reference.recompute_aggregates())
        for key in keys:
            if not cac.sia(*key).approx_equal(reference.sia(*key),
                                              tolerance):
                return False
    return True


def run_schedule(seed: int,
                 network_factory: Callable[[], Network],
                 request_factory: Callable[[Network],
                                           Iterable[ConnectionRequest]],
                 retry_policy: Optional[RetryPolicy] = None,
                 hop_timeout: float = 8.0,
                 max_faults: int = 4,
                 batched: bool = False,
                 link_failures: int = 0,
                 fast_path: bool = True) -> ScheduleReport:
    """Run one seeded fault schedule and check the acceptance properties.

    ``network_factory`` must build a fresh, identical topology on every
    call (it is invoked twice: once for the faulted run, once for the
    clean replay); ``request_factory`` maps a network to the ordered
    connection requests to attempt.

    ``batched`` routes establishment through
    :meth:`NetworkCAC.setup_many` instead of per-request
    :meth:`NetworkCAC.setup` calls.  Under an active fault injector the
    batched pipeline falls back to the exact sequential walk, so every
    schedule must produce the identical report either way -- which is
    precisely what the property suite asserts.

    ``link_failures`` additionally draws that many mid-workload
    :class:`LinkFailureEvent`\\ s (after the fault plan, so schedules
    with ``link_failures=0`` stay bit-identical to earlier releases):
    each fails a link after its ``after``-th setup, runs the live
    migration pass under the drawn policy, and optionally restores the
    link.  The clean replay then re-establishes every survivor over its
    *post-migration* route, and the report checks the
    :func:`~repro.robustness.migration.no_double_booking` invariant on
    top of the usual two.  In batched mode the events fire after the
    whole batch (the batch is one atomic pipeline).

    ``fast_path`` is forwarded to both the faulted and the clean-replay
    :class:`NetworkCAC` (``False`` is the exact path); the
    screened and exact admission paths produce the same report, which
    the property suite asserts by running schedules both ways.
    """
    rng = random.Random(seed)
    network = network_factory()
    requests = list(request_factory(network))
    if not requests:
        raise ValueError("request_factory produced no requests")
    max_hops = max(len(request.route.hops()) for request in requests)
    plan = random_fault_plan(
        rng, max_hops, [request.name for request in requests],
        max_faults=max_faults, hop_timeout=hop_timeout,
    )
    events = random_link_failures(rng, network, len(requests),
                                  link_failures) if link_failures else ()
    injector = FaultInjector(plan)
    policy = retry_policy or RetryPolicy(
        max_attempts=3, base_delay=0.5, max_delay=4.0,
    )
    faulted = NetworkCAC(
        network, fault_injector=injector, retry_policy=policy,
        hop_timeout=hop_timeout, rng=random.Random(seed + 1),
        fast_path=fast_path,
    )
    trace = SignalingTrace()
    errors: Dict[str, str] = {}
    migrated: List[str] = []
    dropped: List[str] = []
    kept: List[str] = []

    def fire_events(after: int) -> None:
        for event in events:
            if event.after != after:
                continue
            injector.fail_link(event.link)
            report = faulted.handle_link_failure(
                event.link, policy=event.policy, trace=trace)
            migrated.extend(report.migrated)
            dropped.extend(report.dropped)
            kept.extend(report.kept)
            if event.restore:
                injector.restore_link(event.link)

    if batched:
        outcome = faulted.setup_many(requests, trace=trace)
        errors = {
            name: f"{type(refused).__name__}: {refused}"
            for name, refused in outcome.failures.items()
        }
        for after in sorted({event.after for event in events}):
            fire_events(after)
    else:
        for position, request in enumerate(requests, start=1):
            try:
                faulted.setup(request, trace=trace)
            except AdmissionError as refused:
                errors[request.name] = f"{type(refused).__name__}: {refused}"
            fire_events(position)

    recovered = tuple(sorted(
        name for name, cac in faulted.switches().items() if cac.crashed
    ))
    for name in recovered:
        faulted.recover_switch(name)

    consistent = all(
        cac.verify_consistency() for cac in faulted.switches().values()
    )
    booking_safe = no_double_booking(faulted)

    # The clean replay re-runs every survivor's *current* request (a
    # migrated connection's detour route), under its plain name; the
    # alias map folds the faulted side's versioned leg ids back onto
    # the plain names for the comparison.
    clean = NetworkCAC(network_factory(), fast_path=fast_path)
    for request in requests:
        survivor = faulted.established.get(request.name)
        if survivor is not None:
            clean.setup(survivor.request)
    aliases = {
        connection.leg_name: connection.name
        for connection in faulted.established.values()
    }
    equivalent = committed_states_equal(faulted, clean, aliases=aliases)

    journals: JournalDigest = tuple(
        (name, tuple((entry.op, entry.connection_id)
                     for entry in cac.journal.entries))
        for name, cac in sorted(faulted.switches().items())
    )

    return ScheduleReport(
        seed=seed,
        plan=plan,
        attempted=tuple(request.name for request in requests),
        established=tuple(faulted.established),
        errors=errors,
        recovered=recovered,
        consistent=consistent,
        equivalent=equivalent,
        trace=trace,
        journals=journals,
        link_events=events,
        migrated=tuple(migrated),
        dropped=tuple(dropped),
        kept=tuple(kept),
        booking_safe=booking_safe,
    )


def run_schedules(seeds: Iterable[int],
                  network_factory: Callable[[], Network],
                  request_factory: Callable[[Network],
                                            Iterable[ConnectionRequest]],
                  retry_policy: Optional[RetryPolicy] = None,
                  hop_timeout: float = 8.0,
                  max_faults: int = 4,
                  batched: bool = False,
                  link_failures: int = 0,
                  fast_path: bool = True,
                  jobs: int = 1,
                  executor: Optional[ParallelExecutor] = None,
                  ) -> List[ScheduleReport]:
    """Run many seeded schedules, optionally fanned across processes.

    Every schedule is an independent, fully seeded unit of work (its
    own RNG, its own fresh topology), so batching them across workers
    changes nothing about any individual run: the returned reports --
    fault plans, established sets, signalling traces *and the per-switch
    journal digests* -- are bit-identical to calling
    :func:`run_schedule` serially over the same seeds, in seed order.
    The property suite asserts exactly this equivalence.

    ``jobs=0`` uses every available core; pass ``executor=`` to reuse a
    live worker pool.  Both factories must be picklable (module-level
    functions) for the parallel path; unpicklable factories degrade to
    the serial loop with identical results.
    """
    task = functools.partial(
        run_schedule,
        network_factory=network_factory,
        request_factory=request_factory,
        retry_policy=retry_policy,
        hop_timeout=hop_timeout,
        max_faults=max_faults,
        batched=batched,
        link_failures=link_failures,
        fast_path=fast_path,
    )
    return parallel_map(task, list(seeds), jobs=jobs, executor=executor)
