"""The Section 5 evaluation: ring analysis and figure drivers.

Two evaluation paths exist, and the test suite checks they agree:

* :class:`RingAnalysis` -- the *direct* path.  For a ring workload the
  streams crossing every ring link are known in closed form (a
  broadcast from node ``m`` crosses link ``k`` after ``(k - m) mod R``
  upstream hops, hence with CDV accumulated over that many fixed
  per-node bounds), so each link's worst-case bound can be computed
  straight from the bit-stream algebra without walking the signalling
  procedure.  This is how the paper itself evaluates RTnet, and it is
  what the figure sweeps use.

* :func:`establish_workload` -- the *procedural* path.  Builds the
  topology, generates one :class:`ConnectionRequest` per terminal and
  runs the full distributed setup through
  :class:`~repro.core.admission.NetworkCAC`.  Slower, but exercises the
  production code path end to end.

The figure drivers (:func:`symmetric_delay_curve` for Figure 10,
:func:`asymmetric_capacity_curve` for Figure 11,
:func:`priority_capacity_curve` for Figure 12 and
:func:`soft_hard_capacity_curve` for Figure 13) produce plain data
rows; rendering lives in :mod:`repro.analysis.report`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.capacity import max_feasible_load
from ..parallel import ParallelExecutor, parallel_map
from ..core.accumulation import CdvPolicy, make_policy
from ..core.admission import NetworkCAC
from ..core.bitstream import BitStream, Number, ZERO_STREAM, aggregate
from ..core.delay_bound import delay_bound
from ..exceptions import AdmissionError, TrafficModelError
from ..network.connection import ConnectionRequest, EstablishedConnection
from .constants import (
    CYCLIC_PRIORITY,
    CYCLIC_QUEUE_CELLS,
    HIGH_SPEED_DELAY_CELLS,
    NODE_DELAY_BOUND,
    RING_NODES,
)
from .topology import broadcast_route, build_rtnet, terminal_name
from .workloads import (
    TrafficAssignment,
    asymmetric_workload,
    symmetric_workload,
)

__all__ = [
    "RingAnalysis",
    "establish_workload",
    "symmetric_delay_curve",
    "asymmetric_capacity_curve",
    "priority_capacity_curve",
    "soft_hard_capacity_curve",
    "vbr_workload",
    "vbr_capacity_curve",
]


class RingAnalysis:
    """Closed-form worst-case analysis of a cyclic-broadcast ring.

    Parameters
    ----------
    workload:
        ``(node, slot) -> (VBRParameters, priority)`` -- every
        terminal's cyclic broadcast.
    ring_nodes:
        Ring size ``R``; every broadcast traverses ``R - 1`` ring links.
    node_bound:
        The fixed advertised per-node delay bound, used both for CDV
        accumulation and as the per-link admission limit (RTnet: 32).
        Either a single number applying to every priority or a mapping
        ``priority -> bound`` -- lower priorities typically get larger
        queues (and correspondingly larger advertised bounds), which is
        what makes multi-priority operation useful (Figure 12).
    cdv_policy:
        "hard" or "soft" accumulation of upstream bounds.
    """

    def __init__(self, workload: TrafficAssignment,
                 ring_nodes: int = RING_NODES,
                 node_bound: Union[Number, Mapping[int, Number]] = NODE_DELAY_BOUND,
                 cdv_policy: Union[str, CdvPolicy] = "hard"):
        self.workload = workload
        self.ring_nodes = ring_nodes
        self.policy = make_policy(cdv_policy)
        self.priorities = sorted({
            priority for _params, priority in workload.values()
        })
        if isinstance(node_bound, Mapping):
            self.node_bounds: Dict[int, Number] = dict(node_bound)
        else:
            self.node_bounds = {
                priority: node_bound for priority in self.priorities
            }
        for priority in self.priorities:
            if priority not in self.node_bounds:
                raise ValueError(
                    f"no advertised node bound for priority {priority}"
                )
        #: CDV after j upstream hops, per priority, memoized.
        self._cdv: Dict[int, List[Number]] = {
            priority: [
                self.policy.accumulate([bound] * j)
                for j in range(ring_nodes)
            ]
            for priority, bound in self.node_bounds.items()
        }
        self._link_bounds: Dict[Tuple[int, int], Number] = {}
        #: Delayed broadcast envelopes by (descriptor, priority, upstream
        #: hops); see ``_delayed_envelope``.  A point has at most
        #: descriptors x priorities x R of them, while its links read
        #: one per terminal per link.
        self._envelopes: Dict[tuple, BitStream] = {}

    # ------------------------------------------------------------------
    # Stream construction
    # ------------------------------------------------------------------

    def _delayed_envelope(self, params, priority: int,
                          hops_upstream: int) -> BitStream:
        """A broadcast's arrival stream after the given upstream hops.

        Built once per distinct key and then shared.  The key carries
        the number type of every descriptor field as well as its value:
        ``cbr(Fraction(1, 2)) == cbr(0.5)``, but their envelopes differ
        in type, and an exact workload must stay exact.
        """
        key = (params, type(params.pcr), type(params.scr),
               type(params.mbs), priority, hops_upstream)
        envelope = self._envelopes.get(key)
        if envelope is None:
            envelope = params.worst_case_stream().delayed(
                self._cdv[priority][hops_upstream])
            self._envelopes[key] = envelope
        return envelope

    def _input_aggregates(self, link: int, priority_filter) -> List[BitStream]:
        """Per-incoming-link aggregates feeding ring link ``link``.

        Ring link ``k`` runs from ring node ``k``; its incoming links
        are the node's ring-in link (broadcasts in transit) and the
        access link of every local terminal.  ``priority_filter``
        selects which connections participate (e.g. "equal to p" or
        "higher than p").
        """
        ring = self.ring_nodes
        locals_: Dict[int, List[BitStream]] = {}
        transit: List[BitStream] = []
        for (node, slot), (params, priority) in self.workload.items():
            if not priority_filter(priority):
                continue
            offset = (link - node) % ring
            if offset > ring - 2:
                continue  # the broadcast never crosses this link
            if offset == 0:
                locals_.setdefault(slot, []).append(
                    self._delayed_envelope(params, priority, 0))
            else:
                transit.append(
                    self._delayed_envelope(params, priority, offset))
        aggregates = [aggregate(streams) for _slot, streams
                      in sorted(locals_.items())]
        if transit:
            aggregates.append(aggregate(transit))
        return aggregates

    def arrival_stream(self, link: int, priority: int) -> BitStream:
        """``Soa``: the filtered-and-summed arrival stream at a link."""
        parts = self._input_aggregates(
            link, lambda p: p == priority)
        return aggregate([part.filtered() for part in parts])

    def interference_stream(self, link: int, priority: int) -> BitStream:
        """``Sof``: filtered higher-priority interference at a link."""
        parts = self._input_aggregates(
            link, lambda p: p < priority)
        if not parts:
            return ZERO_STREAM
        return aggregate([part.filtered() for part in parts]).filtered()

    # ------------------------------------------------------------------
    # Bounds
    # ------------------------------------------------------------------

    def link_bound(self, link: int, priority: int) -> Number:
        """Worst-case queueing delay bound of one priority at one link."""
        key = (link, priority)
        if key not in self._link_bounds:
            arrivals = self.arrival_stream(link, priority)
            if arrivals.is_zero:
                bound: Number = 0
            else:
                bound = delay_bound(
                    arrivals, self.interference_stream(link, priority))
            self._link_bounds[key] = bound
        return self._link_bounds[key]

    def link_backlog(self, link: int, priority: int) -> Number:
        """Worst-case FIFO occupancy (cells) of one priority at one link.

        The quantity that sizes ring-node buffers -- Section 5 credits
        the CAC with "determin[ing] buffer requirement at switches for
        real-time traffic".
        """
        from ..core.delay_bound import backlog_bound_with_higher
        arrivals = self.arrival_stream(link, priority)
        if arrivals.is_zero:
            return 0
        return backlog_bound_with_higher(
            arrivals, self.interference_stream(link, priority))

    def worst_link_backlog(self, priority: int) -> Number:
        """The largest per-link buffer requirement across the ring."""
        return max(self.link_backlog(link, priority)
                   for link in range(self.ring_nodes))

    def all_link_bounds(self, priority: int) -> List[Number]:
        """Bounds of every ring link for one priority, by link index."""
        return [self.link_bound(link, priority)
                for link in range(self.ring_nodes)]

    def worst_link_bound(self, priority: int) -> Number:
        """The largest per-link bound (the admission-binding quantity)."""
        return max(self.all_link_bounds(priority))

    def e2e_bound(self, node: int, priority: int) -> Number:
        """End-to-end bound of a broadcast starting at ``node``."""
        total: Number = 0
        for j in range(self.ring_nodes - 1):
            total += self.link_bound((node + j) % self.ring_nodes, priority)
        return total

    def worst_e2e_bound(self, priority: int) -> Number:
        """The largest end-to-end bound over all source nodes."""
        nodes = {
            node for (node, _slot), (_params, p) in self.workload.items()
            if p == priority
        }
        if not nodes:
            return 0
        return max(self.e2e_bound(node, priority) for node in nodes)

    def feasible(self,
                 queue_bounds: Optional[Mapping[int, Number]] = None,
                 e2e_requirements: Optional[Mapping[int, Number]] = None,
                 ) -> bool:
        """Does the workload meet every per-link and end-to-end limit?

        ``queue_bounds`` defaults to the advertised node bound for every
        priority (per-link computed bound must not exceed the advertised
        bound, or the CAC would have refused); ``e2e_requirements`` maps
        priorities to deadline budgets in cell times (unconstrained
        priorities may be omitted).
        """
        for priority in self.priorities:
            limit = (queue_bounds or {}).get(
                priority, self.node_bounds[priority])
            if self.worst_link_bound(priority) > limit:
                return False
        for priority, requirement in (e2e_requirements or {}).items():
            if priority not in self.priorities:
                continue
            if self.worst_e2e_bound(priority) > requirement:
                return False
        return True


# ----------------------------------------------------------------------
# Procedural path: the full CAC machinery
# ----------------------------------------------------------------------

def establish_workload(workload: TrafficAssignment,
                       ring_nodes: int = RING_NODES,
                       terminals_per_node: int = 1,
                       node_bound: Union[Number, Mapping[int, Number]] = NODE_DELAY_BOUND,
                       cdv_policy: Union[str, CdvPolicy] = "hard",
                       batched: bool = False,
                       ) -> Tuple[NetworkCAC, List[EstablishedConnection]]:
    """Run the full distributed setup for a ring workload.

    Builds the RTnet topology, one broadcast request per terminal, and
    walks the SETUP procedure through :class:`NetworkCAC`.  Raises
    :class:`~repro.exceptions.AdmissionError` when any broadcast is
    refused (callers treat that as an infeasible workload).

    ``batched`` routes the whole workload through one
    :meth:`NetworkCAC.setup_many` call -- the same admitted set and
    switch state (see ``docs/architecture.md``), with one shared group
    check per ring node instead of one check per broadcast per hop.
    """
    priorities = sorted({p for _t, p in workload.values()}) or [CYCLIC_PRIORITY]
    if isinstance(node_bound, Mapping):
        bounds = {priority: node_bound[priority] for priority in priorities}
    else:
        bounds = {priority: node_bound for priority in priorities}
    net = build_rtnet(ring_nodes, terminals_per_node, bounds=bounds)
    cac = NetworkCAC(net, cdv_policy=cdv_policy)
    requests = []
    for (node, slot), (params, priority) in sorted(workload.items()):
        requests.append(ConnectionRequest(
            name=f"bcast-{terminal_name(node, slot)}",
            traffic=params,
            route=broadcast_route(net, node, slot),
            priority=priority,
        ))
    if batched:
        outcome = cac.setup_many(requests)
        if outcome.failures:
            name, refused = next(iter(outcome.failures.items()))
            for connection in reversed(outcome.established):
                cac.teardown(connection.name)
            raise AdmissionError(
                f"broadcast {name!r} refused in batched setup: {refused}"
            )
        return cac, list(outcome.established)
    established = cac.setup_all(requests)
    return cac, established


# ----------------------------------------------------------------------
# Figure drivers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DelayCurvePoint:
    """One point of Figure 10: load vs worst end-to-end delay bound."""

    load: float
    delay_bound: float        # cell times; inf when not admissible
    admissible: bool


def _symmetric_point(load: float, terminals_per_node: int,
                     ring_nodes: int, node_bound: Number,
                     cdv_policy: Union[str, CdvPolicy]) -> DelayCurvePoint:
    """One Figure 10 point; module-level so it fans out to workers."""
    workload = symmetric_workload(load, ring_nodes, terminals_per_node)
    analysis = RingAnalysis(workload, ring_nodes, node_bound, cdv_policy)
    worst_link = analysis.worst_link_bound(CYCLIC_PRIORITY)
    admissible = worst_link <= node_bound
    delay = analysis.worst_e2e_bound(CYCLIC_PRIORITY)
    return DelayCurvePoint(
        load=float(load),
        delay_bound=float(delay),
        admissible=bool(admissible),
    )


def symmetric_delay_curve(loads: Sequence[float],
                          terminals_per_node: int,
                          ring_nodes: int = RING_NODES,
                          node_bound: Number = NODE_DELAY_BOUND,
                          cdv_policy: Union[str, CdvPolicy] = "hard",
                          jobs: int = 1,
                          executor: Optional[ParallelExecutor] = None,
                          ) -> List[DelayCurvePoint]:
    """Figure 10: end-to-end delay bound vs total symmetric load.

    For each total load ``B`` every terminal broadcasts ``B / (R * N)``;
    the reported delay is the worst end-to-end bound over all source
    nodes.  A point is inadmissible when some link bound exceeds the
    advertised node bound (the CAC would refuse the set) -- the curve
    the paper plots ends there.

    Each load point is an independent closed-form analysis, so
    ``jobs > 1`` dispatches them across worker processes; the returned
    list is bit-identical to the serial evaluation (``jobs=0`` = all
    cores).
    """
    task = functools.partial(
        _symmetric_point, terminals_per_node=terminals_per_node,
        ring_nodes=ring_nodes, node_bound=node_bound,
        cdv_policy=cdv_policy)
    return parallel_map(task, list(loads), jobs=jobs, executor=executor)


def _asymmetric_feasible(load: float, hot_fraction: float,
                         ring_nodes: int, terminals_per_node: int,
                         node_bound: Union[Number, Mapping[int, Number]],
                         cdv_policy: Union[str, CdvPolicy],
                         e2e_requirement: Number,
                         hot_priority: int = CYCLIC_PRIORITY,
                         other_priority: int = CYCLIC_PRIORITY,
                         e2e_requirements: Optional[Mapping[int, Number]] = None,
                         ) -> bool:
    """Is an asymmetric workload of this total load fully supportable?"""
    try:
        workload = asymmetric_workload(
            load, hot_fraction, ring_nodes, terminals_per_node,
            hot_priority=hot_priority, other_priority=other_priority)
    except TrafficModelError:
        return False
    if not workload:
        return True
    analysis = RingAnalysis(workload, ring_nodes, node_bound, cdv_policy)
    requirements = e2e_requirements
    if requirements is None:
        requirements = {
            priority: e2e_requirement for priority in analysis.priorities
        }
    return analysis.feasible(e2e_requirements=requirements)


@dataclass(frozen=True)
class CapacityCurvePoint:
    """One point of Figures 11-13: asymmetry vs max supportable load."""

    hot_fraction: float
    max_load: float


def _asymmetric_capacity_point(fraction: float, terminals_per_node: int,
                               ring_nodes: int, node_bound: Number,
                               cdv_policy: Union[str, CdvPolicy],
                               e2e_requirement: Number,
                               tolerance: float) -> CapacityCurvePoint:
    """One Figure 11 bisection; module-level so it fans out to workers."""
    best = max_feasible_load(
        lambda load: _asymmetric_feasible(
            load, fraction, ring_nodes, terminals_per_node,
            node_bound, cdv_policy, e2e_requirement),
        tolerance=tolerance,
    )
    return CapacityCurvePoint(float(fraction), best)


def asymmetric_capacity_curve(hot_fractions: Sequence[float],
                              terminals_per_node: int,
                              ring_nodes: int = RING_NODES,
                              node_bound: Number = NODE_DELAY_BOUND,
                              cdv_policy: Union[str, CdvPolicy] = "hard",
                              e2e_requirement: Number = None,
                              tolerance: float = 1 / 128,
                              jobs: int = 1,
                              executor: Optional[ParallelExecutor] = None,
                              ) -> List[CapacityCurvePoint]:
    """Figure 11: max supportable total load vs asymmetry ``p``.

    For each ``p`` a bisection finds the largest total load whose
    asymmetric workload keeps every link bound within the node bound
    and every broadcast's end-to-end bound within the requirement
    (default: the 1 ms high-speed deadline, about 370 cell times).

    Each fraction's bisection is independent; ``jobs > 1`` fans them
    across worker processes with bit-identical results.
    """
    if e2e_requirement is None:
        e2e_requirement = HIGH_SPEED_DELAY_CELLS
    task = functools.partial(
        _asymmetric_capacity_point,
        terminals_per_node=terminals_per_node, ring_nodes=ring_nodes,
        node_bound=node_bound, cdv_policy=cdv_policy,
        e2e_requirement=e2e_requirement, tolerance=tolerance)
    return parallel_map(task, list(hot_fractions), jobs=jobs,
                        executor=executor)


def priority_capacity_curve(hot_fractions: Sequence[float],
                            terminals_per_node: int,
                            ring_nodes: int = RING_NODES,
                            node_bound: Number = NODE_DELAY_BOUND,
                            low_queue_bound: Number = None,
                            low_e2e_requirement: Number = None,
                            e2e_requirement: Number = None,
                            tolerance: float = 1 / 128,
                            jobs: int = 1,
                            executor: Optional[ParallelExecutor] = None,
                            ) -> List[Tuple[float, float, float]]:
    """Figure 12: one vs two priority levels on the asymmetric workload.

    With a single priority, every broadcast must meet the tight
    high-speed deadline.  With two, the hot terminal's bulk transfer is
    demoted to the lower priority with the medium-speed deadline (and a
    correspondingly larger queue), leaving the tight deadline to the
    many small broadcasts -- the flexibility Section 4.3's discussion 2
    advertises.  Returns ``(p, max_load_1_priority, max_load_2_priorities)``
    rows.
    """
    if e2e_requirement is None:
        e2e_requirement = HIGH_SPEED_DELAY_CELLS
    if low_queue_bound is None:
        # The lower-priority queue must absorb, at minimum, the initial
        # busy period of every higher-priority connection crossing the
        # link (one clumped cell each), so it scales with the network
        # population -- a design choice Section 5 folds into "buffer
        # requirement at switches".
        low_queue_bound = node_bound * max(4, terminals_per_node)
    if low_e2e_requirement is None:
        low_e2e_requirement = e2e_requirement * 30   # the 30 ms class
    task = functools.partial(
        _priority_point, terminals_per_node=terminals_per_node,
        ring_nodes=ring_nodes, node_bound=node_bound,
        low_queue_bound=low_queue_bound,
        low_e2e_requirement=low_e2e_requirement,
        e2e_requirement=e2e_requirement, tolerance=tolerance)
    return parallel_map(task, list(hot_fractions), jobs=jobs,
                        executor=executor)


def _priority_point(fraction: float, terminals_per_node: int,
                    ring_nodes: int, node_bound: Number,
                    low_queue_bound: Number, low_e2e_requirement: Number,
                    e2e_requirement: Number,
                    tolerance: float) -> Tuple[float, float, float]:
    """One Figure 12 row (two bisections); fans out to workers."""
    single = max_feasible_load(
        lambda load: _asymmetric_feasible(
            load, fraction, ring_nodes, terminals_per_node,
            node_bound, "hard", e2e_requirement),
        tolerance=tolerance,
    )
    demoted = max_feasible_load(
        lambda load: _asymmetric_feasible(
            load, fraction, ring_nodes, terminals_per_node,
            {CYCLIC_PRIORITY: node_bound, 1: low_queue_bound},
            "hard", e2e_requirement,
            hot_priority=1, other_priority=CYCLIC_PRIORITY,
            e2e_requirements={CYCLIC_PRIORITY: e2e_requirement,
                              1: low_e2e_requirement}),
        tolerance=tolerance,
    )
    # Two priority levels never force the demoted assignment: when
    # demotion would hurt (small networks where the hot stream's own
    # clumping dominates), the operator keeps everything at one
    # level, so the supported capacity is the better of the two.
    return (float(fraction), single, max(single, demoted))


def vbr_workload(total_load: float, mbs_per_node: int,
                 ring_nodes: int = RING_NODES) -> TrafficAssignment:
    """One VBR broadcast per ring node with a given burst allowance.

    The Section 5 VBR feasibility reading of Figure 10: the worst-case
    aggregate of a node's terminals equals one VBR connection whose
    ``MBS`` is the sum of the terminals' burst sizes (``PCR`` saturates
    at the link rate once carried on one link) and whose ``SCR`` is the
    node's share of the total load.
    """
    if not 0 < total_load <= 1:
        raise TrafficModelError(
            f"total load must be in (0, 1], got {total_load}"
        )
    from ..core.traffic import VBRParameters
    share = total_load / ring_nodes
    params = VBRParameters(pcr=1, scr=share, mbs=max(1, mbs_per_node))
    return {(node, 0): (params, CYCLIC_PRIORITY)
            for node in range(ring_nodes)}


def _vbr_point(mbs: int, ring_nodes: int, node_bound: Number,
               e2e_requirement: Number,
               tolerance: float) -> Tuple[int, float]:
    """One VBR-feasibility bisection; module-level for worker fan-out."""
    def feasible(load: float) -> bool:
        try:
            workload = vbr_workload(load, mbs, ring_nodes)
        except TrafficModelError:
            return False
        analysis = RingAnalysis(workload, ring_nodes, node_bound, "hard")
        return analysis.feasible(
            e2e_requirements={CYCLIC_PRIORITY: e2e_requirement})

    return (mbs, max_feasible_load(feasible, tolerance=tolerance))


def vbr_capacity_curve(mbs_values: Sequence[int],
                       ring_nodes: int = RING_NODES,
                       node_bound: Number = NODE_DELAY_BOUND,
                       e2e_requirement: Number = None,
                       tolerance: float = 1 / 128,
                       jobs: int = 1,
                       executor: Optional[ParallelExecutor] = None,
                       ) -> List[Tuple[int, float]]:
    """Max supportable VBR load vs per-node burst allowance.

    The paper's claim under Figure 10: "up to 35% of real-time VBR
    traffic can be supported with a queueing delay bound of 370 cell
    times if the summation of MBS's of VBR connections established at
    terminals attached to a ring node does not exceed 16" -- i.e. the
    MBS-16 VBR curve coincides with the N=16 CBR curve, by the
    equivalence of Section 5.  Returns ``(mbs_per_node, max_load)``.
    """
    if e2e_requirement is None:
        e2e_requirement = HIGH_SPEED_DELAY_CELLS
    task = functools.partial(
        _vbr_point, ring_nodes=ring_nodes, node_bound=node_bound,
        e2e_requirement=e2e_requirement, tolerance=tolerance)
    return parallel_map(task, list(mbs_values), jobs=jobs,
                        executor=executor)


def _soft_hard_point(fraction: float, terminals_per_node: int,
                     ring_nodes: int, node_bound: Number,
                     e2e_requirement: Number,
                     tolerance: float) -> Tuple[float, float, float]:
    """One Figure 13 row (hard + soft bisections); fans out to workers."""
    hard = max_feasible_load(
        lambda load: _asymmetric_feasible(
            load, fraction, ring_nodes, terminals_per_node,
            node_bound, "hard", e2e_requirement),
        tolerance=tolerance,
    )
    soft = max_feasible_load(
        lambda load: _asymmetric_feasible(
            load, fraction, ring_nodes, terminals_per_node,
            node_bound, "soft", e2e_requirement),
        tolerance=tolerance,
    )
    return (float(fraction), hard, soft)


def soft_hard_capacity_curve(hot_fractions: Sequence[float],
                             terminals_per_node: int,
                             ring_nodes: int = RING_NODES,
                             node_bound: Number = NODE_DELAY_BOUND,
                             e2e_requirement: Number = None,
                             tolerance: float = 1 / 128,
                             jobs: int = 1,
                             executor: Optional[ParallelExecutor] = None,
                             ) -> List[Tuple[float, float, float]]:
    """Figure 13: hard vs soft CDV accumulation on the asymmetric load.

    Returns ``(p, max_load_hard, max_load_soft)`` rows; the soft scheme
    assumes less clumping and therefore admits at least as much.  Rows
    are independent: ``jobs > 1`` fans them across worker processes
    with bit-identical results.
    """
    if e2e_requirement is None:
        e2e_requirement = HIGH_SPEED_DELAY_CELLS
    task = functools.partial(
        _soft_hard_point, terminals_per_node=terminals_per_node,
        ring_nodes=ring_nodes, node_bound=node_bound,
        e2e_requirement=e2e_requirement, tolerance=tolerance)
    return parallel_map(task, list(hot_fractions), jobs=jobs,
                        executor=executor)
