"""A central connection admission control server.

Section 4.3 discussion 3: the CAC scheme "can be implemented either
distributedly at switches or centrally at a connection admission
control server", and Section 5 announces that switched RTnet
connections will be managed by "a central connection management
server".  :class:`CacServer` is that server: it owns the CAC state of
every switch, exposes a request/response admission API, keeps an audit
log, supports all-or-nothing *plans* for batch (permanent, offline)
connection sets, and can persist and restore its committed state.

It builds on :class:`~repro.core.admission.NetworkCAC` -- the
admission mathematics is identical to the distributed walk; only the
locus of the decision changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..exceptions import AdmissionError, ReproError
from ..network.connection import ConnectionRequest, EstablishedConnection
from ..network.serialization import request_from_dict, request_to_dict
from ..network.topology import Network
from .accumulation import CdvPolicy
from .admission import NetworkCAC

__all__ = ["CacServer", "AdmissionDecision", "AuditEntry", "PlanReport"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The server's answer to one admission request."""

    connection: str
    admitted: bool
    reason: str
    e2e_bound: Optional[float] = None


@dataclass(frozen=True)
class AuditEntry:
    """One line of the server's audit log."""

    sequence: int
    action: str          # "setup" | "reject" | "teardown" | "restore"
    connection: str
    detail: str = ""


@dataclass(frozen=True)
class PlanReport:
    """Outcome of a dry-run over a batch of requests.

    ``feasible`` is all-or-nothing: every request in the batch would be
    admitted, in order, on top of the current committed state.  The
    per-request decisions pinpoint the first failure.  The server's
    state is untouched either way.
    """

    feasible: bool
    decisions: Tuple[AdmissionDecision, ...]


class CacServer:
    """Central admission control over one network.

    Examples
    --------
    >>> from repro.network.topology import star_network
    >>> from repro.network.routing import shortest_path
    >>> from repro.network.connection import ConnectionRequest
    >>> from repro.core.traffic import cbr
    >>> net = star_network(3, bounds={0: 32})
    >>> server = CacServer(net)
    >>> request = ConnectionRequest(
    ...     "vc0", cbr(0.25), shortest_path(net, "t0", "t2"))
    >>> server.request_setup(request).admitted
    True
    """

    def __init__(self, network: Network,
                 cdv_policy: Union[str, CdvPolicy] = "hard",
                 filter_per_input: bool = True):
        self.network = network
        self._cac = NetworkCAC(network, cdv_policy=cdv_policy,
                               filter_per_input=filter_per_input)
        self._requests: Dict[str, ConnectionRequest] = {}
        self._audit: List[AuditEntry] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Admission API
    # ------------------------------------------------------------------

    def request_setup(self, request: ConnectionRequest) -> AdmissionDecision:
        """Admit a connection, or explain why not.

        Unlike the raw :meth:`NetworkCAC.setup`, the server never raises
        for an admission refusal -- callers get a decision object either
        way (exceptions remain for malformed requests).
        """
        try:
            established = self._cac.setup(request)
        except AdmissionError as err:
            decision = AdmissionDecision(
                request.name, False, str(err))
            self._log("reject", request.name, str(err))
            return decision
        self._requests[request.name] = request
        self._log("setup", request.name,
                  f"e2e_bound={established.e2e_bound}")
        return AdmissionDecision(
            request.name, True, "admitted",
            e2e_bound=float(established.e2e_bound))

    def request_setup_many(self, requests: Iterable[ConnectionRequest],
                           ) -> List[AdmissionDecision]:
        """Admit a batch of connections through the shared-check pipeline.

        The batched counterpart of :meth:`request_setup`: decisions come
        back in request order, refusals as decision objects rather than
        exceptions, and the admitted set is exactly what one-by-one
        :meth:`request_setup` calls would have admitted (see
        :meth:`NetworkCAC.setup_many`).  Not all-or-nothing -- for that,
        use :meth:`commit_plan`.
        """
        batch = list(requests)
        outcome = self._cac.setup_many(batch)
        established = {c.name: c for c in outcome.established}
        decisions: List[AdmissionDecision] = []
        for request in batch:
            # pop: a duplicate name later in the batch is a refusal,
            # exactly as its sequential setup would have been.
            connection = established.pop(request.name, None)
            if connection is not None:
                self._requests[request.name] = request
                self._log("setup", request.name,
                          f"e2e_bound={connection.e2e_bound}")
                decisions.append(AdmissionDecision(
                    request.name, True, "admitted",
                    e2e_bound=float(connection.e2e_bound)))
            else:
                reason = str(outcome.failures.get(
                    request.name, "refused"))
                self._log("reject", request.name, reason)
                decisions.append(AdmissionDecision(
                    request.name, False, reason))
        return decisions

    def request_teardown(self, name: str) -> None:
        """Release an established connection."""
        self._cac.teardown(name)
        self._requests.pop(name, None)
        self._log("teardown", name)

    def plan(self, requests: Iterable[ConnectionRequest]) -> PlanReport:
        """Dry-run a batch on top of the committed state.

        Requests are trialled in order with full interaction effects
        (earlier batch members consume capacity seen by later ones),
        then everything trialled is rolled back -- the committed state
        is never disturbed.  This is the offline planning workflow the
        current RTnet uses for its permanent connection set.
        """
        decisions: List[AdmissionDecision] = []
        trialled: List[str] = []
        feasible = True
        try:
            for request in requests:
                try:
                    established = self._cac.setup(request)
                except AdmissionError as err:
                    decisions.append(AdmissionDecision(
                        request.name, False, str(err)))
                    feasible = False
                    break
                trialled.append(request.name)
                decisions.append(AdmissionDecision(
                    request.name, True, "would admit",
                    e2e_bound=float(established.e2e_bound)))
        finally:
            for name in reversed(trialled):
                self._cac.teardown(name)
        return PlanReport(feasible=feasible, decisions=tuple(decisions))

    def commit_plan(self, requests: Iterable[ConnectionRequest],
                    ) -> List[AdmissionDecision]:
        """Admit a whole batch, all-or-nothing."""
        batch = list(requests)
        report = self.plan(batch)
        if not report.feasible:
            return list(report.decisions)
        return [self.request_setup(request) for request in batch]

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def established(self) -> Mapping[str, EstablishedConnection]:
        """The committed connections."""
        return self._cac.established

    @property
    def audit_log(self) -> List[AuditEntry]:
        """The full audit trail, oldest first."""
        return list(self._audit)

    def port_report(self):
        """Per-port computed bounds / buffer needs / utilization."""
        return self._cac.port_report()

    def _log(self, action: str, connection: str, detail: str = "") -> None:
        self._sequence += 1
        self._audit.append(AuditEntry(
            self._sequence, action, connection, detail))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The committed connection set as a JSON-safe dict.

        Captures the *requests* (contracts + routes), which fully
        determine the CAC state -- restoring replays the admissions.
        """
        return {
            "connections": [
                request_to_dict(self._requests[name])
                for name in sorted(self._requests)
            ],
        }

    def snapshot_json(self) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def restore(self, snapshot: Mapping[str, Any]) -> None:
        """Replay a snapshot into an empty server.

        Raises :class:`ReproError` when the server already holds
        connections (restore is a boot-time operation) or when the
        snapshot no longer fits the network (e.g. the topology shrank).
        """
        if self._requests:
            raise ReproError(
                "restore requires an empty server; tear down "
                f"{len(self._requests)} connections first"
            )
        requests = [
            request_from_dict(data, self.network)
            for data in snapshot.get("connections", [])
        ]
        done: List[str] = []
        try:
            for request in requests:
                self._cac.setup(request)
                self._requests[request.name] = request
                done.append(request.name)
        except AdmissionError:
            for name in reversed(done):
                self._cac.teardown(name)
                self._requests.pop(name)
            raise
        for name in done:
            self._log("restore", name)

    def restore_json(self, payload: str) -> None:
        """Replay a JSON snapshot produced by :meth:`snapshot_json`."""
        self.restore(json.loads(payload))
