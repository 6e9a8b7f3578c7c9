"""The paper's primary contribution: bit-stream CAC for hard real time.

Re-exports the pieces a typical user composes:

* the traffic model (:class:`VBRParameters`, :func:`cbr`);
* the bit-stream algebra (:class:`BitStream`, :func:`aggregate`);
* the worst-case analysis (:func:`delay_bound`);
* per-switch and network-level admission control
  (:class:`SwitchCAC`, :class:`NetworkCAC`) with the batched pipeline
  (:meth:`NetworkCAC.setup_many`) and its per-port state
  (:class:`PortState` -- see ``docs/architecture.md``);
* the event-driven admission plane (:class:`AdmissionPlane`) running
  concurrent in-flight setups on the shared simulation engine;
* CDV accumulation policies (:data:`HARD`, :data:`SOFT`);
* the baseline schemes used for comparison.
"""

from .accumulation import HARD, SOFT, CdvPolicy, HardCdv, SoftCdv, make_policy
from .admission import BatchSetupResult, NetworkCAC
from .baseline import (
    BandwidthAllocationCAC,
    PeakBandwidthCAC,
    SustainedBandwidthCAC,
    rate_function_delay_bound,
)
from .bitstream import BitStream, Number, ZERO_STREAM, aggregate
from .delay_bound import (
    ServiceCurve,
    backlog_bound_with_higher,
    delay_at,
    delay_bound,
    departure_time,
    is_stable,
)
from .plane import AdmissionPlane, SetupOutcome
from .port_state import PortState
from .server import AdmissionDecision, AuditEntry, CacServer, PlanReport
from .switch_cac import (
    BatchCheckResult,
    CheckResult,
    Leg,
    PriorityBoundViolation,
    SwitchCAC,
)
from .traffic import (
    VBRParameters,
    cbr,
    check_conformance,
    equivalent_vbr_for_cbr_set,
    worst_case_cell_times,
)


def kernels_enabled() -> bool:
    """Always ``False``: stream arithmetic is pure Python.

    Kept for callers that record it in their run metadata.
    """
    return False


__all__ = [
    "BitStream",
    "Number",
    "ZERO_STREAM",
    "aggregate",
    "kernels_enabled",
    "VBRParameters",
    "cbr",
    "worst_case_cell_times",
    "equivalent_vbr_for_cbr_set",
    "check_conformance",
    "delay_bound",
    "delay_at",
    "departure_time",
    "backlog_bound_with_higher",
    "is_stable",
    "ServiceCurve",
    "SwitchCAC",
    "Leg",
    "CheckResult",
    "BatchCheckResult",
    "PriorityBoundViolation",
    "PortState",
    "NetworkCAC",
    "BatchSetupResult",
    "AdmissionPlane",
    "SetupOutcome",
    "CacServer",
    "AdmissionDecision",
    "AuditEntry",
    "PlanReport",
    "CdvPolicy",
    "HardCdv",
    "SoftCdv",
    "HARD",
    "SOFT",
    "make_policy",
    "BandwidthAllocationCAC",
    "PeakBandwidthCAC",
    "SustainedBandwidthCAC",
    "rate_function_delay_bound",
]
