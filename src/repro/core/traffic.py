"""CBR/VBR traffic descriptors and the Section 2 traffic model.

A VBR connection is described by ``(PCR, SCR, MBS)``:

* ``PCR`` -- peak cell rate, the fastest the source may emit cells;
* ``SCR`` -- sustainable cell rate, the long-run average allowance;
* ``MBS`` -- maximum burst size, how many cells may go out back-to-back
  at ``PCR`` when a full token bucket has accumulated.

A CBR connection is the special case ``SCR == PCR`` (the paper treats it
that way and so do we).  Rates are normalized to the link bandwidth and
time is in cell times, as everywhere in :mod:`repro.core`.

The module provides:

* :class:`VBRParameters` / :func:`cbr` -- validated descriptors;
* :meth:`VBRParameters.worst_case_stream` -- Algorithm 2.1, the
  continuous bit-stream envelope of the worst-case generation pattern;
* :func:`worst_case_cell_times` -- the *discrete* worst-case cell
  schedule of equation (1) (the token-counter model), used by the
  simulator's greedy sources and by the tests that check the continuous
  envelope really bounds the discrete process at cell boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from ..exceptions import TrafficModelError
from .bitstream import BitStream, Number

__all__ = [
    "VBRParameters",
    "cbr",
    "worst_case_cell_times",
    "equivalent_vbr_for_cbr_set",
    "check_conformance",
]


@dataclass(frozen=True)
class VBRParameters:
    """A validated ``(PCR, SCR, MBS)`` traffic descriptor.

    Parameters
    ----------
    pcr:
        Peak cell rate, ``0 < SCR <= PCR <= 1`` (normalized).
    scr:
        Sustainable cell rate.
    mbs:
        Maximum burst size in cells, ``>= 1``.

    Examples
    --------
    >>> v = VBRParameters(pcr=0.5, scr=0.1, mbs=4)
    >>> v.is_cbr
    False
    >>> cbr(0.25).is_cbr
    True
    """

    pcr: Number
    scr: Number
    mbs: Number = 1

    def __post_init__(self) -> None:
        if not 0 < self.scr <= self.pcr:
            raise TrafficModelError(
                f"need 0 < SCR <= PCR, got SCR={self.scr}, PCR={self.pcr}"
            )
        if self.pcr > 1:
            raise TrafficModelError(
                f"PCR must not exceed the link rate (1.0), got {self.pcr}"
            )
        if self.mbs < 1:
            raise TrafficModelError(f"MBS must be >= 1 cell, got {self.mbs}")
        if self.mbs > 1 and self.pcr == self.scr:
            # A burst above 1 is meaningless when peak == sustained; we
            # normalize rather than reject, because ATM signalling often
            # carries a vestigial MBS for CBR contracts.
            object.__setattr__(self, "mbs", 1)

    @property
    def is_cbr(self) -> bool:
        """True when this descriptor is a constant-bit-rate contract."""
        return self.pcr == self.scr

    @property
    def burst_duration(self) -> Number:
        """Length of the worst-case peak-rate burst, ``(MBS - 1) / PCR``.

        The first cell occupies the leading full-rate segment of the
        envelope, hence ``MBS - 1`` cells at ``PCR`` (Algorithm 2.1).
        """
        return (self.mbs - 1) / self.pcr

    def worst_case_stream(self) -> BitStream:
        """Algorithm 2.1: the continuous bit-stream worst-case envelope.

        The worst case emits one cell immediately (the leading rate-1
        segment of unit length), then ``MBS - 1`` further cells at
        ``PCR``, then settles to ``SCR``:

        ``S = {(1, 0), (PCR, 1), (SCR, 1 + (MBS - 1) / PCR)}``

        The stream generates the same number of bits as the discrete
        worst-case cell process at every cell boundary and at least as
        many in between, so every bound derived from it is valid for the
        real cell stream (checked by the property tests).
        """
        return BitStream(
            [1, self.pcr, self.scr],
            [0, 1, 1 + self.burst_duration],
        )

    def mean_interval(self) -> Number:
        """Average cell spacing at the sustained rate, ``1 / SCR``."""
        return 1 / self.scr

    def as_fractions(self) -> "VBRParameters":
        """A copy whose parameters are exact :class:`fractions.Fraction`.

        Handy for tests that need exact algebra end to end.
        """
        return VBRParameters(
            Fraction(self.pcr).limit_denominator(10**12),
            Fraction(self.scr).limit_denominator(10**12),
            self.mbs if isinstance(self.mbs, int) else Fraction(self.mbs),
        )


def cbr(pcr: Number) -> VBRParameters:
    """A CBR descriptor with the given peak (== sustained) cell rate."""
    return VBRParameters(pcr=pcr, scr=pcr, mbs=1)


def worst_case_cell_times(params: VBRParameters, count: int) -> List[float]:
    """Generation times of the first ``count`` cells of a greedy source.

    The greedy source of the equation (1) token model emits ``MBS``
    cells at ``1/PCR`` spacing and then settles to ``1/SCR`` spacing
    (Figure 1).  Time zero is the first cell.

    Note on the token bucket: the refill-capped-at-MBS narration of the
    paper, taken literally with continuous refill, would let a greedy
    source stretch the peak-rate burst beyond ``MBS`` cells (tokens
    accrue *during* the burst).  The bucket that produces exactly the
    Figure 1 worst case -- and the standard GCRA correspondence -- has
    depth ``1 + (MBS - 1) * (1 - SCR/PCR)``; see
    :class:`repro.sim.gcra.DualLeakyBucket`.  Here we emit the Figure 1
    schedule directly, which is what Algorithm 2.1 envelopes.

    This is the schedule the simulator's worst-case sources follow and
    the discrete counterpart of :meth:`VBRParameters.worst_case_stream`.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    pcr_gap = 1 / params.pcr
    scr_gap = 1 / params.scr
    times: List[float] = []
    for index in range(count):
        if index < params.mbs:
            times.append(index * pcr_gap)
        else:
            burst_end = (params.mbs - 1) * pcr_gap
            times.append(burst_end + (index - params.mbs + 1) * scr_gap)
    return times


def check_conformance(cell_times: List[float],
                      params: VBRParameters) -> List[int]:
    """Indices of cells that violate the ``(PCR, SCR, MBS)`` contract.

    A policer's view of an emission schedule: each cell must respect the
    peak spacing and the sustained-rate token bucket (the GCRA bucket of
    :func:`repro.sim.gcra.bucket_depth`).  Non-conforming cells are
    reported but -- like a real UPC that tags rather than drops -- do
    not update the bucket, so one early cell does not cascade into
    flagging every successor.

    Returns an empty list for a conforming schedule.

    >>> check_conformance([0.0, 4.0, 8.0], cbr(0.25))
    []
    >>> check_conformance([0.0, 1.0, 8.0], cbr(0.25))
    [1]
    """
    from ..sim.gcra import DualLeakyBucket
    violations: List[int] = []
    bucket = DualLeakyBucket(params)
    previous = None
    for index, time in enumerate(cell_times):
        if previous is not None and time < previous:
            raise ValueError(
                f"cell times must be non-decreasing, got {time} after "
                f"{previous}"
            )
        if bucket.conforms(time):
            bucket.record_emission(time)
        else:
            violations.append(index)
        previous = time
    return violations


def equivalent_vbr_for_cbr_set(count: int, rate: Number) -> VBRParameters:
    """The VBR descriptor matching ``count`` jittered CBR connections.

    Section 5 observes that the worst-case aggregate of ``N`` CBR
    connections of peak rate ``R`` equals the worst case of a single VBR
    connection with ``PCR = min(N * R, 1)`` capped at the link rate,
    ``SCR = N * R`` and ``MBS = N`` -- all ``N`` sources may burst one
    cell simultaneously.  This is how Figure 10 doubles as a VBR
    feasibility result.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    total = count * rate
    if total > 1:
        raise TrafficModelError(
            f"aggregate sustained rate {total} exceeds the link rate"
        )
    # All N sources can emit a cell simultaneously, so the aggregate can
    # put MBS = N cells on the wire back to back; once carried on a single
    # link that burst arrives at the link rate, hence PCR = 1 (the paper
    # states the equivalence with PCR = N before link filtering; the two
    # envelopes filter to the same stream).
    return VBRParameters(pcr=1, scr=total, mbs=count)
