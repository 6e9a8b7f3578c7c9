"""The bit-stream traffic model and its manipulation algebra (Sections 2-3).

A *bit stream* ``S = {(r(k), t(k)); k = 0..m}`` describes a worst-case
arrival pattern as a monotonically non-increasing step-wise rate function
of time: the stream has rate ``r(k)`` during ``[t(k), t(k+1))`` with
``t(m+1) = infinity``.  Time is measured in cell times and rates are
normalized to the link bandwidth (1.0 == full link rate), following the
conventions of the paper.

This module implements the stream representation and the four
manipulation algorithms of Section 3:

============================  =================================
Paper algorithm               Implementation
============================  =================================
Algorithm 3.1 (delay)         :meth:`BitStream.delayed`
Algorithm 3.2 (multiplexing)  :meth:`BitStream.__add__`, :func:`aggregate`
Algorithm 3.3 (demultiplex)   :meth:`BitStream.__sub__`
Algorithm 3.4 (filtering)     :meth:`BitStream.filtered`
============================  =================================

Implementation note (see DESIGN.md, "Envelope formulation"): both delay
and filtering are instances of capping a cumulative-arrival curve
``A(t) = integral of r`` with a constant-rate envelope:

* ``filter(S, C)`` produces the stream whose cumulative curve is
  ``min(C * t, A(t))`` -- a work-conserving server of capacity ``C``;
* ``delay(S, CDV)`` produces the stream whose cumulative curve is
  ``min(t, A(t + CDV))`` -- all bits of the first ``CDV`` time units clump
  and are released at full link rate, after which the stream follows the
  original pattern shifted earlier by ``CDV``.

Because ``r`` is non-increasing, ``A`` is concave and both envelopes have
a single crossing point, which we locate exactly.  This matches the
streams constructed by the paper's step-wise pseudocode while avoiding
its edge cases (the pseudocode of Algorithm 3.4, for instance, references
an undefined ``queue`` variable).

All arithmetic is generic over the number type: :class:`float` for
production use and :class:`fractions.Fraction` for exact property tests.
Only integer literals (``0``, ``1``) are mixed in, which both types
absorb without precision loss.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

from ..exceptions import BitStreamError

Number = Union[int, float, Fraction]

#: Tolerance used to forgive floating-point noise when validating the
#: non-increasing invariant and when clamping tiny negative rates produced
#: by demultiplexing.
_RATE_TOLERANCE = 1e-9

__all__ = ["BitStream", "Number", "aggregate", "ZERO_STREAM"]


class BitStream:
    """An immutable step-wise bit stream ``S = {(r(k), t(k))}``.

    Instances are canonical: ``times[0] == 0``, times strictly increase,
    adjacent rates differ, all rates are non-negative and the rate
    function is monotonically non-increasing (the invariant every stream
    in the paper's model satisfies -- worst-case single-connection
    streams are non-increasing by construction, and every algebra
    operation preserves the property).

    Parameters
    ----------
    rates:
        Rate ``r(k)`` in cells per cell time, one per segment.
    times:
        Start time ``t(k)`` of each segment in cell times.  The last
        segment extends to infinity.

    Examples
    --------
    >>> s = BitStream([1, 0.5, 0.1], [0, 1, 5])
    >>> s.rate_at(0.5), s.rate_at(3), s.rate_at(100)
    (1, 0.5, 0.1)
    >>> s.bits(5)   # 1*1 + 0.5*4
    3.0
    """

    __slots__ = ("_rates", "_times")

    def __init__(self, rates: Sequence[Number], times: Sequence[Number]):
        if len(rates) != len(times):
            raise BitStreamError(
                f"rates and times must have equal length, got "
                f"{len(rates)} rates and {len(times)} times"
            )
        if not rates:
            raise BitStreamError("a bit stream needs at least one segment")
        if times[0] != 0:
            raise BitStreamError(f"t(0) must be 0, got {times[0]}")

        canon_rates: list[Number] = []
        canon_times: list[Number] = []
        for rate, time in zip(rates, times):
            if rate < 0:
                if rate < -_RATE_TOLERANCE:
                    raise BitStreamError(f"negative rate {rate} at t={time}")
                rate = type(rate)(0)  # clamp noise to +0 of the same type
            if canon_times and time < canon_times[-1]:
                raise BitStreamError(
                    f"times must be non-decreasing, got {time} after "
                    f"{canon_times[-1]}"
                )
            if canon_times and time == canon_times[-1]:
                # Zero-length segment: the later rate wins.
                canon_rates[-1] = rate
                if len(canon_rates) >= 2 and canon_rates[-2] == rate:
                    canon_rates.pop()
                    canon_times.pop()
                continue
            if canon_rates and canon_rates[-1] == rate:
                continue  # merge equal-rate neighbours
            canon_rates.append(rate)
            canon_times.append(time)

        for earlier, later in zip(canon_rates, canon_rates[1:]):
            if later > earlier and later - earlier > _RATE_TOLERANCE:
                raise BitStreamError(
                    f"rate function must be non-increasing, got step "
                    f"{earlier} -> {later}"
                )

        self._rates: Tuple[Number, ...] = tuple(canon_rates)
        self._times: Tuple[Number, ...] = tuple(canon_times)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, rate: Number) -> "BitStream":
        """A stream with a single constant rate for all time."""
        return cls([rate], [0])

    @classmethod
    def zero(cls) -> "BitStream":
        """The empty stream (rate 0 everywhere)."""
        return cls([0], [0])

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def rates(self) -> Tuple[Number, ...]:
        """The canonical segment rates ``r(k)``."""
        return self._rates

    @property
    def times(self) -> Tuple[Number, ...]:
        """The canonical segment start times ``t(k)``."""
        return self._times

    @property
    def segments(self) -> Iterator[Tuple[Number, Number]]:
        """Iterate ``(rate, start_time)`` pairs in time order."""
        return iter(zip(self._rates, self._times))

    def __len__(self) -> int:
        return len(self._rates)

    @property
    def peak_rate(self) -> Number:
        """The largest rate -- ``r(0)`` by monotonicity."""
        return self._rates[0]

    @property
    def long_run_rate(self) -> Number:
        """The rate of the final (infinite) segment.

        This is the stream's sustained average rate; stability analysis
        compares it against link/service capacity.
        """
        return self._rates[-1]

    @property
    def is_zero(self) -> bool:
        """True when the stream carries no traffic at all."""
        return len(self._rates) == 1 and self._rates[0] == 0

    def rate_at(self, t: Number) -> Number:
        """The instantaneous rate ``r(t)`` (right-continuous).

        ``t`` may be any non-negative time, not only a breakpoint.
        """
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        return self._rates[self._segment_index(t)]

    def _segment_index(self, t: Number) -> int:
        """Index ``k`` of the segment containing ``t`` (binary search)."""
        lo, hi = 0, len(self._times) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._times[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo

    # ------------------------------------------------------------------
    # Cumulative-arrival calculus
    # ------------------------------------------------------------------

    def bits(self, t: Number) -> Number:
        """Cumulative bits ``A(t)`` arrived during ``[0, t]``.

        ``A`` is the piecewise-linear concave integral of the rate
        function; it is the object the worst-case queueing analysis of
        Section 4 reasons about.
        """
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        total: Number = 0
        for index, (rate, start) in enumerate(zip(self._rates, self._times)):
            end = self._times[index + 1] if index + 1 < len(self._times) else None
            if end is None or end >= t:
                return total + rate * (t - start)
            total += rate * (end - start)
        raise AssertionError("unreachable")  # pragma: no cover

    def time_of_bits(self, amount: Number) -> Number:
        """Earliest time ``t`` with ``A(t) >= amount``.

        Returns ``math.inf`` when the stream never delivers that many
        bits (possible only if the long-run rate is zero).
        """
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        if amount == 0:
            return 0 * amount
        total: Number = 0
        for index, (rate, start) in enumerate(zip(self._rates, self._times)):
            end = self._times[index + 1] if index + 1 < len(self._times) else None
            chunk = None if end is None else rate * (end - start)
            if chunk is None or total + chunk >= amount:
                if rate == 0:
                    return math.inf
                return start + (amount - total) / rate
            total += chunk
        raise AssertionError("unreachable")  # pragma: no cover

    def breakpoint_bits(self) -> Tuple[Number, ...]:
        """``A(t(k))`` for every breakpoint -- cumulative bits at each step."""
        values = []
        total: Number = 0
        for index, start in enumerate(self._times):
            if index > 0:
                total += self._rates[index - 1] * (start - self._times[index - 1])
            values.append(total)
        return tuple(values)

    # ------------------------------------------------------------------
    # Algorithm 3.2 / 3.3: multiplexing and demultiplexing
    # ------------------------------------------------------------------

    def __add__(self, other: "BitStream") -> "BitStream":
        """Multiplex two streams: worst case rates add (Algorithm 3.2)."""
        if not isinstance(other, BitStream):
            return NotImplemented
        return _merge(self, other, lambda a, b: a + b)

    def __sub__(self, other: "BitStream") -> "BitStream":
        """Remove a component stream from an aggregate (Algorithm 3.3).

        ``other`` must previously have been multiplexed into ``self``;
        tiny negative rates from float round-off are clamped to zero,
        larger ones raise :class:`BitStreamError`.
        """
        if not isinstance(other, BitStream):
            return NotImplemented
        return _merge(self, other, lambda a, b: a - b)

    def patched(self, old: "BitStream", new: "BitStream") -> "BitStream":
        """``self - old + new``: swap one component of an aggregate.

        The cache-patch form of Algorithms 3.2/3.3 -- how the
        incremental admission caches replace one input's contribution
        without re-aggregating.
        """
        return _merge(_merge(self, old, lambda a, b: a - b), new,
                      lambda a, b: a + b)

    def scaled(self, factor: Number) -> "BitStream":
        """The multiplex of ``factor`` identical copies of this stream.

        Equal to repeated :meth:`__add__` for exact (int/Fraction)
        rates, in O(m).  For float rates ``factor * rate`` can differ
        from ``factor`` additions in the last bits, which is why
        :class:`~repro.rtnet.evaluation.RingAnalysis` aggregates its
        many identical broadcast envelopes with :func:`aggregate`
        rather than scaling one.
        """
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return BitStream([rate * factor for rate in self._rates], self._times)

    # ------------------------------------------------------------------
    # Algorithm 3.1: delay (worst-case clumping after CDV)
    # ------------------------------------------------------------------

    def delayed(self, cdv: Number) -> "BitStream":
        """Worst-case stream after queueing points with delay variation.

        Passing a stream through queueing points with an accumulated
        maximum cell delay variation ``cdv`` can, in the worst case,
        delay every bit of the first ``cdv`` time units until time
        ``cdv`` and release them back-to-back at full link rate
        (Algorithm 3.1, Figure 4).  Relative to the first delayed bit
        the arrival curve becomes ``A'(t) = min(t, A(t + cdv))``.

        A stream whose long-run rate is 1 (a full-rate stream) clumps
        into the constant full-rate stream.
        """
        if cdv < 0:
            raise ValueError(f"cdv must be non-negative, got {cdv}")
        if cdv == 0 or self.is_zero:
            return self
        if self.peak_rate > 1:
            raise BitStreamError(
                "delayed() models single-link clumping and requires a "
                f"stream with peak rate <= 1, got {self.peak_rate}"
            )
        shifted = self._shifted_left(cdv)
        offset = self.bits(cdv)  # bits clumped at the head (AREA1)
        return _cap_with_envelope(shifted, capacity=1, head_start=offset)

    def _shifted_left(self, amount: Number) -> "BitStream":
        """The stream ``t -> r(t + amount)`` (drop the first ``amount``)."""
        index = self._segment_index(amount)
        rates = list(self._rates[index:])
        times = [0 * amount] + [t - amount for t in self._times[index + 1:]]
        return BitStream(rates, times)

    # ------------------------------------------------------------------
    # Algorithm 3.4: filtering by a transmission link
    # ------------------------------------------------------------------

    def filtered(self, capacity: Number = 1) -> "BitStream":
        """The stream after passing a link of the given capacity.

        When the aggregate rate exceeds the link capacity the excess is
        queued and released at capacity rate until the backlog drains
        (Algorithm 3.4, Figure 7): ``A'(t) = min(capacity * t, A(t))``.
        A stream whose long-run rate meets or exceeds the capacity never
        drains and filters to the constant capacity stream.

        Filtering smooths aggregates and is what lets the CAC obtain
        tighter downstream delay bounds than rate-function approaches
        that bound distortion instead of computing it exactly.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if self.peak_rate <= capacity:
            return self
        return _cap_with_envelope(self, capacity, head_start=0)

    # ------------------------------------------------------------------
    # Backlog / busy-period analysis (used for buffer sizing, Section 5)
    # ------------------------------------------------------------------

    def backlog_bound(self, capacity: Number = 1) -> Number:
        """Maximum queue build-up behind a server of the given capacity.

        This is AREA1 of Figure 7: the largest value of
        ``A(t) - capacity * t``.  It sizes the FIFO buffer a switch needs
        so that worst-case traffic is never dropped.  Returns
        ``math.inf`` when the long-run rate exceeds the capacity.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if self.long_run_rate > capacity:
            return math.inf
        best: Number = 0
        total: Number = 0
        for index, (rate, start) in enumerate(zip(self._rates, self._times)):
            excess = total - capacity * start
            if excess > best:
                best = excess
            if index + 1 < len(self._times):
                total += rate * (self._times[index + 1] - start)
        # A(t) - C t is piecewise linear; its maximum over [0, inf) is at a
        # breakpoint because the slope r(k) - C only decreases with k.
        return best

    @property
    def burst(self) -> Number:
        """Burst allowance ``sigma`` of the ``(sigma, rho)`` envelope.

        The smallest ``sigma`` with ``A(t) <= sigma + long_run_rate * t``
        for all ``t``: the maximum of the piecewise-linear
        ``A(t) - rho * t``, attained at a breakpoint because the slope
        ``r(k) - rho`` is non-increasing.  Together with
        ``rho = long_run_rate`` this is the pessimistic affine envelope
        the admission fast path sums into its headroom ledger (see
        ``docs/performance.md``); it is sub-additive under multiplexing
        and non-increasing under filtering, which is what makes the
        ledger sums conservative.

        The maximum is taken over *all* breakpoints (not just the last)
        so that streams canonicalized under ``_RATE_TOLERANCE`` -- whose
        rate function may rise by up to the tolerance -- still get a
        valid envelope.
        """
        rho = self._rates[-1]
        best: Number = 0
        total: Number = 0
        for index, start in enumerate(self._times):
            if index > 0:
                total += self._rates[index - 1] * (start - self._times[index - 1])
            excess = total - rho * start
            if excess > best:
                best = excess
        return best

    def busy_period(self, capacity: Number = 1) -> Number:
        """Time at which a server of the given capacity first goes idle.

        The first ``t > 0`` with ``A(t) <= capacity * t`` after any
        initial overload, i.e. when the queue of Figure 7 empties.
        Returns ``0`` when the stream never overloads the server and
        ``math.inf`` when the backlog never drains.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if self.peak_rate <= capacity:
            return 0
        crossing = _envelope_crossing(self, capacity, head_start=0)
        return math.inf if crossing is None else crossing

    # ------------------------------------------------------------------
    # Number-type conversions
    # ------------------------------------------------------------------

    def as_floats(self) -> "BitStream":
        """A copy with every rate and time coerced to float.

        The fast path for simulation interop after exact (Fraction)
        admission arithmetic.
        """
        return BitStream([float(rate) for rate in self._rates],
                         [float(time) for time in self._times])

    def as_fractions(self, max_denominator: int = 10**12) -> "BitStream":
        """A copy with every rate and time as exact fractions.

        Float inputs are snapped to the nearest rational with the given
        denominator limit; exact inputs pass through unchanged.
        """
        def convert(value: Number) -> Number:
            if isinstance(value, (int, Fraction)):
                return value
            return Fraction(value).limit_denominator(max_denominator)
        return BitStream([convert(rate) for rate in self._rates],
                         [convert(time) for time in self._times])

    # ------------------------------------------------------------------
    # Comparison helpers
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitStream):
            return NotImplemented
        return self._rates == other._rates and self._times == other._times

    def __hash__(self) -> int:
        return hash((self._rates, self._times))

    def approx_equal(self, other: "BitStream", tolerance: float = 1e-9) -> bool:
        """Structural equality up to a tolerance on rates and times.

        Useful for float pipelines where round-off perturbs breakpoints.
        The comparison is segment-wise on the canonical forms, so streams
        that merely *sample* equal can still compare unequal if their
        breakpoint structure differs beyond the tolerance.
        """
        if len(self) != len(other):
            return self._resampled_close(other, tolerance)
        pairs = zip(self._rates, other._rates, self._times, other._times)
        for rate_a, rate_b, time_a, time_b in pairs:
            if abs(rate_a - rate_b) > tolerance or abs(time_a - time_b) > tolerance:
                return self._resampled_close(other, tolerance)
        return True

    def _resampled_close(self, other: "BitStream", tolerance: float) -> bool:
        """Fallback comparison sampling both cumulative curves."""
        points = sorted(set(self._times) | set(other._times))
        horizon = (points[-1] if points[-1] > 0 else 1) * 2
        points.append(horizon)
        return all(
            abs(self.bits(t) - other.bits(t)) <= tolerance * (1 + abs(t))
            for t in points
        )

    def dominates(self, other: "BitStream") -> bool:
        """True when this stream's cumulative curve is everywhere >= other's.

        Domination is the partial order worst-case analysis cares about:
        if ``S`` dominates ``S2`` then every delay bound computed from
        ``S`` is valid for ``S2``.
        """
        points = sorted(set(self._times) | set(other._times))
        for point in points:
            if self.bits(point) < other.bits(point):
                return False
        # Beyond the last breakpoint both curves are linear, so domination
        # holds for all time iff this stream's tail slope is at least as big.
        return self.long_run_rate >= other.long_run_rate

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({rate!r}, {time!r})" for rate, time in zip(self._rates, self._times)
        )
        return f"BitStream[{pairs}]"


ZERO_STREAM = BitStream.zero()


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------


def _merge(first: BitStream, second: BitStream, combine) -> BitStream:
    """Point-wise combination of two step functions (Algorithms 3.2/3.3)."""
    rates: list[Number] = []
    times: list[Number] = []
    index_a = 0
    index_b = 0
    times_a, times_b = first.times, second.times
    rates_a, rates_b = first.rates, second.rates
    while index_a < len(times_a) or index_b < len(times_b):
        candidates = []
        if index_a < len(times_a):
            candidates.append(times_a[index_a])
        if index_b < len(times_b):
            candidates.append(times_b[index_b])
        current = min(candidates)
        if index_a < len(times_a) and times_a[index_a] == current:
            index_a += 1
        if index_b < len(times_b) and times_b[index_b] == current:
            index_b += 1
        rate = combine(rates_a[index_a - 1], rates_b[index_b - 1])
        rates.append(rate)
        times.append(current)
    return BitStream(rates, times)


def aggregate(streams: Iterable[BitStream]) -> BitStream:
    """Multiplex any number of streams (k-way Algorithm 3.2).

    Equivalent to summing with ``+`` but merges all breakpoint lists in
    one pass, which matters for the RTnet aggregates of hundreds of
    connections.
    Returns the zero stream for an empty iterable.

    Each stream contributes one rate *delta* event ``(time, step)`` per
    breakpoint; one sort of all events -- O(B log B) in the total
    breakpoint count B -- puts them in ``(time, step)`` order and a
    running sum yields the aggregate's step function.  Equal events add
    equal values, so for streams of one number type the summation
    order, and with it every float bit of the result, depends only on
    the multiset of input streams, not on their order.
    """
    stream_list = [stream for stream in streams if not stream.is_zero]
    if not stream_list:
        return ZERO_STREAM
    if len(stream_list) == 1:
        return stream_list[0]

    events: list[Tuple[Number, Number]] = []
    for stream in stream_list:
        levels = stream._rates
        # Step k is r(k) - r(k-1), with r(-1) = 0.
        events.extend(zip(stream._times,
                          map(operator.sub, levels, (0,) + levels[:-1])))
    events.sort()

    rates: list[Number] = []
    times: list[Number] = []
    total: Number = 0
    for time, delta in events:
        total = total + delta
        if times and times[-1] == time:
            rates[-1] = total
        else:
            rates.append(total)
            times.append(time)
    return BitStream(rates, times)


def _envelope_crossing(stream: BitStream, capacity: Number,
                       head_start: Number):
    """First ``t > 0`` where ``head_start + A(t) <= capacity * t``.

    ``head_start`` is a bit backlog already queued at time zero (the
    clumped AREA1 of Algorithm 3.1); for plain filtering it is zero.
    Returns ``None`` when the backlog never drains (long-run rate >=
    capacity, or == capacity with backlog outstanding).
    """
    backlog = head_start
    rates, times = stream.rates, stream.times
    for index, (rate, start) in enumerate(zip(rates, times)):
        end = times[index + 1] if index + 1 < len(times) else None
        drain_rate = capacity - rate  # positive when the queue shrinks
        if backlog == 0 and drain_rate >= 0:
            return start
        if drain_rate > 0:
            needed = backlog / drain_rate
            if end is None or start + needed <= end:
                return start + needed
            backlog -= drain_rate * (end - start)
        else:
            if end is None:
                return None
            backlog += (-drain_rate) * (end - start)
    return None  # pragma: no cover


def _cap_with_envelope(stream: BitStream, capacity: Number,
                       head_start: Number) -> BitStream:
    """Stream whose cumulative curve is ``min(capacity*t, head_start+A(t))``.

    The shared primitive behind Algorithms 3.1 and 3.4: output at
    ``capacity`` until the backlog (initial ``head_start`` plus any
    excess arrivals) drains, then follow the input stream.
    """
    crossing = _envelope_crossing(stream, capacity, head_start)
    if crossing is None:
        return BitStream.constant(capacity)
    if crossing == 0:
        return stream
    index = stream._segment_index(crossing)
    rates = [capacity] + list(stream.rates[index:])
    times = [0 * crossing, crossing] + [
        t for t in stream.times[index + 1:]
    ]
    # The segment containing the crossing keeps its rate from ``crossing``
    # onwards; canonicalization merges it with the cap if they are equal.
    return BitStream(rates, times)
