"""Property tests: float stream arithmetic agrees with exact arithmetic.

Every strategy generates exact :class:`fractions.Fraction` streams, runs
the algorithm on them, then re-runs the same algorithm on the float
twins produced by :meth:`BitStream.as_floats` and asserts agreement to
within 1e-9.  (The module name predates the removal of the NumPy kernel
layer; the float path it once checked is now the one implementation.)

The generated fractions have small denominators, so exact values near
decision boundaries (stability ``rate <= 1``, zero service slope) are
either *at* the boundary -- where the float conversion is exact -- or
at least ~1e-6 away from it, far beyond float round-off.  Branch
decisions therefore never flip between the two paths and ``inf``
results must match exactly.
"""

import math
from fractions import Fraction as F

from hypothesis import given, strategies as st

from repro.core.bitstream import BitStream, ZERO_STREAM, aggregate
from repro.core.delay_bound import (
    ServiceCurve,
    backlog_bound_with_higher,
    delay_at,
    delay_bound,
    is_stable,
)

TOLERANCE = 1e-9

fractions_01 = st.fractions(min_value=F(1, 20), max_value=1,
                            max_denominator=20)
positive_gaps = st.fractions(min_value=F(1, 4), max_value=20,
                             max_denominator=8)
probe_times = st.fractions(min_value=0, max_value=60, max_denominator=8)


@st.composite
def monotone_streams(draw, max_segments=4, max_head_rate=1):
    """A canonical non-increasing stream with Fraction arithmetic."""
    count = draw(st.integers(min_value=1, max_value=max_segments))
    raw = sorted(
        draw(st.lists(fractions_01, min_size=count, max_size=count)),
        reverse=True,
    )
    rates = [rate * max_head_rate for rate in raw]
    gaps = draw(st.lists(positive_gaps, min_size=count - 1,
                         max_size=count - 1))
    times = [F(0)]
    for gap in gaps:
        times.append(times[-1] + gap)
    return BitStream(rates, times)


def close(a, b, tolerance=TOLERANCE):
    """Scalar agreement, treating the two infinities as equal."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tolerance * (1 + abs(b))


# ----------------------------------------------------------------------
# Number types
# ----------------------------------------------------------------------

def test_pure_int_streams_stay_exact():
    # Integer streams (the zero stream, a saturated link) keep integer
    # arithmetic, so their results keep integer types.
    assert type(ZERO_STREAM.bits(7)) is int
    assert type(BitStream.constant(1).bits(7)) is int
    assert type(BitStream([1, 0], [0, 3]).backlog_bound()) is int


# ----------------------------------------------------------------------
# Point lookups
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=2), probe_times)
def test_bits_matches_exact(s, t):
    assert close(s.as_floats().bits(float(t)), s.bits(t))


@given(monotone_streams(max_head_rate=2), probe_times)
def test_rate_at_matches_exact(s, t):
    assert close(s.as_floats().rate_at(float(t)), s.rate_at(t))


@given(monotone_streams(max_head_rate=2),
       st.fractions(min_value=0, max_value=40, max_denominator=8))
def test_time_of_bits_matches_exact(s, amount):
    assert close(s.as_floats().time_of_bits(float(amount)),
                 s.time_of_bits(amount))


# ----------------------------------------------------------------------
# Stream-valued operations (Algorithms 3.1-3.4)
# ----------------------------------------------------------------------

@given(monotone_streams(), monotone_streams())
def test_multiplex_matches_exact(a, b):
    fast = a.as_floats() + b.as_floats()
    assert fast.approx_equal(a + b, TOLERANCE)


@given(monotone_streams(), monotone_streams())
def test_demultiplex_matches_exact(a, b):
    total = a + b
    fast = total.as_floats() - b.as_floats()
    assert fast.approx_equal(total - b, TOLERANCE)


@given(st.lists(monotone_streams(), min_size=2, max_size=6))
def test_aggregate_matches_exact(streams):
    fast = aggregate([s.as_floats() for s in streams])
    assert fast.approx_equal(aggregate(streams), TOLERANCE)


@given(monotone_streams(max_head_rate=4))
def test_filtered_matches_exact(s):
    assert s.as_floats().filtered().approx_equal(s.filtered(), TOLERANCE)


@given(monotone_streams(),
       st.fractions(min_value=0, max_value=30, max_denominator=4))
def test_delayed_matches_exact(s, cdv):
    fast = s.as_floats().delayed(float(cdv))
    assert fast.approx_equal(s.delayed(cdv), TOLERANCE)


# ----------------------------------------------------------------------
# Worst-case analysis (Algorithm 4.1)
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=3))
def test_delay_bound_no_interference_matches_exact(s):
    assert close(delay_bound(s.as_floats()), delay_bound(s))


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_delay_bound_matches_exact(arrivals, interference):
    higher = interference.filtered()
    exact = delay_bound(arrivals, higher)
    fast = delay_bound(arrivals.as_floats(), higher.as_floats())
    assert close(fast, exact)


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_backlog_bound_matches_exact(arrivals, interference):
    higher = interference.filtered()
    exact = backlog_bound_with_higher(arrivals, higher)
    fast = backlog_bound_with_higher(arrivals.as_floats(),
                                     higher.as_floats())
    assert close(fast, exact)


@given(st.lists(monotone_streams(), min_size=1, max_size=3),
       monotone_streams())
def test_float_delay_bound_is_the_max_over_candidate_instants(
        components, interference):
    # Algorithm 4.1's single cursor pass must reproduce, bit for bit,
    # the maximum of the pointwise delay D(t) over its candidate set:
    # the arrival breakpoints and the pre-images under A of the
    # service breakpoints.
    stream = aggregate([s.as_floats() for s in components])
    higher = interference.filtered().as_floats()
    if not is_stable(stream, higher):
        assert delay_bound(stream, higher) == math.inf
        return
    candidates = set(stream.times)
    for _, served in ServiceCurve(higher).breakpoints():
        preimage = stream.time_of_bits(served)
        if preimage != math.inf:
            candidates.add(preimage)
    expected = max(delay_at(stream, higher, t) for t in candidates)
    assert delay_bound(stream, higher) == expected
