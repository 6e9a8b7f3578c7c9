"""Property-based tests (hypothesis) for the bit-stream algebra.

The strategies generate exact :class:`fractions.Fraction` streams so the
algebraic laws can be asserted with ``==`` -- no tolerance games.  Only
the ``aggregate`` identity tests also draw float streams, where the
point is bit-for-bit agreement under rounding.
"""

import heapq
import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from repro.core.bitstream import BitStream, aggregate
from repro.core.delay_bound import delay_bound
from repro.core.traffic import VBRParameters


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

fractions_01 = st.fractions(min_value=F(1, 20), max_value=1,
                            max_denominator=20)
positive_gaps = st.fractions(min_value=F(1, 4), max_value=20,
                             max_denominator=8)


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


@st.composite
def sub_unit_streams(draw):
    """A stream whose peak rate stays at or below the link rate."""
    return draw(monotone_streams(max_head_rate=1))


@st.composite
def vbr_parameters(draw):
    pcr = draw(st.fractions(min_value=F(1, 16), max_value=1,
                            max_denominator=16))
    scr_scale = draw(st.fractions(min_value=F(1, 8), max_value=1,
                                  max_denominator=8))
    mbs = draw(st.integers(min_value=1, max_value=12))
    return VBRParameters(pcr=pcr, scr=pcr * scr_scale, mbs=mbs)


# ----------------------------------------------------------------------
# Canonical-form invariants
# ----------------------------------------------------------------------

@given(monotone_streams())
def test_canonical_form(s):
    assert s.times[0] == 0
    assert all(a < b for a, b in zip(s.times, s.times[1:]))
    assert all(a > b for a, b in zip(s.rates, s.rates[1:]))
    assert all(rate >= 0 for rate in s.rates)


@given(monotone_streams())
def test_bits_is_monotone_and_concave(s):
    probes = [F(i, 2) for i in range(0, 30)]
    values = [s.bits(t) for t in probes]
    assert all(b >= a for a, b in zip(values, values[1:]))
    increments = [b - a for a, b in zip(values, values[1:])]
    assert all(later <= earlier + 0 for earlier, later
               in zip(increments, increments[1:]))


@given(monotone_streams(), st.fractions(min_value=0, max_value=50,
                                        max_denominator=8))
def test_time_of_bits_round_trip(s, t):
    amount = s.bits(t)
    earliest = s.time_of_bits(amount)
    assert earliest <= t
    assert s.bits(earliest) == amount


# ----------------------------------------------------------------------
# Multiplex / demultiplex laws (Algorithms 3.2 / 3.3)
# ----------------------------------------------------------------------

@given(monotone_streams(), monotone_streams())
def test_multiplex_commutative(a, b):
    assert a + b == b + a


@given(monotone_streams(), monotone_streams(), monotone_streams())
def test_multiplex_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(monotone_streams(), monotone_streams())
def test_demultiplex_inverts_multiplex(a, b):
    assert (a + b) - b == a


@given(st.lists(monotone_streams(), max_size=5))
def test_aggregate_matches_fold(streams):
    folded = BitStream.zero()
    for s in streams:
        folded = folded + s
    assert aggregate(streams) == folded


@given(monotone_streams(), monotone_streams(),
       st.fractions(min_value=0, max_value=40, max_denominator=4))
def test_multiplex_adds_bits_pointwise(a, b, t):
    assert (a + b).bits(t) == a.bits(t) + b.bits(t)


@given(monotone_streams(), st.integers(min_value=0, max_value=6))
def test_scaled_matches_repeated_sum(s, n):
    folded = BitStream.zero()
    for _ in range(n):
        folded = folded + s
    assert s.scaled(n) == folded


def _heap_merge_aggregate(streams):
    """Oracle: the k-way heap merge ``aggregate`` used before the sort.

    ``heapq.merge`` breaks ties between equal events by stream index, as
    a stable sort of the concatenated events does, so the two must agree
    bit for bit on every input, mixed number types included.
    """
    stream_list = [stream for stream in streams if not stream.is_zero]
    if not stream_list:
        return BitStream.zero()
    if len(stream_list) == 1:
        return stream_list[0]

    def delta_events(stream):
        previous = 0
        for rate, time in zip(stream.rates, stream.times):
            yield (time, rate - previous)
            previous = rate

    rates, times = [], []
    total = 0
    for time, delta in heapq.merge(*map(delta_events, stream_list)):
        total = total + delta
        if times and times[-1] == time:
            rates[-1] = total
        else:
            rates.append(total)
            times.append(time)
    return BitStream(rates, times)


@st.composite
def float_streams(draw, max_segments=4):
    """A non-increasing all-float stream on a coarse time grid.

    Rates are arbitrary floats, so sums round; breakpoints share a grid,
    so different streams often step at the same instant.
    """
    count = draw(st.integers(min_value=1, max_value=max_segments))
    rates = sorted(
        draw(st.lists(st.floats(min_value=0.01, max_value=1),
                      min_size=count, max_size=count)),
        reverse=True,
    )
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]),
                         min_size=count - 1, max_size=count - 1))
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    return BitStream(rates, times)


@st.composite
def stream_multisets(draw, streams):
    """A list of streams in which some appear more than once."""
    distinct = draw(st.lists(streams, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=4))
    return distinct + repeats


@settings(max_examples=150)
@given(st.one_of(stream_multisets(float_streams()),
                 stream_multisets(monotone_streams()),
                 stream_multisets(st.one_of(float_streams(),
                                            monotone_streams()))))
def test_aggregate_matches_heap_merge_bit_for_bit(streams):
    # ``repr`` spells out every number's type and every float bit.
    assert repr(aggregate(streams)) == repr(_heap_merge_aggregate(streams))


@settings(max_examples=150)
@given(st.one_of(stream_multisets(float_streams()),
                 stream_multisets(monotone_streams())),
       st.randoms(use_true_random=False))
def test_aggregate_ignores_input_order(streams, rng):
    shuffled = list(streams)
    rng.shuffle(shuffled)
    assert repr(aggregate(shuffled)) == repr(aggregate(streams))


# ----------------------------------------------------------------------
# Filtering laws (Algorithm 3.4)
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=4))
def test_filter_caps_rate_and_conserves_order(s):
    filtered = s.filtered()
    assert filtered.peak_rate <= 1
    probes = [F(i, 2) for i in range(0, 40)]
    for t in probes:
        assert filtered.bits(t) <= s.bits(t)
        assert filtered.bits(t) <= t
        # The exact envelope: output = min(t, A(t)).
        assert filtered.bits(t) == min(t, s.bits(t))


@given(monotone_streams(max_head_rate=4))
def test_filter_idempotent(s):
    once = s.filtered()
    assert once.filtered() == once


@given(monotone_streams(max_head_rate=4))
def test_filter_conserves_bits_eventually(s):
    filtered = s.filtered()
    if s.long_run_rate >= 1:
        assert filtered == BitStream.constant(1)
        return
    drain = s.busy_period()
    for t in (drain, drain + 5, drain + 50):
        assert filtered.bits(t) == s.bits(t)


# ----------------------------------------------------------------------
# Delay laws (Algorithm 3.1)
# ----------------------------------------------------------------------

@given(sub_unit_streams(),
       st.fractions(min_value=0, max_value=30, max_denominator=4))
def test_delay_is_exact_envelope(s, cdv):
    delayed = s.delayed(cdv)
    probes = [F(i, 2) for i in range(0, 60)]
    for t in probes:
        assert delayed.bits(t) == min(t, s.bits(t + cdv))


@given(sub_unit_streams(),
       st.fractions(min_value=0, max_value=20, max_denominator=4))
def test_delay_dominates_original(s, cdv):
    assert s.delayed(cdv).dominates(s)


@given(sub_unit_streams(),
       st.fractions(min_value=0, max_value=10, max_denominator=4),
       st.fractions(min_value=0, max_value=10, max_denominator=4))
def test_delay_monotone_in_cdv(s, cdv_a, cdv_b):
    lo, hi = sorted((cdv_a, cdv_b))
    assert s.delayed(hi).dominates(s.delayed(lo))


@given(sub_unit_streams())
def test_delay_zero_is_identity(s):
    assert s.delayed(0) == s


# ----------------------------------------------------------------------
# Delay-bound properties (Algorithm 4.1)
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=3))
def test_delay_bound_no_interference_is_backlog(s):
    assert delay_bound(s) == s.backlog_bound()


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_delay_bound_monotone_in_traffic(base, extra):
    # Adding traffic can never shrink the worst-case delay.
    small = delay_bound(base)
    big = delay_bound(base + extra)
    assert big >= small


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_delay_bound_monotone_in_interference(arrivals, interference):
    alone = delay_bound(arrivals)
    with_higher = delay_bound(arrivals, interference.filtered())
    assert with_higher == math.inf or with_higher >= alone


@given(monotone_streams(max_head_rate=2))
def test_delay_bound_non_negative(s):
    assert delay_bound(s) >= 0


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_filtering_interferer_never_hurts(arrivals, interference):
    """The link-filtering effect: a smoothed interferer delays no more.

    This is the paper's justification for tracking filtered streams --
    bounds computed from filtered interference are tighter (or equal),
    never optimistic, because filtering only *delays* interfering bits.
    """
    rough = interference.filtered()            # minimally filtered
    smooth = rough.filtered(F(1, 2)).filtered()  # strictly smoother
    bound_rough = delay_bound(arrivals, rough)
    bound_smooth = delay_bound(arrivals, smooth)
    if bound_rough == math.inf:
        return
    assert bound_smooth <= bound_rough or bound_smooth == math.inf


# ----------------------------------------------------------------------
# Algorithm 2.1 envelope properties
# ----------------------------------------------------------------------

@given(vbr_parameters())
def test_envelope_structure(params):
    s = params.worst_case_stream()
    assert s.peak_rate == 1
    assert s.long_run_rate == params.scr
    assert s.bits(1 + params.burst_duration) == params.mbs


@given(vbr_parameters(),
       st.fractions(min_value=0, max_value=20, max_denominator=4))
def test_envelope_delay_roundtrip_conserves_tail(params, cdv):
    s = params.worst_case_stream()
    delayed = s.delayed(cdv)
    assert delayed.long_run_rate == params.scr
