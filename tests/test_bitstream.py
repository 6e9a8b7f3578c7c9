"""Unit tests for the bit-stream representation and algebra (Sections 2-3)."""

import math
from fractions import Fraction as F

import pytest

from repro.core.bitstream import BitStream, ZERO_STREAM, aggregate
from repro.exceptions import BitStreamError


def stream(*pairs):
    """Build a stream from (rate, time) pairs, paper-style."""
    rates = [rate for rate, _ in pairs]
    times = [time for _, time in pairs]
    return BitStream(rates, times)


class TestConstruction:
    def test_single_segment(self):
        s = BitStream([0.5], [0])
        assert s.rates == (0.5,)
        assert s.times == (0,)

    def test_must_start_at_zero(self):
        with pytest.raises(BitStreamError, match="t\\(0\\)"):
            BitStream([1.0], [1])

    def test_lengths_must_match(self):
        with pytest.raises(BitStreamError, match="equal length"):
            BitStream([1.0, 0.5], [0])

    def test_empty_rejected(self):
        with pytest.raises(BitStreamError, match="at least one"):
            BitStream([], [])

    def test_decreasing_times_rejected(self):
        with pytest.raises(BitStreamError, match="non-decreasing"):
            BitStream([1.0, 0.5, 0.2], [0, 5, 3])

    def test_increasing_rates_rejected(self):
        with pytest.raises(BitStreamError, match="non-increasing"):
            BitStream([0.2, 0.5], [0, 1])

    def test_negative_rate_rejected(self):
        with pytest.raises(BitStreamError, match="negative rate"):
            BitStream([-0.5], [0])

    def test_tiny_negative_rate_clamped(self):
        s = BitStream([1.0, -1e-12], [0, 1])
        assert s.rates[-1] == 0
        # The clamp yields a positive zero of the same type, so repr and
        # JSON never print ``-0.0``.
        s = BitStream([0.5, -1e-12], [0.0, 1.0])
        assert s.rates == (0.5, 0.0)
        assert type(s.rates[-1]) is float
        assert math.copysign(1.0, s.rates[-1]) == 1.0
        assert "-0.0" not in repr(s)
        exact = BitStream([F(1, 2), F(-1, 10**12)], [0, 1])
        assert exact.rates[-1] == 0 and type(exact.rates[-1]) is F

    def test_adjacent_equal_rates_merge(self):
        s = BitStream([1.0, 1.0, 0.5], [0, 1, 2])
        assert s.rates == (1.0, 0.5)
        assert s.times == (0, 2)

    def test_zero_length_segment_dropped(self):
        s = BitStream([1.0, 0.7, 0.5], [0, 2, 2])
        assert s.rates == (1.0, 0.5)
        assert s.times == (0, 2)

    def test_constant_and_zero(self):
        assert BitStream.constant(0.3).rates == (0.3,)
        assert BitStream.zero().is_zero
        assert ZERO_STREAM.is_zero

    def test_fractions_preserved(self):
        s = BitStream([F(1, 2)], [0])
        assert s.rates[0] == F(1, 2)
        assert isinstance(s.bits(F(3)), F)


class TestAccessors:
    def setup_method(self):
        self.s = stream((1, 0), (0.5, 1), (0.1, 7))

    def test_rate_at(self):
        assert self.s.rate_at(0) == 1
        assert self.s.rate_at(0.99) == 1
        assert self.s.rate_at(1) == 0.5      # right-continuous
        assert self.s.rate_at(6.5) == 0.5
        assert self.s.rate_at(7) == 0.1
        assert self.s.rate_at(1000) == 0.1

    def test_rate_at_negative_rejected(self):
        with pytest.raises(ValueError):
            self.s.rate_at(-1)

    def test_peak_and_long_run(self):
        assert self.s.peak_rate == 1
        assert self.s.long_run_rate == 0.1

    def test_len_and_segments(self):
        assert len(self.s) == 3
        assert list(self.s.segments) == [(1, 0), (0.5, 1), (0.1, 7)]

    def test_repr_mentions_pairs(self):
        assert "BitStream[" in repr(self.s)


class TestCumulativeBits:
    def setup_method(self):
        self.s = stream((1, 0), (F(1, 2), 1), (F(1, 10), 7))

    def test_bits_at_breakpoints(self):
        assert self.s.bits(0) == 0
        assert self.s.bits(1) == 1
        assert self.s.bits(7) == 4

    def test_bits_mid_segment(self):
        assert self.s.bits(F(1, 2)) == F(1, 2)
        assert self.s.bits(4) == 1 + F(3, 2)
        assert self.s.bits(17) == 5

    def test_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            self.s.bits(-1)

    def test_time_of_bits_inverse(self):
        for amount in (0, F(1, 2), 1, 2, 4, 5):
            t = self.s.time_of_bits(amount)
            assert self.s.bits(t) == amount

    def test_time_of_bits_zero_rate_tail(self):
        s = stream((1, 0), (0, 1))
        assert s.time_of_bits(1) == 1
        assert s.time_of_bits(1.5) == math.inf

    def test_time_of_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            self.s.time_of_bits(-1)

    def test_breakpoint_bits(self):
        assert self.s.breakpoint_bits() == (0, 1, 4)


class TestMultiplexing:
    """Algorithm 3.2."""

    def test_rates_add_pointwise(self):
        a = stream((1, 0), (F(1, 2), 2))
        b = stream((F(1, 4), 0), (F(1, 8), 3))
        total = a + b
        assert total == stream(
            (F(5, 4), 0), (F(3, 4), 2), (F(5, 8), 3))

    def test_commutative(self):
        a = stream((1, 0), (0.5, 2))
        b = stream((0.25, 0), (0.125, 3))
        assert a + b == b + a

    def test_identity_with_zero(self):
        a = stream((1, 0), (0.5, 2))
        assert a + ZERO_STREAM == a

    def test_shared_breakpoints_merge(self):
        a = stream((1, 0), (F(1, 2), 2))
        b = stream((1, 0), (F(1, 4), 2))
        assert (a + b) == stream((2, 0), (F(3, 4), 2))

    def test_aggregate_matches_pairwise(self):
        parts = [
            stream((1, 0), (F(1, 2), 1)),
            stream((F(1, 4), 0), (F(1, 8), 3)),
            stream((F(1, 3), 0), (F(1, 6), 2)),
        ]
        pairwise = parts[0] + parts[1] + parts[2]
        assert aggregate(parts) == pairwise

    def test_aggregate_empty_is_zero(self):
        assert aggregate([]) == ZERO_STREAM

    def test_aggregate_single(self):
        a = stream((1, 0), (0.5, 2))
        assert aggregate([a]) is a

    def test_scaled_matches_repeated_sum(self):
        a = stream((1, 0), (F(1, 2), 1), (F(1, 10), 7))
        assert a.scaled(3) == a + a + a

    def test_scaled_by_zero_is_zero(self):
        a = stream((1, 0), (0.5, 1))
        assert a.scaled(0).is_zero

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            stream((1, 0)).scaled(-1)


class TestDemultiplexing:
    """Algorithm 3.3."""

    def test_removes_component_exactly(self):
        a = stream((1, 0), (F(1, 2), 1), (F(1, 10), 7))
        b = stream((F(1, 4), 0), (F(1, 20), 5))
        assert (a + b) - b == a
        assert (a + b) - a == b

    def test_subtracting_self_gives_zero(self):
        a = stream((1, 0), (F(1, 2), 1))
        assert (a - a).is_zero

    def test_overdraw_rejected(self):
        a = stream((F(1, 2), 0))
        b = stream((1, 0))
        with pytest.raises(BitStreamError):
            a - b


class TestDelay:
    """Algorithm 3.1 -- worst-case clumping after CDV."""

    def setup_method(self):
        # VBR envelope: PCR 1/2, SCR 1/10, MBS 4.
        self.s = stream((1, 0), (F(1, 2), 1), (F(1, 10), 7))

    def test_zero_cdv_is_identity(self):
        assert self.s.delayed(0) is self.s

    def test_zero_stream_unchanged(self):
        assert ZERO_STREAM.delayed(5) is ZERO_STREAM

    def test_negative_cdv_rejected(self):
        with pytest.raises(ValueError):
            self.s.delayed(-1)

    def test_paper_shape(self):
        # CDV=3: AREA1 = A(3) = 2 bits; drained against rate 1/2 tail in
        # 4 time units, so S' is full rate on [0,4) then the SCR tail.
        delayed = self.s.delayed(F(3))
        assert delayed == stream((1, 0), (F(1, 10), 4))

    def test_bit_conservation_after_clump(self):
        # Past the clump, the delayed curve equals A(t + CDV) exactly.
        cdv = F(3)
        delayed = self.s.delayed(cdv)
        for t in (4, 5, 10, 100):
            assert delayed.bits(t) == self.s.bits(t + cdv)

    def test_full_rate_head(self):
        delayed = self.s.delayed(F(3))
        assert delayed.peak_rate == 1
        assert delayed.bits(2) == 2  # rate 1 during the clump release

    def test_delayed_dominates_original(self):
        # Clumping only moves bits earlier: the delayed stream dominates.
        delayed = self.s.delayed(F(3))
        assert delayed.dominates(self.s)

    def test_more_cdv_dominates_less(self):
        little = self.s.delayed(F(1))
        lots = self.s.delayed(F(5))
        assert lots.dominates(little)

    def test_full_rate_stream_saturates(self):
        # A connection at the link rate clumps into the constant
        # full-rate stream: the backlog never drains.
        cbr_full = stream((1, 0))
        assert cbr_full.delayed(2) == BitStream.constant(1)

    def test_cdv_before_first_breakpoint(self):
        # CDV smaller than the leading full-rate segment: the delayed
        # curve is the exact envelope min(t, A(t + CDV)) everywhere.
        cdv = F(1, 2)
        delayed = self.s.delayed(cdv)
        assert delayed.rate_at(0) == 1
        for t in (F(1, 2), 1, F(3, 2), 3, 10):
            assert delayed.bits(t) == min(t, self.s.bits(t + cdv))

    def test_aggregate_rejected(self):
        over = stream((2, 0), (F(1, 2), 1))
        with pytest.raises(BitStreamError, match="peak rate"):
            over.delayed(1)

    def test_cbr_delay_matches_hand_calculation(self):
        # CBR at rate 1/4 with CDV 8: AREA1 = 2 bits, drained at rate
        # 1 - 1/4 = 3/4, so full rate until t = 8/3.
        cbr = stream((F(1, 4), 0))
        delayed = cbr.delayed(8)
        assert delayed == stream((1, 0), (F(1, 4), F(8, 3)))


class TestFiltering:
    """Algorithm 3.4 -- smoothing by a transmission link."""

    def test_under_capacity_unchanged(self):
        s = stream((1, 0), (F(1, 2), 1))
        assert s.filtered() is s

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            stream((1, 0)).filtered(0)

    def test_paper_shape(self):
        # Aggregate 3x the VBR envelope: backlog 5 by t=7, drains at
        # rate 7/10, so the filtered stream is rate 1 until 99/7.
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        assert s.filtered() == stream((1, 0), (F(3, 10), F(99, 7)))

    def test_never_exceeds_capacity(self):
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        assert s.filtered().peak_rate == 1
        assert s.filtered(F(1, 2)).peak_rate == F(1, 2)

    def test_bit_conservation_after_drain(self):
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        filtered = s.filtered()
        drain = F(99, 7)
        for t in (drain, drain + 1, drain + 100):
            assert filtered.bits(t) == s.bits(t)

    def test_output_cumulative_never_exceeds_input(self):
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        filtered = s.filtered()
        for t in (0, F(1, 2), 1, 3, 7, 10, 20):
            assert filtered.bits(t) <= s.bits(t)
            assert filtered.bits(t) <= t

    def test_overloaded_link_saturates(self):
        s = stream((2, 0), (F(3, 2), 5))   # long-run rate above capacity
        assert s.filtered() == BitStream.constant(1)

    def test_exact_capacity_with_backlog_saturates(self):
        s = stream((2, 0), (1, 5))   # backlog 5 never drains at rate 1
        assert s.filtered() == BitStream.constant(1)

    def test_idempotent(self):
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        once = s.filtered()
        assert once.filtered() == once

    def test_non_unit_capacity(self):
        s = stream((1, 0), (F(1, 10), 2))   # 2 bits backlog over cap 1/2
        filtered = s.filtered(F(1, 2))
        # Backlog (1 - 1/2)*2 = 1 drains at 1/2 - 1/10 = 2/5: 2.5 extra.
        assert filtered == stream((F(1, 2), 0), (F(1, 10), F(9, 2)))


class TestBacklogAndBusyPeriod:
    def test_no_overload_no_backlog(self):
        s = stream((1, 0), (F(1, 2), 1))
        assert s.backlog_bound() == 0
        assert s.busy_period() == 0

    def test_backlog_of_aggregate(self):
        s = stream((3, 0), (F(3, 2), 1), (F(3, 10), 7))
        assert s.backlog_bound() == 5
        assert s.busy_period() == F(99, 7)

    def test_unstable_backlog_infinite(self):
        s = stream((2, 0))
        assert s.backlog_bound() == math.inf
        assert s.busy_period() == math.inf

    def test_backlog_against_smaller_capacity(self):
        s = stream((1, 0), (F(1, 10), 2))
        assert s.backlog_bound(F(1, 2)) == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            stream((1, 0)).backlog_bound(0)
        with pytest.raises(ValueError):
            stream((1, 0)).busy_period(-1)


class TestComparison:
    def test_structural_equality(self):
        assert stream((1, 0), (0.5, 1)) == stream((1, 0), (0.5, 1))
        assert stream((1, 0)) != stream((0.5, 0))

    def test_hashable(self):
        assert len({stream((1, 0)), stream((1, 0)), stream((0.5, 0))}) == 2

    def test_approx_equal_tolerates_noise(self):
        a = stream((1, 0), (0.5, 1))
        b = stream((1, 0), (0.5 + 1e-12, 1 + 1e-12))
        assert a.approx_equal(b)

    def test_approx_equal_detects_difference(self):
        a = stream((1, 0), (0.5, 1))
        b = stream((1, 0), (0.4, 1))
        assert not a.approx_equal(b)

    def test_approx_equal_different_segment_counts(self):
        # Structurally different but same cumulative curve within noise.
        a = stream((1, 0), (0.5, 1))
        b = stream((1, 0), (0.5 + 5e-13, 1), (0.5, 2))
        assert a.approx_equal(b)

    def test_dominates(self):
        big = stream((1, 0), (F(1, 2), 2))
        small = stream((F(1, 2), 0), (F(1, 4), 2))
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_dominates_self(self):
        s = stream((1, 0), (0.5, 1))
        assert s.dominates(s)

    def test_dominates_requires_tail_slope(self):
        # Bigger now but slower forever: eventually overtaken.
        early = stream((1, 0), (F(1, 10), 1))
        late = stream((F(1, 2), 0))
        assert not early.dominates(late)


class TestNumberConversions:
    def test_as_floats(self):
        s = stream((F(1, 2), 0), (F(1, 3), F(7, 2)))
        converted = s.as_floats()
        assert all(isinstance(r, float) for r in converted.rates)
        assert all(isinstance(t, float) for t in converted.times)
        assert converted.rates[0] == 0.5

    def test_as_fractions_snaps_floats(self):
        s = stream((0.5, 0), (0.25, 1.5))
        converted = s.as_fractions()
        assert converted.rates == (F(1, 2), F(1, 4))
        assert converted.times == (0, F(3, 2))

    def test_as_fractions_preserves_exact(self):
        s = stream((F(1, 3), 0))
        assert s.as_fractions().rates[0] == F(1, 3)

    def test_round_trip_bits_agree(self):
        s = stream((F(1, 2), 0), (F(1, 10), 3))
        assert s.as_floats().bits(7.0) == pytest.approx(float(s.bits(7)))
