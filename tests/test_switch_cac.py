"""Per-switch admission control (Section 4.3 Steps 1-6)."""

import math
from fractions import Fraction as F

import pytest

from repro.core.bitstream import BitStream, ZERO_STREAM
from repro.core.delay_bound import delay_bound
from repro.core.switch_cac import SwitchCAC
from repro.core.traffic import VBRParameters, cbr
from repro.exceptions import AdmissionError, SwitchRejection

CBR_QUARTER = cbr(F(1, 4)).worst_case_stream()
VBR_STREAM = VBRParameters(pcr=F(1, 2), scr=F(1, 10), mbs=4).worst_case_stream()


def make_switch(bound=32, priorities=(0,), name="sw0"):
    switch = SwitchCAC(name)
    switch.configure_link("out", {p: bound for p in priorities})
    return switch


class TestConfiguration:
    def test_advertised_bound(self):
        switch = make_switch(bound=16)
        assert switch.advertised_bound("out", 0) == 16

    def test_unknown_link_rejected(self):
        switch = make_switch()
        with pytest.raises(AdmissionError, match="does not serve|no output"):
            switch.advertised_bound("nope", 0)

    def test_unknown_priority_rejected(self):
        switch = make_switch()
        with pytest.raises(AdmissionError, match="does not serve"):
            switch.advertised_bound("out", 5)

    def test_empty_bounds_rejected(self):
        switch = SwitchCAC("sw")
        with pytest.raises(ValueError):
            switch.configure_link("out", {})

    def test_non_positive_bound_rejected(self):
        switch = SwitchCAC("sw")
        with pytest.raises(ValueError):
            switch.configure_link("out", {0: 0})

    def test_priorities_sorted(self):
        switch = make_switch(priorities=(2, 0, 1))
        assert switch.priorities("out") == [0, 1, 2]

    def test_reconfiguration_cannot_drop_a_loaded_priority(self):
        switch = SwitchCAC("sw")
        switch.configure_link("out", {0: 32, 1: 64})
        switch.admit("vc", "in", "out", 1, CBR_QUARTER)
        switch.reserve("held", "in", "out", 0, CBR_QUARTER)
        for bounds in ({0: 32}, {1: 64}, {0: 32, 2: 96}):
            with pytest.raises(AdmissionError, match="cannot drop priority"):
                switch.configure_link("out", bounds)
            assert switch.priorities("out") == [0, 1]
            assert switch.verify_consistency()
        # A crashed switch checks its journal: recovery must still work.
        switch.crash()
        with pytest.raises(AdmissionError, match="cannot drop priority 1"):
            switch.configure_link("out", {0: 32})
        switch.recover()
        # Changing bounds and adding priorities stays allowed.
        switch.configure_link("out", {0: 48, 1: 64, 2: 96})
        assert switch.advertised_bound("out", 0) == 48
        assert switch.verify_consistency()
        released = switch.release("vc")
        assert released.priority == 1
        assert switch.in_link_utilization("in") == 0
        # An empty priority may go.
        switch.configure_link("out", {0: 48})
        assert switch.priorities("out") == [0]
        assert switch.verify_consistency()


class TestSinglePriorityAdmission:
    def test_first_connection_admitted(self):
        switch = make_switch()
        result = switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        assert result.admitted
        assert result.computed_bounds[0] <= 32
        assert "vc0" in switch.legs

    def test_duplicate_id_rejected(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        with pytest.raises(AdmissionError, match="already admitted"):
            switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)

    def test_check_does_not_mutate(self):
        switch = make_switch()
        switch.check("in0", "out", 0, CBR_QUARTER)
        assert switch.legs == {}
        assert switch.sia("in0", "out", 0) == ZERO_STREAM

    def test_computed_bound_grows_with_load(self):
        switch = make_switch()
        bounds = []
        for index in range(3):
            switch.admit(f"vc{index}", f"in{index}", "out", 0, CBR_QUARTER)
            bounds.append(switch.computed_bound("out", 0))
        assert bounds == sorted(bounds)

    def test_overload_rejected_cleanly(self):
        # Five CBR 1/4 connections exceed the link: the fifth must fail
        # with an infinite computed bound, leaving state untouched.
        switch = make_switch(bound=1000)
        for index in range(4):
            switch.admit(f"vc{index}", f"in{index}", "out", 0, CBR_QUARTER)
        before = dict(switch.legs)
        with pytest.raises(SwitchRejection) as err:
            switch.admit("vc4", "in4", "out", 0, CBR_QUARTER)
        assert err.value.computed_bound == math.inf
        assert switch.legs.keys() == before.keys()

    def test_tight_bound_rejects_clumped_traffic(self):
        # A tiny advertised bound refuses traffic whose worst case
        # exceeds it even though bandwidth is plentiful.
        switch = make_switch(bound=F(1, 2))
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        with pytest.raises(SwitchRejection):
            switch.admit("vc1", "in1", "out", 0, VBR_STREAM.delayed(40))

    def test_single_input_filtering_gives_zero_extra_delay(self):
        """Connections from one already-filtered input queue by <= 1 cell.

        All traffic entering by a single link is serialized by that link;
        the output port can forward it as it arrives.
        """
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        switch.admit("vc1", "in0", "out", 0, CBR_QUARTER)
        assert switch.computed_bound("out", 0) == 0

    def test_in_link_overload_rejected(self):
        """Filtering must not mask a physically impossible input load.

        Two connections entering by the same link with total sustained
        rate above the link rate can never actually arrive that fast;
        the check refuses rather than reporting a bogus zero delay.
        """
        switch = make_switch(bound=1000)
        switch.admit("vc0", "in0", "out", 0,
                     cbr(F(3, 4)).worst_case_stream())
        result = switch.check("in0", "out", 0,
                              cbr(F(1, 2)).worst_case_stream())
        assert not result.admitted
        assert result.computed_bounds[0] == math.inf

    def test_in_link_utilization(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        switch.admit("vc1", "in0", "out", 0, CBR_QUARTER)
        assert switch.in_link_utilization("in0") == F(1, 2)
        assert switch.in_link_utilization("in1") == 0

    def test_two_inputs_can_collide(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        switch.admit("vc1", "in1", "out", 0, CBR_QUARTER)
        assert switch.computed_bound("out", 0) > 0


class TestRelease:
    def test_release_restores_aggregates(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        baseline = switch.sia("in0", "out", 0)
        switch.admit("vc1", "in0", "out", 0, VBR_STREAM)
        switch.release("vc1")
        assert switch.sia("in0", "out", 0) == baseline

    def test_release_unknown_rejected(self):
        switch = make_switch()
        with pytest.raises(AdmissionError, match="not admitted"):
            switch.release("ghost")

    def test_release_all_empties_state(self):
        switch = make_switch()
        for index in range(3):
            switch.admit(f"vc{index}", "in0", "out", 0, CBR_QUARTER)
        for index in range(3):
            switch.release(f"vc{index}")
        assert switch.legs == {}
        assert switch.sia("in0", "out", 0) == ZERO_STREAM
        assert switch.computed_bound("out", 0) == 0

    def test_admit_release_cycle_consistency(self):
        """Long admit/release sequences never drift from ground truth."""
        switch = make_switch()
        light_cbr = cbr(F(1, 16)).worst_case_stream()
        light_vbr = VBRParameters(
            pcr=F(1, 4), scr=F(1, 32), mbs=3).worst_case_stream()
        streams = [light_cbr, light_vbr, light_cbr.delayed(F(7)),
                   light_vbr.delayed(F(3))]
        for round_index in range(3):
            for index, stream in enumerate(streams):
                switch.admit(f"vc{round_index}.{index}",
                             f"in{index % 2}", "out", 0, stream)
            assert switch.verify_consistency()
            switch.release(f"vc{round_index}.1")
            switch.release(f"vc{round_index}.3")
            assert switch.verify_consistency()

    def test_readmit_after_release(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        switch.release("vc0")
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        assert "vc0" in switch.legs


class TestMultiPriority:
    def test_lower_priority_sees_interference(self):
        switch = make_switch(bound=64, priorities=(0, 1))
        switch.admit("hi", "in0", "out", 0, CBR_QUARTER)
        switch.admit("lo", "in1", "out", 1, CBR_QUARTER)
        low_bound = switch.computed_bound("out", 1)
        high_bound = switch.computed_bound("out", 0)
        assert low_bound >= high_bound

    def test_new_high_priority_checks_lower_bounds(self):
        # Fill priority 1 close to its bound, then add priority-0
        # traffic whose interference would push priority 1 over.
        switch = SwitchCAC("sw")
        switch.configure_link("out", {0: 500, 1: F(3)})
        for index in range(3):
            switch.admit(f"lo{index}", f"in{index}", "out", 1, CBR_QUARTER)
        low_before = switch.computed_bound("out", 1)
        assert low_before <= 3
        with pytest.raises(SwitchRejection) as err:
            switch.admit("hi", "in3", "out", 0,
                         VBR_STREAM.delayed(60))
        assert err.value.priority == 1

    def test_higher_priority_unaffected_by_lower(self):
        switch = make_switch(bound=64, priorities=(0, 1))
        switch.admit("hi", "in0", "out", 0, CBR_QUARTER)
        before = switch.computed_bound("out", 0)
        switch.admit("lo", "in1", "out", 1, VBR_STREAM)
        assert switch.computed_bound("out", 0) == before

    def test_check_reports_all_affected_priorities(self):
        switch = make_switch(bound=64, priorities=(0, 1, 2))
        switch.admit("p1", "in0", "out", 1, CBR_QUARTER)
        switch.admit("p2", "in1", "out", 2, CBR_QUARTER)
        result = switch.check("in2", "out", 0, CBR_QUARTER)
        assert set(result.computed_bounds) == {0, 1, 2}

    def test_idle_lower_priorities_skipped(self):
        switch = make_switch(bound=64, priorities=(0, 1, 2))
        result = switch.check("in0", "out", 0, CBR_QUARTER)
        assert set(result.computed_bounds) == {0}


class TestFilteringAblation:
    def test_unfiltered_bounds_are_looser(self):
        """Per-input link filtering tightens the computed bounds."""
        kwargs = dict(bound=10_000)
        filtered = make_switch(**kwargs)
        coarse = SwitchCAC("sw-nofilter", filter_per_input=False)
        coarse.configure_link("out", {0: 10_000})
        heavy = VBR_STREAM.delayed(F(20))
        for index in range(3):
            filtered.admit(f"vc{index}", f"in{index % 2}", "out", 0, heavy)
            coarse.admit(f"vc{index}", f"in{index % 2}", "out", 0, heavy)
        assert coarse.computed_bound("out", 0) >= \
            filtered.computed_bound("out", 0)


class TestDiagnostics:
    def test_utilization_sums_long_run_rates(self):
        switch = make_switch()
        switch.admit("vc0", "in0", "out", 0, CBR_QUARTER)
        switch.admit("vc1", "in1", "out", 0, CBR_QUARTER)
        assert switch.utilization("out") == F(1, 2)

    def test_buffer_requirement_bounded_by_delay(self):
        # With capacity 1, a backlog of B cells drains in B cell times,
        # so buffer occupancy never exceeds the computed delay bound.
        switch = make_switch()
        for index in range(3):
            switch.admit(f"vc{index}", f"in{index}", "out", 0, CBR_QUARTER)
        assert switch.buffer_requirement("out", 0) <= \
            switch.computed_bound("out", 0) + 1e-9

    def test_repr_mentions_name(self):
        assert "sw0" in repr(make_switch())
